// Result bookkeeping shared by the workloads: named metrics with units and
// sample counts, output-check accounting, output fingerprints, and the
// process-level resource probes (peak RSS, CPU time).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "mw/stats.hpp"

namespace sos::deploy {
struct ScenarioResult;
}

namespace perfbench {

struct Metric {
  double value = 0;
  std::string unit;
  std::size_t samples = 1;
};

/// Every figure one run produced, by name. A name is emitted at most once;
/// set() twice for one name is a benchmark bug and throws.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 1);
  const std::map<std::string, Metric>& all() const { return metrics_; }

 private:
  std::map<std::string, Metric> metrics_;
};

/// Output-check accounting: every closed-loop operation and every output
/// comparison counts as attempted; a failed check also records why.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void check(bool ok, const std::string& what);
};

/// Every NodeStats counter, in declaration order: the one list the
/// fingerprint and the fleet totals both walk.
inline constexpr std::uint64_t sos::mw::NodeStats::*kStatsFields[] = {
    &sos::mw::NodeStats::sessions_established,  &sos::mw::NodeStats::sessions_lost,
    &sos::mw::NodeStats::full_handshakes,       &sos::mw::NodeStats::sessions_resumed,
    &sos::mw::NodeStats::resume_attempts,       &sos::mw::NodeStats::resume_rejected,
    &sos::mw::NodeStats::ecdh_ops,              &sos::mw::NodeStats::handshake_cert_rejected,
    &sos::mw::NodeStats::handshake_sig_rejected, &sos::mw::NodeStats::frames_sent,
    &sos::mw::NodeStats::frames_received,       &sos::mw::NodeStats::decrypt_failures,
    &sos::mw::NodeStats::malformed_frames,      &sos::mw::NodeStats::bundles_sent,
    &sos::mw::NodeStats::bundles_received,      &sos::mw::NodeStats::bundle_sig_rejected,
    &sos::mw::NodeStats::bundle_cert_rejected,  &sos::mw::NodeStats::bundle_sig_cache_hits,
    &sos::mw::NodeStats::bundle_sig_cache_misses, &sos::mw::NodeStats::bundle_batch_verifies,
    &sos::mw::NodeStats::bundle_batch_fallbacks, &sos::mw::NodeStats::duplicates_ignored,
    &sos::mw::NodeStats::bundles_carried,       &sos::mw::NodeStats::deliveries,
    &sos::mw::NodeStats::transfers_interrupted, &sos::mw::NodeStats::published,
    &sos::mw::NodeStats::reboots,
};

/// a += b, field by field.
void add_stats(sos::mw::NodeStats& a, const sos::mw::NodeStats& b);

/// Order-independent 64-bit digest of a run's outputs. Scalars are mixed in
/// sequence; records (deliveries) are hashed individually and summed, so
/// engines that merge per-task records in a different order still agree.
class Fingerprint {
 public:
  void add(std::uint64_t v);
  void add_record(std::uint64_t record_hash) { records_ += record_hash; }
  void add_stats(const sos::mw::NodeStats& s);
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
  std::uint64_t records_ = 0;
};

/// Fingerprint of a trace-replay result: contacts, wire frames/bytes,
/// connection and loss counters, every delivery record, and every
/// NodeStats total.
std::string fingerprint(const sos::deploy::ScenarioResult& r);

/// FNV-1a over raw bytes (record hashing).
std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h = 0xcbf29ce484222325ULL);

double median(std::vector<double> v);
/// Nearest-rank percentile, p in [0, 100].
double percentile(std::vector<double> v, double p);

/// Peak resident set of this process so far, in MB.
double peak_rss_mb();
/// Current resident set of this process, in MB.
double rss_mb();
/// User + system CPU time of this process so far, in seconds.
double process_cpu_s();

}  // namespace perfbench
