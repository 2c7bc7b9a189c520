#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "deploy/scenario.hpp"

namespace perfbench {

void Metrics::set(const std::string& name, double value, const std::string& unit,
                  std::size_t samples) {
  if (!metrics_.emplace(name, Metric{value, unit, samples}).second) {
    throw std::logic_error("metric emitted twice: " + name);
  }
}

void Outcome::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    failures.push_back(what);
  }
}

std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

void Fingerprint::add(std::uint64_t v) { h_ = fnv1a(&v, sizeof(v), h_); }

void Fingerprint::add_stats(const sos::mw::NodeStats& s) {
  for (auto field : kStatsFields) add(s.*field);
}

void add_stats(sos::mw::NodeStats& a, const sos::mw::NodeStats& b) {
  for (auto field : kStatsFields) a.*field += b.*field;
}

std::string Fingerprint::hex() const {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx", static_cast<unsigned long long>(h_),
                static_cast<unsigned long long>(records_));
  return buf;
}

std::string fingerprint(const sos::deploy::ScenarioResult& r) {
  Fingerprint fp;
  for (std::uint64_t v : {r.contacts, r.wire_frames, r.wire_bytes, r.connections,
                          r.connections_failed, r.frames_lost, r.frames_dropped_fault}) {
    fp.add(v);
  }
  fp.add(r.oracle.post_count());
  fp.add(r.oracle.delivery_count());
  fp.add(r.oracle.carry_count());
  for (const sos::deploy::DeliveryRecord& d : r.oracle.deliveries()) {
    std::uint64_t h = fnv1a(d.id.origin.bytes.data(), d.id.origin.bytes.size());
    h = fnv1a(&d.id.msg_num, sizeof(d.id.msg_num), h);
    h = fnv1a(d.subscriber.bytes.data(), d.subscriber.bytes.size(), h);
    h = fnv1a(&d.at, sizeof(d.at), h);
    h = fnv1a(&d.hops, sizeof(d.hops), h);
    fp.add_record(h);
  }
  fp.add_stats(r.totals);
  return fp.hex();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

namespace {

/// A "<field>: <n> kB" line of /proc/self/status, in MB.
double status_mb(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  const std::string pattern = std::string(field) + ": %lf kB";
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, pattern.c_str(), &kib) == 1) break;
  }
  std::fclose(f);
  return kib * 1024.0 / 1e6;
}

}  // namespace

// VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across exec, so a
// process started from a larger parent would report the parent's peak.
double peak_rss_mb() { return status_mb("VmHWM"); }

double rss_mb() { return status_mb("VmRSS"); }

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto s = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

}  // namespace perfbench
