// In-memory span recorder for the benchmark's traced run.
//
// A span wraps one call the benchmark makes into a layer's public API
// (record_world, run_scenario, ReplaySession::advance_to, App::post, ...):
// name, layer, start, end, the enclosing span, and the run id. Spans are
// recorded only from the benchmark's own thread and only when tracing is on;
// with tracing off a Scope is a null pointer test and nothing is stored.
// The recorder is written out once, when the run ends.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class Layer : std::uint8_t { Bench, Sim, Crypto, Pki, Mw, Bundle, Alleyoop, Deploy, Soak };
inline constexpr std::array<const char*, 9> kLayerNames = {
    "bench", "sim", "crypto", "pki", "mw", "bundle", "alleyoop", "deploy", "soak"};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Span {
  const char* name = "";
  Layer layer = Layer::Bench;
  double start_s = 0;  // since the recorder was created
  double end_s = 0;
  std::int32_t parent = -1;  // index of the enclosing span, -1 for a root
  std::uint64_t run = 0;
};

class Tracer {
 public:
  Tracer(bool enabled, std::uint64_t run_id) : enabled_(enabled), run_(run_id) {}

  /// RAII span: opened on construction, closed on destruction.
  class Scope {
   public:
    Scope(Tracer* t, Layer layer, const char* name) : t_(t) {
      if (t_ != nullptr) index_ = t_->open(layer, name);
    }
    ~Scope() {
      if (t_ != nullptr) t_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    std::int32_t index_ = -1;
  };

  /// Open a span when tracing is on (a no-op scope otherwise).
  Scope span(Layer layer, const char* name) { return Scope(enabled_ ? this : nullptr, layer, name); }

  const std::vector<Span>& spans() const { return spans_; }

  /// Durations of every span called `name`, in recording order.
  std::vector<double> durations(const std::string& name) const;
  /// Per-layer self time: each span's duration minus the part covered by
  /// its direct children, summed by layer.
  std::array<double, kLayerNames.size()> self_time_by_layer() const;

  /// Write every span as one JSON array; false on I/O failure.
  bool write_json(const std::string& path) const;

 private:
  std::int32_t open(Layer layer, const char* name);
  void close(std::int32_t index);

  bool enabled_;
  std::uint64_t run_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;  // open spans, innermost last
};

}  // namespace perfbench
