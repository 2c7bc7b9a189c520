#include "spans.hpp"

#include <cstdio>

namespace perfbench {

std::int32_t Tracer::open(Layer layer, const char* name) {
  Span s;
  s.name = name;
  s.layer = layer;
  s.start_s = seconds_since(origin_);
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.run = run_;
  spans_.push_back(s);
  const auto index = static_cast<std::int32_t>(spans_.size() - 1);
  stack_.push_back(index);
  return index;
}

void Tracer::close(std::int32_t index) {
  spans_[static_cast<std::size_t>(index)].end_s = seconds_since(origin_);
  stack_.pop_back();
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(s.end_s - s.start_s);
  }
  return out;
}

std::array<double, kLayerNames.size()> Tracer::self_time_by_layer() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].end_s - spans_[i].start_s;
  for (const Span& s : spans_) {
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.end_s - s.start_s;
  }
  std::array<double, kLayerNames.size()> by_layer{};
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    by_layer[static_cast<std::size_t>(spans_[i].layer)] += self[i];
  }
  return by_layer;
}

bool Tracer::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"layer\":\"%s\",\"start_s\":%.9f,\"end_s\":%.9f,"
                 "\"parent\":%d,\"run\":%llu}%s\n",
                 i, s.name, kLayerNames[static_cast<std::size_t>(s.layer)], s.start_s, s.end_s,
                 s.parent, static_cast<unsigned long long>(s.run),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
