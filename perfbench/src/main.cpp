// perfbench: runs one benchmark workload and prints its result as one JSON
// object on stdout (run.py wraps this binary; see perfbench/README.md).
//
//   perfbench --workload hotspot-100n --seed 42 --trace 0
//             [--world K] [--tiny] [--spans-out FILE]
//
// The replay engine gets one worker per CPU this process may run on.
//
// Exit status: 0 = ran (the JSON says whether its outputs were correct),
// 2 = usage error or a workload that threw.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void print_result(const perfbench::RunSpec& spec, const perfbench::RunOutput& out) {
  std::printf("{\"workload\":%s,\"seed\":%llu,\"world\":%zu,\"worlds\":%zu,"
              "\"repeat_for_budget\":%s,\"trace\":%d,\"workers\":%zu,",
              json_string(spec.workload).c_str(), static_cast<unsigned long long>(spec.seed),
              spec.world, out.worlds, out.repeat_for_budget ? "true" : "false", spec.trace ? 1 : 0,
              spec.workers);
  std::printf("\"attempted\":%llu,\"failed\":%llu,\"inputs\":%s,\"fingerprint\":%s,"
              "\"failures\":[",
              static_cast<unsigned long long>(out.outcome.attempted),
              static_cast<unsigned long long>(out.outcome.failed),
              json_string(out.inputs).c_str(), json_string(out.fingerprint).c_str());
  for (std::size_t i = 0; i < out.outcome.failures.size(); ++i) {
    std::printf("%s%s", i ? "," : "", json_string(out.outcome.failures[i]).c_str());
  }
  std::printf("],\"metrics\":{");
  bool first = true;
  for (const auto& [name, m] : out.metrics.all()) {
    std::printf("%s%s:{\"value\":%.17g,\"unit\":%s,\"samples\":%zu}", first ? "" : ",",
                json_string(name).c_str(), m.value, json_string(m.unit).c_str(), m.samples);
    first = false;
  }
  std::printf("}}\n");
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload NAME --seed N --trace 0|1\n"
               "                 [--world K] [--tiny] [--spans-out FILE]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunSpec spec;
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  if (sched_getaffinity(0, sizeof(cpus), &cpus) == 0) {
    spec.workers = static_cast<std::size_t>(CPU_COUNT(&cpus));
  }
  std::string spans_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tiny") {
      spec.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      spec.workload = v;
    } else if (arg == "--seed") {
      spec.seed = std::strtoull(v, &end, 10);
    } else if (arg == "--world") {
      spec.world = static_cast<std::size_t>(std::strtoull(v, &end, 10));
    } else if (arg == "--trace") {
      spec.trace = std::strcmp(v, "1") == 0;
      if (!spec.trace && std::strcmp(v, "0") != 0) return usage("--trace takes 0 or 1");
    } else if (arg == "--spans-out") {
      spans_out = v;
    } else {
      return usage(("unknown option " + arg).c_str());
    }
    if (end != nullptr && *end != '\0') return usage(("bad number for " + arg).c_str());
  }
  if (spec.workload.empty()) return usage("--workload is required");

  perfbench::RunOutput out(spec);
  // The process's own footprint before the workload allocates anything.
  out.metrics.set("base_rss_mb", perfbench::rss_mb(), "MB");
  try {
    perfbench::run_workload(spec, out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  if (spec.trace && !spans_out.empty() && !out.tracer.write_json(spans_out)) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n", spans_out.c_str());
    return 2;
  }
  print_result(spec, out);
  return 0;
}
