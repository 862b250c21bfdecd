// perfbench_load: runs one benchmark workload and prints its metrics.
//
//   perfbench_load --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Untraced runs repeat whole rounds (stand up, warm up, measure, drain,
// check, tear down) until `--seconds` have passed, at least two, and
// print the end-to-end metrics. A traced run makes one round, times calls into the
// layers, and prints the per-layer metrics. The last line of standard
// output is one JSON object: correct, attempted, failed, metrics.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <new>
#include <string>
#include <vector>

#include "timing.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Clock;
using perfbench::seconds_since;

// Run length is measured from here: static initialisation runs as the
// process starts, before main.
const Clock::time_point g_process_start = Clock::now();

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_alloc_calls{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

void* counted_alloc(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
    g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  }
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

bool set_alloc_counting(bool on) {
  return g_counting.exchange(on, std::memory_order_relaxed);
}

AllocCounts alloc_counts() {
  return {g_alloc_calls.load(std::memory_order_relaxed),
          g_alloc_bytes.load(std::memory_order_relaxed)};
}

}  // namespace perfbench

namespace {

using perfbench::RoundResult;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_load: %s\nusage: perfbench_load --workload "
               "<layered_sessions|sharded_objects|membership_churn> --seed "
               "<n> --seconds <s> --trace <0|1>\n",
               why);
  std::exit(2);
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t round) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + round + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string unit_of(const std::string& name) {
  const auto ends = [&](const char* suffix) {
    const std::string s(suffix);
    return name.size() >= s.size() &&
           name.compare(name.size() - s.size(), s.size(), s) == 0;
  };
  if (ends("_ns") || ends("_ns_per_event")) return "ns";
  if (ends("us_per_op") || ends("us_per_object")) return "us";
  if (ends("bytes_per_op")) return "B/op";
  if (ends("_per_op")) return "1/op";
  if (ends("_per_write")) return "1/write";
  if (ends("ops_per_s")) return "ops/s";
  if (ends("_mean")) return "entries";
  if (ends("bytes_retained")) return "B";
  return "count";
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  bool first = true;
  for (const auto& m : metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out += std::string(first ? "" : ", ") + "\"" + m.name +
           "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  long long seed = -1;
  double seconds = -1;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    try {
      if (key == "--workload") {
        workload_name = val;
      } else if (key == "--seed") {
        seed = std::stoll(val);
      } else if (key == "--seconds") {
        seconds = std::stod(val);
      } else if (key == "--trace") {
        trace = std::stoi(val);
      } else {
        usage(("unknown argument " + key).c_str());
      }
    } catch (const std::exception&) {
      usage(("bad value for " + key).c_str());
    }
  }
  if (argc % 2 == 0) usage("arguments come in --key value pairs");
  perfbench::Workload workload{};
  if (!perfbench::parse_workload(workload_name, &workload)) {
    usage(("unknown workload '" + workload_name + "'").c_str());
  }
  if (seed < 0 || seconds <= 0 || (trace != 0 && trace != 1)) {
    usage("--seed, --seconds and --trace are required");
  }
  const bool traced = trace == 1;

  std::vector<RoundResult> rounds;
  double setup_s = 0;
  try {
    do {
      rounds.push_back(perfbench::run_round(
          workload, mix(static_cast<std::uint64_t>(seed), rounds.size()),
          traced));
      if (rounds.size() == 1) {
        // Cold set-up: the CPU time the process spent from its start to
        // the end of the first round's warm-up. The process is one thread
        // and set-up waits on nothing, so this is its wall time less the
        // time the host ran something else.
        setup_s = rounds.front().setup_end_cpu_s;
      }
    } while (!traced &&
             (rounds.size() < 2 || seconds_since(g_process_start) < seconds));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_load: %s\n", e.what());
    return 1;
  }

  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
  globe::metrics::Histogram reads;
  globe::metrics::Histogram writes;
  globe::metrics::Histogram visible;
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    const RoundResult& rr = rounds[r];
    attempted += rr.attempted;
    failed += rr.failed;
    msgs += rr.net_msgs;
    bytes += rr.net_bytes;
    reads.merge(rr.read_ms);
    writes.merge(rr.write_ms);
    visible.merge(rr.visible_ms);
    // Wall-clock throughput is shown here, not in the result: on a shared
    // host it drifts too far between identical runs to be bounded (see
    // README.md). Traced runs report it as traced.ops_per_s.
    std::fprintf(stderr, "round %zu: set-up %.3f s, %.1f ops/s\n", r,
                 rr.setup_s, static_cast<double>(rr.attempted) / rr.op_wall_s);
    for (const auto& f : rr.failure_samples) {
      std::fprintf(stderr, "round %zu: failed operation: %s\n", r, f.c_str());
    }
    if (!rr.report.ok()) {
      correct = false;
      std::fprintf(stderr, "round %zu: %zu failed checks\n", r,
                   rr.report.failures());
      for (const auto& m : rr.report.messages()) {
        std::fprintf(stderr, "  %s\n", m.c_str());
      }
    }
  }
  rusage usage_now{};
  getrusage(RUSAGE_SELF, &usage_now);
  const double peak_rss_mb = static_cast<double>(usage_now.ru_maxrss) / 1024.0;
  std::fprintf(stderr,
               "%s: %zu round(s), %llu ops, %zu reads, %zu writes, %.2f s\n",
               workload_name.c_str(), rounds.size(),
               static_cast<unsigned long long>(attempted), reads.count(),
               writes.count(), seconds_since(g_process_start));

  std::vector<Metric> metrics;
  if (traced) {
    for (const auto& [name, value] : rounds.front().layers) {
      metrics.push_back({name, value, unit_of(name)});
    }
  } else {
    const auto ops = static_cast<double>(attempted);
    metrics = {
        {"setup_s", setup_s, "s"},
        {"read_p50_ms", reads.percentile(50), "ms"},
        {"read_p99_ms", reads.percentile(99), "ms"},
        {"write_p50_ms", writes.percentile(50), "ms"},
        {"write_p99_ms", writes.percentile(99), "ms"},
        {"visible_p50_ms", visible.percentile(50), "ms"},
        {"visible_p99_ms", visible.percentile(99), "ms"},
        {"msgs_per_op", static_cast<double>(msgs) / ops, "msgs/op"},
        {"bytes_per_op", static_cast<double>(bytes) / ops, "B/op"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
  }
  print_result(correct, attempted, failed, metrics);
  return 0;
}
