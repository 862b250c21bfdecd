// The benchmark's three deployments on the simulated WAN, driven from one
// thread. A round stands a deployment up, issues its operations on a
// fixed simulated schedule, drains, checks the outcome and tears down.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "checks.hpp"
#include "globe/metrics/histogram.hpp"

namespace perfbench {

enum class Workload { kLayeredSessions, kShardedObjects, kMembershipChurn };

/// Parses a workload name; false for an unknown one.
bool parse_workload(const std::string& name, Workload* out);

/// Everything one round measured.
struct RoundResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t writes = 0;
  double setup_s = 0;  // stand-up, seed, bind, warm-up (wall)
  /// Process CPU time (since the process started) when the warm-up ended.
  double setup_end_cpu_s = 0;
  double op_wall_s = 0;  // first issue -> every reply in, simulator drained
  globe::metrics::Histogram read_ms;
  globe::metrics::Histogram write_ms;
  globe::metrics::Histogram visible_ms;
  std::uint64_t net_msgs = 0;   // sim::Network sends in the measured phase
  std::uint64_t net_bytes = 0;
  Report report;  // correctness: every failed check lands here
  std::vector<std::string> failure_samples;  // first failed operations
  /// Per-layer figures (traced rounds only), by metric name.
  std::map<std::string, double> layers;
};

/// Runs one round. `round_seed` fixes every input of the round. A traced
/// round times calls into the layers, polls replica clocks, and fills
/// `layers`.
RoundResult run_round(Workload w, std::uint64_t round_seed, bool traced);

/// Allocation counters kept by perfbench_load's operator new.
struct AllocCounts {
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
};
/// Switches counting on or off; returns whether it was on.
bool set_alloc_counting(bool on);
AllocCounts alloc_counts();

/// Keeps the benchmark's own bookkeeping out of the allocation counts for
/// its lifetime.
class Uncounted {
 public:
  Uncounted() : was_(set_alloc_counting(false)) {}
  ~Uncounted() { set_alloc_counting(was_); }
  Uncounted(const Uncounted&) = delete;
  Uncounted& operator=(const Uncounted&) = delete;

 private:
  bool was_;
};

}  // namespace perfbench
