// Wall-clock helper shared by the benchmark's sources.
#pragma once

#include <chrono>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace perfbench
