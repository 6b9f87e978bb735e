// Host-time helpers shared by main.cpp and the traced run.
#pragma once

#include <algorithm>
#include <chrono>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Upper median (the middle element for odd sizes); 0 for no samples.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  return *mid;
}

}  // namespace perfbench
