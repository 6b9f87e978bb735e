// The traced run: per-layer counts read from the layers' public counters and
// observer hooks, per-layer unit costs timed by calling each layer's public
// functions in isolation, and spans around every call into the program,
// kept in memory and written out as Chrome trace-event JSON.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "timing.hpp"
#include "workloads.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// In-memory span recorder. Spans are timed with steady_clock relative to
/// the recorder's construction and written once, at the end.
class Spans {
 public:
  /// Records [t0, t1) under `name`; `detail` lands in the span's args.
  void add(const std::string& name, const std::string& detail,
           Clock::time_point t0, Clock::time_point t1);
  /// Writes {"traceEvents": [...]} (open in chrome://tracing or Perfetto).
  /// Returns false if the file could not be written.
  bool write_chrome_json(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::string detail;
    double ts_us;
    double dur_us;
  };
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// What the untraced timing loop measured, which the traced run compares
/// itself against.
struct Untraced {
  double wall_s = 0;  ///< median whole-workload host seconds
  double run_s = 0;   ///< median host seconds inside Simulation::run()
};

struct Traced {
  std::vector<Metric> metrics;
  /// One outcome per point of the workload, from the traced pass; their
  /// digests must equal the untraced ones.
  std::vector<Outcome> outcomes;
  /// fig5_sharded only: the outcome of multi_worker_of_sharded(), which must
  /// carry the same digest.
  std::vector<Outcome> multi_worker;
};

/// One traced pass over every point of `w`, then the isolation runs.
[[nodiscard]] Traced traced_run(Workload w, std::uint64_t seed,
                                const Untraced& untraced, Spans& spans);

}  // namespace perfbench
