// Canonical run digest for execution-mode equivalence checks: a single hash
// over everything the simulation's observable history contains — scheduling
// intervals, the analyzer event stream, and per-rank completion times — in
// the canonical (t, node, per-node sequence) order. The classic single-queue
// engine, `--parallel=1`, and `--parallel=N` must all produce the same
// digest for the same configuration; pasched-audit's equivalence leg and
// the parallel-equivalence property test enforce this.
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <string>

#include "core/simulation.hpp"

namespace pasched::core {

/// FNV-1a, folded 8 bytes at a time — the one run-digest hasher (the
/// canonical digest here and pasched-audit's repro digest).
class Hasher {
 public:
  void mix(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffU;
      h_ *= 0x100000001b3ULL;
    }
  }
  void mix_int(std::int64_t v) noexcept {
    mix(static_cast<std::uint64_t>(v));
  }
  void mix_double(double v) noexcept {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    mix(bits);
  }
  void mix_str(const std::string& s) noexcept {
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001b3ULL;
    }
    mix(s.size());
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

struct CanonicalDigest {
  /// FNV-1a over the truncated canonical history (see run_canonical).
  std::uint64_t hash = 0;
  bool completed = false;
  sim::Duration elapsed = sim::Duration::zero();
  /// Total events fired (informational — NOT part of the hash: partitioned
  /// runs drain their final lookahead window past the completion event, so
  /// raw event counts legitimately differ across modes).
  std::uint64_t events = 0;
  /// Global synchronizations the partitioned executor paid (0 in classic
  /// mode; informational, like `events`).
  std::uint64_t sync_rounds = 0;
};

/// Runs `cfg` to completion with a cluster-wide tracer + event log attached
/// and digests the observable history. The history is truncated at the job's
/// completion time T_c (strictly: interval end < T_c, event t < T_c): after
/// the last rank finishes, the classic engine stops immediately while a
/// partitioned run completes its synchronization window, so post-completion
/// daemon activity exists only in the latter and is not part of the
/// equivalence claim.
[[nodiscard]] CanonicalDigest run_canonical(const SimulationConfig& cfg,
                                            const mpi::WorkloadFactory& factory);

/// Instrumented overload: `prepare` runs after the tracer is attached but
/// before the run, with the fully built Simulation — the race auditor uses
/// it to install its seam monitor, window-perturbation source, and planted
/// faults.
/// An empty function behaves exactly like the plain overload.
[[nodiscard]] CanonicalDigest run_canonical(
    const SimulationConfig& cfg, const mpi::WorkloadFactory& factory,
    const std::function<void(Simulation&)>& prepare);

}  // namespace pasched::core
