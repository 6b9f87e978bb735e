// The benchmark's workloads: the paper's own runs, expressed as a list of
// simulation points built from the benchmark seed. Each point is one
// core::Simulation (construct, then run to completion); a workload runs its
// points one after another in one process.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/simulation.hpp"
#include "mpi/workload.hpp"

namespace perfbench {

enum class Workload { Fig5Cosched, Ale3dIo, Fig5Sharded };

/// Parses a workload name ("fig5_cosched", "ale3d_io", "fig5_sharded").
[[nodiscard]] std::optional<Workload> parse_workload(const std::string& name);

/// Which simulated outputs a point's digest covers.
enum class Outputs { Allreduce, Ale3d };

struct Point {
  std::string name;
  pasched::core::SimulationConfig cfg;
  pasched::mpi::WorkloadFactory factory;
  Outputs outputs = Outputs::Allreduce;
};

/// The points of `w`, with per-point seeds derived from `seed`. The program
/// receives only these generated configurations.
[[nodiscard]] std::vector<Point> make_points(Workload w, std::uint64_t seed);

/// The classic-engine twin of fig5_sharded's single point: the 944-proc
/// fig5_cosched point for the same seed. Their digests must be equal.
[[nodiscard]] Point classic_twin_of_sharded(std::uint64_t seed);

/// fig5_sharded's point on several workers, which only the traced run
/// times. Its digest must equal the one-worker point's.
[[nodiscard]] Point multi_worker_of_sharded(std::uint64_t seed);

/// Most worker threads a run of the workload uses at once (1 for the classic
/// engine and for fig5_sharded's timed repetitions).
[[nodiscard]] int workers_of(Workload w, bool traced);

/// Nodes of the workload's largest point: the size at which the isolation
/// runs measure the unit costs that explain it.
[[nodiscard]] int nodes_of(Workload w);

/// Kernel tunables of the workload's kernel-heaviest leg.
[[nodiscard]] pasched::kern::Tunables kernel_of(Workload w);

/// What one finished point produced.
struct Outcome {
  bool completed = false;
  std::uint64_t events_at_completion = 0;
  /// FNV-1a over every simulated output the point reports (see collect()).
  std::uint64_t digest = 0;
};

/// Reads the simulated outputs of a finished point into an Outcome.
/// `res` is what Simulation::run() returned, or the traced pass's
/// reconstruction of it.
[[nodiscard]] Outcome collect(pasched::core::Simulation& sim,
                              const pasched::core::SimulationResult& res,
                              Outputs outputs);

/// One timed pass over a list of points.
struct Rep {
  double wall_s = 0;   ///< every point: construct, run, collect, tear down
  double setup_s = 0;  ///< Simulation construction, summed over points
  double run_s = 0;    ///< Simulation::run(), summed over points
  std::uint64_t events = 0;
  std::vector<Outcome> outcomes;
};

/// Constructs, runs, collects and destroys each point in turn, timing it.
[[nodiscard]] Rep run_rep(const std::vector<Point>& points);

}  // namespace perfbench
