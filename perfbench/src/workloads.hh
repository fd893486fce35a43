// The benchmark's three workloads.  Each is a closed batch: one call to
// run_batch() submits the workload's whole fixed amount of simulation at
// once and returns when every simulation has finished.  main.cc repeats
// batches for the measurement window, so every batch of one run must
// produce the same report digest.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.hh"

namespace allarm::perfbench {

/// Inputs every workload is built from.
struct Knobs {
  std::uint64_t seed = 1;
  /// ROI accesses per simulated thread; 0 = the workload's default.
  std::uint64_t accesses = 0;
  std::uint32_t workers = 1;  ///< Sweep pool size (runner workloads).
  std::string work_dir;       ///< Scratch for journals, reports, traces.
  /// Self-test hook: "trace" corrupts one captured trace after set-up so
  /// the replay checks must fail.  Empty in measured runs.
  std::string tamper;
};

/// One simulation's host cost.
struct SimSample {
  double host_ns = 0.0;  ///< RunResult::wall_ns.
  double events = 0.0;   ///< sim.events.
  /// Which simulation of the batch (workload/config/mode, or ocean-solo's
  /// seed/mode): the same in every batch of a run.
  std::string label;
};

/// What one batch produced.
struct Batch {
  double wall_s = 0.0;
  /// FNV-1a/64 of the batch's report bytes (runner workloads) or of every
  /// run's statistics (ocean-solo).  Equal for every batch of a run.
  std::uint64_t digest = 0;
  std::uint64_t attempted = 0;  ///< Simulations submitted.
  /// Simulations that threw, were quarantined or failed a sanity check.
  std::uint64_t failed = 0;
  std::vector<SimSample> sims;  ///< Successful simulations only.
  StatSet totals;               ///< Sum of every successful run's stats.
  /// Runner side channel (left zero by ocean-solo, which has no runner).
  double sink_s = 0.0;          ///< Inside the benchmark's wrapping sink.
  std::uint64_t tasks_stolen = 0;
  std::uint64_t jobs_retried = 0;
  std::uint64_t peak_resident = 0;
  std::vector<std::string> problems;  ///< Failed correctness checks.
};

/// One set-up's cost.
struct SetupCost {
  double seconds = 0.0;   ///< Whole set-up.
  double build_s = 0.0;   ///< Inside workload::make_benchmark.
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the specs and workloads (region-replay also captures its
  /// traces).  Called setup_reps() times; setup_s is the median.
  virtual SetupCost setup() = 0;
  virtual std::uint32_t setup_reps() const = 0;

  /// Runs the fixed work once.  Never throws for a simulation failure:
  /// failures are counted in the returned batch.
  virtual Batch run_batch(std::uint32_t index) = 0;

  /// Checks that compare against something other than another batch
  /// (direct re-run of a grid cell, capture-vs-replay report bytes).
  virtual void check(const Batch& first,
                     std::vector<std::string>& problems) = 0;

  /// True when batches go through runner::SweepRunner::run_streaming.
  virtual bool uses_runner() const = 0;

  /// Stock profiles whose generators the workload's simulations use.
  virtual std::vector<std::string> profiles() const = 0;
  /// ROI accesses per thread of every simulation.
  virtual std::uint64_t accesses() const = 0;
  /// Accesses one batch issues (warm-up included), summed over its
  /// simulations.
  virtual double issued_per_batch() const = 0;
  /// Accesses one batch draws from synthetic generators (0 when traces
  /// replace them).
  virtual double generated_per_batch() const = 0;
  /// Captured trace files one batch replays (empty when none).
  virtual std::vector<std::string> trace_files() const { return {}; }
};

/// Names accepted by make_workload, in run order.
const std::vector<std::string>& workload_names();

/// Throws std::invalid_argument for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Knobs& knobs);

}  // namespace allarm::perfbench
