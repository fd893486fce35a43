// Experiment harness: the one place that knows how to run
// (workload x configuration) pairs and derive the metrics each paper
// figure reports.  Used by every bench binary and by the integration tests.
#pragma once

#include <cstdint>
#include <string>

#include "common/config.hh"
#include "core/system.hh"
#include "workload/spec.hh"

namespace allarm::core {

/// Runs `spec` once on a fresh System with the given directory mode.
RunResult run_single(SystemConfig config, DirectoryMode mode,
                     const workload::WorkloadSpec& spec, std::uint64_t seed,
                     numa::AllocPolicy policy = numa::AllocPolicy::kFirstTouch);

/// Baseline + ALLARM runs of the same workload and seed.
struct PairResult {
  RunResult baseline;
  RunResult allarm;

  /// allarm/baseline ratio of a named statistic (1.0 when undefined).
  double normalized(const std::string& stat) const {
    return allarm.stats.normalized_to(baseline.stats, stat);
  }
  /// Baseline runtime / ALLARM runtime (the paper's speedup).
  double speedup() const {
    return allarm.runtime == 0
               ? 1.0
               : static_cast<double>(baseline.runtime) /
                     static_cast<double>(allarm.runtime);
  }
};

PairResult run_pair(const SystemConfig& config,
                    const workload::WorkloadSpec& spec, std::uint64_t seed);

/// Self-contained description of one simulation run: everything a worker
/// thread needs to execute the run with no shared state.  This is the unit
/// the sweep runner (src/runner/) schedules.
struct RunRequest {
  SystemConfig config;
  DirectoryMode mode = DirectoryMode::kBaseline;
  workload::WorkloadSpec spec;
  std::uint64_t seed = 1;
  numa::AllocPolicy policy = numa::AllocPolicy::kFirstTouch;
  /// When non-empty, the run's executed access stream (plus workload
  /// metadata and setup placements) is captured to this .altr trace file.
  /// Pure side effect: results are unchanged (see docs/TRACES.md).
  std::string capture_trace;
  /// When non-empty, the run replays this .altr trace instead of building
  /// `spec`'s generators, and the results are byte-identical to the
  /// captured run.  The trace's recorded seed/mode/policy must match this
  /// request (enforced; a mismatch would silently label the captured
  /// stream's results with a different identity).  Divergent-scenario
  /// replay goes through trace::make_replay_workload directly.
  std::string replay_trace;
  /// Records latency histograms into RunResult::profile (RunOptions::
  /// profile).  Observability side channel: never folded into sweep
  /// identity, and the default stats are byte-identical either way.
  bool profile = false;
};

/// Runs `request` on a fresh System.  Thread-safe: concurrent calls never
/// share simulator state.  `deadline_ns` (0 = none) arms the simulator's
/// no-progress watchdog (RunOptions::deadline_ns): a run exceeding the
/// wall-clock budget throws std::runtime_error with a structured
/// diagnostic instead of hanging its caller.  A parameter rather than a
/// RunRequest field so the sweep runner's retry loop re-submits the same
/// request object untouched.
RunResult run_request(const RunRequest& request, std::uint64_t deadline_ns = 0);

/// Number of accesses per thread used by the figure benches.  Reads the
/// ALLARM_BENCH_ACCESSES environment variable; when it is unset, empty or
/// 0, returns `fallback`.  A value that is not a plain decimal number (say
/// "20k") throws std::invalid_argument naming the variable.
std::uint64_t bench_accesses(std::uint64_t fallback);

/// Worker-thread count for sweeps and the ported benches.  Reads the
/// ALLARM_JOBS environment variable (at most 4096); when it is unset, empty
/// or 0, returns `fallback`, or std::thread::hardware_concurrency() (at
/// least 1) when `fallback` is 0.  A malformed or larger value throws
/// std::invalid_argument naming the variable.
std::uint32_t bench_jobs(std::uint32_t fallback = 0);

/// Parses ALLARM_BENCH_ACCESSES and ALLARM_JOBS once, throwing as the two
/// readers above do.  Every CLI that reads them calls this while parsing
/// its flags, so a malformed value is a usage error (exit 2) before any
/// work starts, never a silent default halfway through a run.
void check_bench_env();

}  // namespace allarm::core
