#include "core/experiment.hh"

#include <chrono>
#include <cstdlib>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include "obs/timeline.hh"
#include "trace/replay.hh"
#include "trace/writer.hh"

namespace allarm::core {

RunResult run_single(SystemConfig config, DirectoryMode mode,
                     const workload::WorkloadSpec& spec, std::uint64_t seed,
                     numa::AllocPolicy policy) {
  config.directory_mode = mode;
  System system(config, policy);
  RunOptions options;
  options.seed = seed;
  return system.run(spec, options);
}

PairResult run_pair(const SystemConfig& config,
                    const workload::WorkloadSpec& spec, std::uint64_t seed) {
  PairResult result;
  result.baseline = run_single(config, DirectoryMode::kBaseline, spec, seed);
  result.allarm = run_single(config, DirectoryMode::kAllarm, spec, seed);
  return result;
}

RunResult run_request(const RunRequest& request, std::uint64_t deadline_ns) {
  const auto t0 = std::chrono::steady_clock::now();

  SystemConfig config = request.config;
  config.directory_mode = request.mode;
  // Trace replay substitutes the whole workload (threads, generators,
  // setup); the request's spec still names the grid cell in reports.
  // The request's identity must match the capture run's — replaying a
  // seed-42 stream under a seed-43 label would produce a chimera report
  // that matches neither run, silently.  Divergent-scenario replay
  // (other mode/policy/cores) goes through `sweep --grid trace` or
  // `trace replay`, which label cells by the trace, not a synthetic grid.
  workload::WorkloadSpec replay_spec;
  const workload::WorkloadSpec* spec = &request.spec;
  if (!request.replay_trace.empty()) {
    const auto reader =
        std::make_shared<const trace::TraceReader>(request.replay_trace);
    const trace::TraceMeta& meta = reader->meta();
    const auto mismatch = [&](const char* what, std::uint64_t got,
                              std::uint64_t want) {
      throw std::runtime_error(
          "trace " + request.replay_trace + " was captured with " + what +
          " " + std::to_string(got) + " but this job runs with " +
          std::to_string(want) +
          " — refusing to splice mismatched results into the report "
          "(replay divergent scenarios via sweep --grid trace or the "
          "trace CLI)");
    };
    if (meta.seed != request.seed) mismatch("seed", meta.seed, request.seed);
    if (meta.directory_mode !=
        static_cast<std::uint32_t>(config.directory_mode)) {
      mismatch("directory mode", meta.directory_mode,
               static_cast<std::uint32_t>(config.directory_mode));
    }
    if (meta.alloc_policy != static_cast<std::uint32_t>(request.policy)) {
      mismatch("allocation policy", meta.alloc_policy,
               static_cast<std::uint32_t>(request.policy));
    }
    replay_spec = trace::make_replay_workload(reader, config);
    spec = &replay_spec;
  }

  std::optional<trace::TraceWriter> writer;
  RunOptions options;
  options.seed = request.seed;
  options.deadline_ns = deadline_ns;
  options.profile = request.profile;
  if (!request.capture_trace.empty()) {
    writer.emplace(request.capture_trace);
    options.capture = &*writer;
  }

  RunResult result;
  {
    OBS_SPAN("sim.run", "sim");
    System system(config, request.policy);
    result = system.run(*spec, options);
  }
  if (writer) writer->finish();

  result.wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  return result;
}

std::uint64_t bench_accesses(std::uint64_t fallback) {
  if (const char* env = std::getenv("ALLARM_BENCH_ACCESSES")) {
    const std::uint64_t v = std::strtoull(env, nullptr, 10);
    if (v > 0) return v;
  }
  return fallback;
}

std::uint32_t bench_jobs(std::uint32_t fallback) {
  if (const char* env = std::getenv("ALLARM_JOBS")) {
    const std::uint64_t v = std::strtoull(env, nullptr, 10);
    if (v > 0 && v <= 4096) return static_cast<std::uint32_t>(v);
  }
  if (fallback > 0) return fallback;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

}  // namespace allarm::core
