// Shared CLI helpers for the chrono-only throughput benches
// (bench_kernel_throughput, bench_generator_throughput, bench_trace_replay,
// bench_ablation_region).  Deliberately free of the google-benchmark
// dependency bench_util.hh carries: these binaries must always build so
// CI's perf-smoke steps can run them.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "runner/report.hh"

namespace allarm::bench {

/// Writes `content` to `path` (fsynced, like every report).  An unwritable
/// path — a missing directory, a read-only file, a device that rejects
/// fsync — prints "<bench>: cannot write <path>: <reason>" and exits 1
/// instead of escaping main as an uncaught exception.
inline void write_output(const char* bench, const std::string& path,
                         const std::string& content) {
  try {
    runner::write_file(path, content);
  } catch (const std::exception& e) {
    // fileio errors already lead with the path; say it once.
    std::string reason = e.what();
    if (reason.compare(0, path.size() + 2, path + ": ") == 0) {
      reason.erase(0, path.size() + 2);
    }
    std::cerr << bench << ": cannot write " << path << ": " << reason << "\n";
    std::exit(1);
  }
}

/// True when `name` appears in the comma-separated `only` list (an empty
/// list selects everything).
inline bool selected(const std::string& only, const std::string& name) {
  if (only.empty()) return true;
  std::size_t pos = 0;
  while (pos <= only.size()) {
    const std::size_t comma = only.find(',', pos);
    const std::size_t end = comma == std::string::npos ? only.size() : comma;
    if (only.compare(pos, end - pos, name) == 0) return true;
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return false;
}

/// Provenance block stamped into every BENCH_*.json, emitted right after
/// schema_version: git revision and build type (compile definitions from
/// CMake; "unknown" when built outside the tree) plus the host core count.
/// check_bench.py ignores unknown top-level keys, so trajectories written
/// before this block compare cleanly against ones written after.
inline std::string meta_json() {
#if defined(ALLARM_GIT_DESCRIBE)
  const char* git = ALLARM_GIT_DESCRIBE;
#else
  const char* git = "unknown";
#endif
#if defined(ALLARM_BUILD_TYPE)
  const char* build = ALLARM_BUILD_TYPE;
#else
  const char* build = "unknown";
#endif
  return std::string("  \"meta\": {\"git\": \"") + git + "\", \"build_type\": \"" +
         build + "\", \"cores\": " +
         std::to_string(std::thread::hardware_concurrency()) + "},\n";
}

}  // namespace allarm::bench
