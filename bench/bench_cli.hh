// The harness every bench/*.cc binary shares.
//
// The figure and table benches are plain mains that run their experiments
// and print the paper-style tables; they take no flags (ALLARM_BENCH_ACCESSES
// and ALLARM_JOBS set their budget).  The four chrono benches
// (bench_kernel_throughput, bench_generator_throughput, bench_trace_replay,
// bench_ablation_region) share one flag parser, one best-of-reps timer and
// one schema-1 BENCH_*.json writer (docs/PERF.md has the schema).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/parse.hh"
#include "common/stats.hh"
#include "core/experiment.hh"
#include "runner/grids.hh"
#include "runner/report.hh"
#include "runner/sink.hh"
#include "runner/sweep.hh"
#include "workload/profiles.hh"

namespace allarm::bench {

/// The figure and table benches take no arguments: any argument prints a
/// usage line and exits 2.
inline void no_args(int argc, char** argv) {
  if (argc <= 1) return;
  std::cerr << "usage: " << argv[0]
            << " (no arguments; set ALLARM_BENCH_ACCESSES and ALLARM_JOBS)\n";
  std::exit(2);
}

/// Runs the built-in sweep grid `name` on ALLARM_JOBS workers, keeping only
/// runs[0] of each cell (the figures read nothing else).
inline runner::SweepResult run_grid(const std::string& name) {
  const runner::SweepSpec spec = runner::make_builtin_grid(name, {});
  const runner::SweepRunner sweep_runner(core::bench_jobs());
  std::cerr << name << ": " << spec.job_count() << " simulations on "
            << sweep_runner.jobs() << " workers\n";
  runner::SweepResult out;
  runner::CollectSink sink(out, runner::CollectSink::Retain::kFirstRunOnly);
  sweep_runner.run_streaming(spec, sink);
  return out;
}

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

/// The chrono benches' flags.
struct Options {
  std::uint64_t accesses = 0;
  std::uint32_t reps = 3;
  std::string out;
  std::string only;
  std::string workload;  ///< Empty for benches without --workload.
};

/// Parses `--accesses N --reps N --out FILE --only LIST` over the bench's
/// defaults, plus `--workload NAME` when the bench has a default workload.
/// A malformed or zero number, an unknown workload, a missing value or an
/// unknown flag prints a message and exits 2; --help prints the usage line
/// and exits 0.
inline Options parse_options(const char* bench, int argc, char** argv,
                             std::uint64_t accesses, std::string out,
                             std::string workload = {}) {
  Options opt;
  opt.accesses = accesses;
  opt.out = std::move(out);
  opt.workload = std::move(workload);
  const auto usage = [&](int status) {
    std::cerr << "usage: " << bench << " [--accesses N] [--reps N]"
              << (opt.workload.empty() ? "" : " [--workload NAME]")
              << " [--only LIST] [--out FILE]\n";
    std::exit(status);
  };
  const auto at_least_1 = [](const std::string& flag, std::uint64_t value) {
    if (value == 0) throw std::invalid_argument(flag + ": must be at least 1");
    return value;
  };
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--help") usage(0);
      const bool known = arg == "--accesses" || arg == "--reps" ||
                         arg == "--out" || arg == "--only" ||
                         (arg == "--workload" && !opt.workload.empty());
      if (!known) usage(2);
      if (i + 1 >= argc) {
        std::cerr << bench << ": " << arg << " needs a value\n";
        std::exit(2);
      }
      const std::string value = argv[++i];
      if (arg == "--accesses") {
        opt.accesses = at_least_1(arg, parse_u64(arg, value));
      } else if (arg == "--reps") {
        opt.reps = static_cast<std::uint32_t>(
            at_least_1(arg, parse_u32(arg, value)));
      } else if (arg == "--out") {
        opt.out = value;
      } else if (arg == "--only") {
        opt.only = value;
      } else {
        opt.workload = value;
      }
    }
    if (!opt.workload.empty()) workload::benchmark_params(opt.workload);
  } catch (const std::logic_error& e) {  // invalid_argument, out_of_range.
    std::cerr << bench << ": " << e.what() << "\n";
    std::exit(2);
  }
  return opt;
}

/// Fastest wall time, in seconds, of `reps` calls of `body`.  `prepare`
/// runs untimed before each call.
template <typename Body, typename Prepare>
double best_of(std::uint32_t reps, Body&& body, Prepare&& prepare) {
  double best = 1e300;
  for (std::uint32_t rep = 0; rep < reps; ++rep) {
    prepare();
    const auto t0 = std::chrono::steady_clock::now();
    body();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

template <typename Body>
double best_of(std::uint32_t reps, Body&& body) {
  return best_of(reps, std::forward<Body>(body), [] {});
}

/// One measured workload: `events` done in `wall_seconds` (best of reps),
/// plus the sim::Event closures that overflowed the inline buffer across
/// all reps (0 for benches that do not run the event kernel).
struct Row {
  std::string name;
  std::uint64_t events = 0;
  double wall_seconds = 0.0;
  std::uint64_t heap_fallbacks = 0;
};

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

/// Prints `title` and the rows as a text table, then writes them to
/// `opt.out` as the schema-1 report of bench kind `kind`, with events/s,
/// ns/event and their geomean derived here.  The baseline fields stay in
/// the schema and are always 0.  No rows (an --only that selects nothing)
/// exits 2.
inline void report(const char* bench, const std::string& kind,
                   const std::string& title, const Options& opt,
                   const std::vector<Row>& rows) {
  if (rows.empty()) {
    std::cerr << bench << ": nothing selected by --only " << opt.only << "\n";
    std::exit(2);
  }
  TextTable table({"name", "events", "wall_s", "Mev/s", "ns/event"});
  std::ostringstream json;
  json << "{\n"
       << "  \"bench\": " << json_quote(kind) << ",\n"
       << "  \"schema_version\": 1,\n"
       << meta_json() << "  \"accesses_per_thread\": " << opt.accesses
       << ",\n"
       << "  \"reps\": " << opt.reps << ",\n"
       << "  \"workloads\": [\n";
  std::vector<double> rates;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    const double events = static_cast<double>(r.events);
    const double rate = r.wall_seconds > 0.0 ? events / r.wall_seconds : 0.0;
    const double ns = r.events > 0 ? r.wall_seconds * 1e9 / events : 0.0;
    rates.push_back(rate);
    table.add_row({r.name, std::to_string(r.events),
                   TextTable::fmt(r.wall_seconds, 4),
                   TextTable::fmt(rate / 1e6, 2), TextTable::fmt(ns, 1)});
    json << "    {\n"
         << "      \"name\": " << json_quote(r.name) << ",\n"
         << "      \"events\": " << r.events << ",\n"
         << "      \"wall_seconds\": " << json_number(r.wall_seconds) << ",\n"
         << "      \"events_per_sec\": " << json_number(rate) << ",\n"
         << "      \"ns_per_event\": " << json_number(ns) << ",\n"
         << "      \"baseline_events_per_sec\": 0,\n"
         << "      \"speedup_vs_baseline\": 0,\n"
         << "      \"event_heap_fallbacks\": " << r.heap_fallbacks << "\n"
         << "    }" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"geomean_events_per_sec\": " << json_number(geomean(rates))
       << ",\n"
       << "  \"geomean_speedup_vs_baseline\": 0\n"
       << "}\n";

  std::cout << title << " ("
            << (opt.workload.empty() ? "" : "workload=" + opt.workload + ", ")
            << "accesses=" << opt.accesses << ", reps=" << opt.reps << ")\n"
            << table.to_string();
  write_output(bench, opt.out, json.str());
  std::cout << "wrote " << opt.out << "\n";
}

}  // namespace allarm::bench
