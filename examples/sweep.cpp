// sweep: parallel grid driver for the paper's figure experiments.
//
//   sweep --grid NAME [options]
//
//   --grid NAME          which grid to run (see --list):
//                          fig3    benchmarks x Table-I machine x {baseline, allarm}
//                          fig3h   benchmarks x {512,256,128} kB probe filter
//                                  x {baseline, allarm}
//                          policy  benchmarks x {first-touch, interleave}
//                                  x {baseline, allarm}
//                          region  benchmarks x {4096,1024,256,64} B regions
//                                  x {baseline, allarm, region}
//                          quick   two benchmarks, shortened runs (smoke test)
//                          trace   .altr trace files (--trace) x replay core
//                                  counts (--cores) x {first-touch,
//                                  interleave} x {baseline, allarm}
//   --jobs N             worker threads (default: ALLARM_JOBS, else all cores)
//   --seeds K            replicates per cell, seeded per grid coordinates
//                        (default 1)
//   --accesses N         ROI accesses per thread (default per grid, or the
//                        ALLARM_BENCH_ACCESSES environment variable)
//   --seed N             base seed (default 42)
//   --out FILE           stream the JSON report here (default: stdout)
//   --csv FILE           also stream a long-format CSV report
//   --journal FILE       journal every finished job to FILE (+ FILE.data)
//                        so the sweep survives interruption
//   --resume             resume from --journal: already-journaled jobs are
//                        not re-run, their results replay from disk
//   --resume-cells       per-cell incremental resume: like --resume, but a
//                        journal from an EDITED spec is rebound instead of
//                        refused — only cells whose config/seed identity
//                        changed re-run; unchanged cells replay from disk.
//                        Creates the journal when missing (one flag serves
//                        first run and re-run).  Unsharded sweeps only
//   --shard K/N          run only shard K of N (1-based; cells partition
//                        round-robin).  Requires --journal so the shards
//                        can be merged later
//   --cost-from FILE     with --shard: plan the cell partition from the
//                        measured per-job wall_ns in journal FILE (a prior
//                        run or --timing pass of the same grid shape)
//                        instead of round-robin, so slow cells spread
//                        across shards.  Every shard of one sweep must use
//                        the same FILE; reports are byte-identical either
//                        way (the plan only moves work, never results)
//   --merge FILE         merge mode: fold the given shard journal instead
//                        of running anything (repeat per shard).  Produces
//                        byte-identical output to a single-machine run
//   --window N           cap on in-flight + unfolded results (default:
//                        4x workers); bounds peak memory at O(jobs)
//   --timing             include per-cell "wall_ns" (host wall-clock per
//                        replicate) in the JSON report.  Off by default:
//                        wall clock varies run to run, and the canonical
//                        report must stay byte-identical for one spec
//   --profile            record latency histograms in every job (access
//                        request->completion, directory occupancy, mesh
//                        queueing) and include per-cell "hist" quantiles
//                        (p50/p95/p99/max) in the JSON report.  Off by
//                        default for the same reason as --timing
//   --timeline FILE      write a Chrome trace-event timeline of the
//                        sweep's wall-clock spans (jobs, journal appends,
//                        fsyncs, sink writes) to FILE; load
//                        it in Perfetto (docs/OBSERVABILITY.md).  Pure
//                        side effect: reports are byte-identical
//   --capture DIR        additionally capture every job's executed access
//                        stream to DIR/job-<index>.altr (.altr binary
//                        traces; see docs/TRACES.md).  Reports unchanged
//   --replay DIR         replay every job from DIR/job-<index>.altr
//                        (captured from the same grid) instead of running
//                        the synthetic generators; the report is
//                        byte-identical to the direct run at any --jobs
//   --trace FILE         (trace grid) an .altr file to sweep; repeatable
//   --cores LIST         (trace grid) comma-separated replay core counts
//                        (default: all 16; a thread's captured placement
//                        node remaps to node mod cores)
//   --cell-retries N     re-run a failed job up to N times with exponential
//                        backoff before giving up (default 0: fail fast).
//                        Retried jobs reproduce their bytes exactly
//   --cell-backoff-ms N  backoff before the first retry (doubles per
//                        attempt; default 100)
//   --cell-timeout SEC   per-job wall-clock watchdog: a job running longer
//                        aborts with a structured no-progress diagnostic
//                        (then retries/quarantines like any failure)
//   --quarantine         report permanently failing jobs as structured
//                        "failed" cells and finish the sweep (exit 3)
//                        instead of aborting at the first one (exit 1)
//   --failpoints SPEC    deterministic fault injection, e.g.
//                        'journal.fsync=err@3;fileio.pwrite=torn@7' (also
//                        via ALLARM_FAILPOINTS; see docs/ROBUSTNESS.md)
//   --list               list available grids and exit
//
// Reports are streamed cell by cell — a finished cell is serialized and
// dropped, so report size never bounds grid size.  They contain no
// execution metadata: the same grid, seeds and accesses produce
// byte-identical output at any --jobs setting, across kill/--resume
// cycles, and across --shard/--merge splits.  See docs/SWEEPS.md.
//
// Exit codes: 0 success, 1 error, 2 usage, 3 degraded completion (the
// sweep finished but quarantined at least one job; see docs/ROBUSTNESS.md).
#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/failpoint.hh"
#include "common/fileio.hh"
#include "common/parse.hh"
#include "core/experiment.hh"
#include "obs/timeline.hh"
#include "runner/grids.hh"
#include "runner/report.hh"
#include "runner/sink.hh"
#include "runner/sweep.hh"
#include "trace/replay.hh"
#include "workload/profiles.hh"

namespace {

using namespace allarm;

struct Options {
  std::string grid;
  std::uint32_t jobs = 0;  // 0 = ALLARM_JOBS / hardware concurrency.
  std::uint32_t seeds = 1;
  std::uint64_t accesses = 0;  // 0 = grid default.
  std::uint64_t seed = 42;
  std::string out;
  std::string csv;
  std::string journal;
  bool resume = false;
  bool resume_cells = false;
  std::string cost_from;
  runner::ShardSpec shard;
  std::vector<std::string> merge;
  std::size_t window = 0;
  bool timing = false;
  bool profile = false;
  std::string timeline;
  std::string capture_dir;
  std::string replay_dir;
  std::vector<std::string> traces;
  std::vector<std::uint32_t> cores;
  std::uint32_t cell_retries = 0;
  std::uint32_t cell_backoff_ms = 100;
  double cell_timeout_s = 0.0;
  bool quarantine = false;
  std::string failpoints;
};

[[noreturn]] void usage(int code) {
  std::cout <<
      "usage: sweep --grid fig3|fig3h|policy|region|quick|trace [--jobs N]\n"
      "             [--seeds K] [--accesses N] [--seed N] [--out FILE]\n"
      "             [--csv FILE] [--journal FILE [--resume|--resume-cells]]\n"
      "             [--shard K/N [--cost-from FILE]]\n"
      "             [--merge FILE]... [--window N] [--timing]\n"
      "             [--profile] [--timeline FILE]\n"
      "             [--capture DIR] [--replay DIR]\n"
      "             [--trace FILE]... [--cores LIST] [--list]\n"
      "             [--cell-retries N] [--cell-backoff-ms N]\n"
      "             [--cell-timeout SEC] [--quarantine] [--failpoints SPEC]\n";
  std::exit(code);
}

void list_grids() {
  std::cout
      << "fig3    all benchmarks x Table-I machine x {baseline, allarm}\n"
      << "fig3h   all benchmarks x {512, 256, 128} kB probe filter x modes\n"
      << "policy  all benchmarks x {first-touch, interleave} x modes\n"
      << "region  all benchmarks x {4096, 1024, 256, 64} B regions x"
         " {baseline, allarm, region}\n"
      << "quick   barnes + ocean-cont, shortened runs (smoke test)\n"
      << "trace   --trace .altr files x --cores x {first-touch, interleave}"
         " x modes\n";
}

/// Workload label of one trace-grid cell, and its inverse.  Encoding the
/// core count into the label keeps the (trace x cores) product on the
/// workload axis, where the label also seeds and names the cell.
std::string trace_label(const std::string& path, std::uint32_t cores) {
  return path + "@" + std::to_string(cores);
}

/// Path -> open reader, shared across the grid: a trace swept at several
/// core counts and configs is opened (and its framing CRC-verified) once,
/// not once per (workload, config) cell.
using TraceReaderCache =
    std::map<std::string, std::shared_ptr<const trace::TraceReader>>;

workload::WorkloadSpec make_trace_workload_for_label(
    const std::string& label, const SystemConfig& config,
    TraceReaderCache& readers) {
  const auto at = label.rfind('@');
  if (at == std::string::npos) {
    throw std::invalid_argument("trace grid label '" + label +
                                "' is missing its @cores suffix");
  }
  const auto cores =
      static_cast<std::uint32_t>(std::strtoul(label.c_str() + at + 1,
                                              nullptr, 10));
  const std::string path = label.substr(0, at);
  auto& reader = readers[path];
  if (reader == nullptr) {
    reader = std::make_shared<const trace::TraceReader>(path);
  }
  return trace::make_replay_workload(reader, config, cores);
}

/// mkdir for --capture; an existing directory is fine (rerun into it).
void ensure_directory(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST) {
    throw std::runtime_error("cannot create directory " + path + ": " +
                             std::strerror(errno));
  }
}

runner::SweepSpec make_grid(const Options& options) {
  runner::SweepSpec spec;
  if (options.grid == "trace") {
    if (options.traces.empty()) {
      std::cerr << "--grid trace requires at least one --trace FILE\n";
      usage(2);
    }
    SystemConfig config;
    spec.name = options.grid;
    spec.replicates = options.seeds;
    spec.base_seed = options.seed;
    // Trace lengths are fixed by the files; the accesses knob does not
    // apply (and stays out of the report's meaning).
    spec.accesses_per_thread = 0;
    std::vector<std::uint32_t> cores = options.cores;
    if (cores.empty()) cores = {config.num_cores};
    for (const std::string& path : options.traces) {
      for (const std::uint32_t c : cores) {
        spec.workloads.push_back(trace_label(path, c));
      }
    }
    spec.modes = {DirectoryMode::kBaseline, DirectoryMode::kAllarm};
    spec.configs = {{"first-touch", config, numa::AllocPolicy::kFirstTouch},
                    {"interleave", config, numa::AllocPolicy::kInterleave}};
    const auto readers = std::make_shared<TraceReaderCache>();
    spec.make_workload = [readers](const std::string& label,
                                   const SystemConfig& grid_config,
                                   std::uint64_t) {
      return make_trace_workload_for_label(label, grid_config, *readers);
    };
  } else {
    // The built-in grids live in the library (runner/grids.hh) so the
    // sweep service builds the same specs from spool requests.
    runner::GridKnobs knobs;
    knobs.seeds = options.seeds;
    knobs.base_seed = options.seed;
    knobs.accesses = options.accesses;
    try {
      spec = runner::make_builtin_grid(options.grid, knobs);
    } catch (const std::invalid_argument& e) {
      std::cerr << e.what() << "\n";
      usage(2);
    }
  }
  spec.capture_dir = options.capture_dir;
  spec.replay_dir = options.replay_dir;
  spec.profile = options.profile;
  return spec;
}

runner::ShardSpec parse_shard(const std::string& text) {
  runner::ShardSpec shard;
  const std::size_t slash = text.find('/');
  try {
    if (slash == std::string::npos) throw std::invalid_argument(text);
    shard.index = parse_u32("--shard", text.substr(0, slash));
    shard.count = parse_u32("--shard", text.substr(slash + 1));
  } catch (const std::invalid_argument&) {
    std::cerr << "--shard wants K/N, got '" << text << "'\n";
    usage(2);
  }
  try {
    shard.validate();
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    usage(2);
  }
  return shard;
}

Options parse(int argc, char** argv) {
  Options options;
  auto value = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage(2);
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--grid") == 0) {
      options.grid = value(i);
    } else if (std::strcmp(arg, "--jobs") == 0) {
      options.jobs = parse_u32(arg, value(i));
    } else if (std::strcmp(arg, "--seeds") == 0) {
      options.seeds = parse_u32(arg, value(i));
    } else if (std::strcmp(arg, "--accesses") == 0) {
      options.accesses = parse_u64(arg, value(i));
    } else if (std::strcmp(arg, "--seed") == 0) {
      options.seed = parse_u64(arg, value(i));
    } else if (std::strcmp(arg, "--out") == 0) {
      options.out = value(i);
    } else if (std::strcmp(arg, "--csv") == 0) {
      options.csv = value(i);
    } else if (std::strcmp(arg, "--journal") == 0) {
      options.journal = value(i);
    } else if (std::strcmp(arg, "--resume") == 0) {
      options.resume = true;
    } else if (std::strcmp(arg, "--resume-cells") == 0) {
      options.resume_cells = true;
    } else if (std::strcmp(arg, "--cost-from") == 0) {
      options.cost_from = value(i);
    } else if (std::strcmp(arg, "--shard") == 0) {
      options.shard = parse_shard(value(i));
    } else if (std::strcmp(arg, "--merge") == 0) {
      options.merge.push_back(value(i));
    } else if (std::strcmp(arg, "--window") == 0) {
      options.window = parse_u64(arg, value(i));
    } else if (std::strcmp(arg, "--timing") == 0) {
      options.timing = true;
    } else if (std::strcmp(arg, "--profile") == 0) {
      options.profile = true;
    } else if (std::strcmp(arg, "--timeline") == 0) {
      options.timeline = value(i);
    } else if (std::strcmp(arg, "--capture") == 0) {
      options.capture_dir = value(i);
    } else if (std::strcmp(arg, "--replay") == 0) {
      options.replay_dir = value(i);
    } else if (std::strcmp(arg, "--trace") == 0) {
      options.traces.push_back(value(i));
    } else if (std::strcmp(arg, "--cores") == 0) {
      const std::string list = value(i);
      std::size_t pos = 0;
      while (pos <= list.size()) {
        const std::size_t comma = list.find(',', pos);
        const std::size_t end = comma == std::string::npos ? list.size() : comma;
        const std::uint32_t cores =
            parse_u32(arg, list.substr(pos, end - pos));
        if (cores == 0) {
          std::cerr << "--cores wants a comma-separated list of positive "
                       "counts, got '" << list << "'\n";
          usage(2);
        }
        options.cores.push_back(cores);
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    } else if (std::strcmp(arg, "--cell-retries") == 0) {
      options.cell_retries = parse_u32(arg, value(i));
    } else if (std::strcmp(arg, "--cell-backoff-ms") == 0) {
      options.cell_backoff_ms = parse_u32(arg, value(i));
    } else if (std::strcmp(arg, "--cell-timeout") == 0) {
      const char* text = value(i);
      char* end = nullptr;
      options.cell_timeout_s = std::strtod(text, &end);
      if (end == text || *end != '\0' || !(options.cell_timeout_s > 0.0)) {
        std::cerr << "--cell-timeout wants a positive number of seconds, got '"
                  << text << "'\n";
        usage(2);
      }
    } else if (std::strcmp(arg, "--quarantine") == 0) {
      options.quarantine = true;
    } else if (std::strcmp(arg, "--failpoints") == 0) {
      options.failpoints = value(i);
    } else if (std::strcmp(arg, "--list") == 0) {
      list_grids();
      std::exit(0);
    } else if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      usage(0);
    } else {
      std::cerr << "unknown option '" << arg << "'\n";
      usage(2);
    }
  }
  if (options.grid.empty()) {
    std::cerr << "--grid is required\n";
    usage(2);
  }
  if (options.seeds == 0) {
    std::cerr << "--seeds must be positive\n";
    usage(2);
  }
  if ((options.resume || options.resume_cells) && options.journal.empty()) {
    std::cerr << "--resume/--resume-cells require --journal\n";
    usage(2);
  }
  if (options.resume && options.resume_cells) {
    std::cerr << "--resume and --resume-cells are different recovery modes; "
                 "pick one\n";
    usage(2);
  }
  if (options.resume_cells && options.shard.count > 1) {
    std::cerr << "--resume-cells applies to unsharded sweeps (stale records "
                 "would strand in other shards' journals)\n";
    usage(2);
  }
  if (!options.cost_from.empty() && options.shard.count <= 1) {
    std::cerr << "--cost-from plans a --shard partition; it needs --shard "
                 "K/N with N > 1\n";
    usage(2);
  }
  if (options.shard.count > 1 && options.journal.empty() &&
      options.merge.empty()) {
    std::cerr << "--shard requires --journal (shards merge via journals)\n";
    usage(2);
  }
  if (!options.merge.empty() &&
      (options.resume || !options.journal.empty() || options.shard.count > 1)) {
    std::cerr << "--merge folds existing journals; it cannot be combined "
                 "with --journal/--resume/--shard\n";
    usage(2);
  }
  if (!options.capture_dir.empty() && !options.replay_dir.empty()) {
    std::cerr << "--capture and --replay are mutually exclusive\n";
    usage(2);
  }
  if (!options.capture_dir.empty() &&
      (options.resume || options.resume_cells)) {
    // Jobs replayed from the journal never execute, so their traces would
    // silently be missing (or torn) from the capture directory.
    std::cerr << "--capture needs a full fresh run; it cannot be combined "
                 "with --resume/--resume-cells\n";
    usage(2);
  }
  if ((!options.capture_dir.empty() || !options.replay_dir.empty()) &&
      options.grid == "trace") {
    std::cerr << "--capture/--replay apply to synthetic grids; the trace "
                 "grid already replays its --trace files\n";
    usage(2);
  }
  if ((!options.traces.empty() || !options.cores.empty()) &&
      options.grid != "trace") {
    std::cerr << "--trace/--cores only apply to --grid trace\n";
    usage(2);
  }
  return options;
}

/// Publishes the report temp files and narrates where they went.  Only
/// called on success; on failure the target paths keep their previous
/// contents (exit is nonzero either way — never a silently truncated
/// report).  The tmp+fsync+rename pipeline itself is runner::ReportFiles.
void finish_reports(runner::ReportFiles& reports, const Options& options) {
  reports.commit();
  if (!options.out.empty()) std::cerr << "wrote " << options.out << "\n";
  if (!options.csv.empty()) std::cerr << "wrote " << options.csv << "\n";
  // The timeline is observability, not results: a failed write already
  // logged loudly, and the committed reports above stand either way.
  if (!options.timeline.empty() &&
      obs::Timeline::write(options.timeline)) {
    std::cerr << "wrote " << options.timeline << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) try {
  Options options;
  try {
    options = parse(argc, argv);
  } catch (const std::invalid_argument& e) {  // A malformed number.
    std::cerr << e.what() << "\n";
    usage(2);
  }
  // Arm the span recorder before any instrumented work (worker threads
  // check the flag once per span; disabled recording is a relaxed load).
  if (!options.timeline.empty()) obs::Timeline::enable();
  std::string failpoints = allarm::failpoint::configure_from_env();
  if (!options.failpoints.empty()) {
    allarm::failpoint::configure(options.failpoints);
    failpoints = options.failpoints;
  }
  if (!failpoints.empty()) {
    std::cerr << "failpoints active: " << failpoints << "\n";
  }
  if (!options.capture_dir.empty()) ensure_directory(options.capture_dir);
  const runner::SweepSpec spec = make_grid(options);

  runner::ReportFiles reports(options.out, options.csv, options.timing,
                              options.profile);

  if (!options.merge.empty()) {
    std::cerr << "merging " << options.merge.size() << " journal(s) of sweep '"
              << spec.name << "'\n";
    const runner::StreamStats stats =
        runner::merge_journals(spec, options.merge, reports.sink());
    finish_reports(reports, options);
    std::cerr << "merged " << stats.jobs_total << " jobs into "
              << stats.cells_emitted << " cells in " << stats.wall_seconds
              << " s";
    if (stats.jobs_failed > 0) {
      std::cerr << " (DEGRADED: " << stats.jobs_failed << " failed jobs in "
                << stats.cells_failed << " cells)";
    }
    std::cerr << "\n";
    return stats.jobs_failed > 0 ? 3 : 0;
  }

  const runner::SweepRunner sweep_runner(options.jobs);
  runner::StreamOptions stream;
  stream.journal_path = options.journal;
  stream.resume = options.resume;
  stream.resume_cells = options.resume_cells;
  stream.shard = options.shard;
  if (!options.cost_from.empty()) {
    // Cost-aware partition: plan_shards is deterministic, so every shard
    // of the sweep derives the identical assignment from the same journal.
    const std::vector<double> costs =
        runner::cell_costs_from_journal(spec, options.cost_from);
    stream.shard.assignment = runner::plan_shards(costs, options.shard.count);
    std::cerr << "planned " << costs.size() << " cells across "
              << options.shard.count << " shards from measured costs in "
              << options.cost_from << "\n";
  }
  stream.max_outstanding = options.window;
  stream.cell_retries = options.cell_retries;
  stream.retry_backoff_ms = options.cell_backoff_ms;
  stream.cell_timeout_ns =
      static_cast<std::uint64_t>(options.cell_timeout_s * 1e9);
  stream.quarantine = options.quarantine;

  // Banner counts the jobs THIS run owns (scripts parse it, e.g. the
  // resume smoke's kill threshold), not the full grid.
  std::uint64_t owned_cells = 0;
  for (std::uint64_t cell = 0; cell < spec.cell_count(); ++cell) {
    if (stream.shard.owns_cell(cell)) ++owned_cells;
  }
  std::cerr << "sweep '" << spec.name << "': "
            << owned_cells * spec.replicates << " jobs";
  if (options.shard.count > 1) {
    std::cerr << " (shard " << options.shard.index << "/"
              << options.shard.count << " of " << spec.job_count()
              << " total)";
  }
  std::cerr << " on " << sweep_runner.jobs() << " workers\n";

  const runner::StreamStats stats =
      sweep_runner.run_streaming(spec, reports.sink(), stream);
  finish_reports(reports, options);

  std::cerr << "done in " << stats.wall_seconds << " s: "
            << stats.jobs_executed << " jobs run";
  if (stats.jobs_resumed > 0) {
    std::cerr << ", " << stats.jobs_resumed << " resumed from journal";
  }
  if (stats.jobs_retried > 0) {
    std::cerr << ", " << stats.jobs_retried << " retries";
  }
  std::cerr << ", " << stats.cells_emitted << " cells, peak "
            << stats.peak_resident_results << " resident results ("
            << stats.tasks_stolen << " tasks stolen)";
  if (stats.jobs_failed > 0) {
    std::cerr << "\nDEGRADED: " << stats.jobs_failed
              << " jobs quarantined as failed across " << stats.cells_failed
              << " cells; see the \"failed\" report sections";
  }
  std::cerr << "\n";
  return stats.jobs_failed > 0 ? 3 : 0;
} catch (const std::exception& e) {
  std::cerr << "sweep: " << e.what() << "\n";
  return 1;
}
