// allarm_sim: the command-line driver for the simulator.
//
//   allarm_sim [options]
//
//   --benchmark NAME     synthetic profile (default ocean-cont); see --list
//   --multiprocess       run the Section III-B two-process variant
//   --trace FILE         replay an access trace instead (see workload/trace.hh)
//   --mode MODE          baseline | allarm | both (default both)
//   --accesses N         ROI accesses per thread (default 30000)
//   --pf-kb N            probe-filter coverage per node in kB (default 512)
//   --pf-ways N          probe-filter associativity (default 4)
//   --policy P           first-touch | interleave (default first-touch)
//   --eviction-buffer    drain directory victims off the critical path
//   --serial-probe       disable ALLARM's speculative-DRAM latency hiding
//   --migrate-us N       migrate a random thread every N microseconds
//   --seed N             RNG seed (default 42)
//   --full-stats         dump the complete statistic set per run
//   --profile            record latency histograms; prints hist.* rows
//                        (p50/p95/p99/max per metric) after each run
//   --timeline FILE      write a Chrome trace-event JSON timeline of the
//                        run (load in Perfetto / chrome://tracing)
//   --list               list available benchmarks and exit
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>

#include "common/config.hh"
#include "common/parse.hh"
#include "common/stats.hh"
#include "core/experiment.hh"
#include "core/system.hh"
#include "obs/timeline.hh"
#include "workload/profiles.hh"
#include "workload/trace.hh"

namespace {

using namespace allarm;

struct Options {
  std::string benchmark = "ocean-cont";
  bool multiprocess = false;
  std::string trace;
  std::string mode = "both";
  std::uint64_t accesses = 30000;
  std::uint32_t pf_kb = 512;
  std::uint32_t pf_ways = 4;
  std::string policy = "first-touch";
  bool eviction_buffer = false;
  bool serial_probe = false;
  std::uint32_t migrate_us = 0;
  std::uint64_t seed = 42;
  bool full_stats = false;
  bool profile = false;
  std::string timeline;
};

[[noreturn]] void usage(int code) {
  std::cout <<
      "usage: allarm_sim [--benchmark NAME | --multiprocess | --trace FILE]\n"
      "                  [--mode baseline|allarm|both] [--accesses N]\n"
      "                  [--pf-kb N] [--pf-ways N] [--policy first-touch|interleave]\n"
      "                  [--eviction-buffer] [--serial-probe] [--migrate-us N]\n"
      "                  [--seed N] [--full-stats] [--profile]\n"
      "                  [--timeline FILE] [--list]\n";
  std::exit(code);
}

Options parse(int argc, char** argv) {
  Options o;
  auto value = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage(2);
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--benchmark") o.benchmark = value(i);
    else if (a == "--multiprocess") o.multiprocess = true;
    else if (a == "--trace") o.trace = value(i);
    else if (a == "--mode") o.mode = value(i);
    else if (a == "--accesses") o.accesses = parse_u64(a, value(i));
    else if (a == "--pf-kb") o.pf_kb = parse_u32(a, value(i));
    else if (a == "--pf-ways") o.pf_ways = parse_u32(a, value(i));
    else if (a == "--policy") o.policy = value(i);
    else if (a == "--eviction-buffer") o.eviction_buffer = true;
    else if (a == "--serial-probe") o.serial_probe = false, o.serial_probe = true;
    else if (a == "--migrate-us") o.migrate_us = parse_u32(a, value(i));
    else if (a == "--seed") o.seed = parse_u64(a, value(i));
    else if (a == "--full-stats") o.full_stats = true;
    else if (a == "--profile") o.profile = true;
    else if (a == "--timeline") o.timeline = value(i);
    else if (a == "--list") {
      for (const auto& n : workload::benchmark_names()) std::cout << n << '\n';
      std::exit(0);
    } else if (a == "--help" || a == "-h") usage(0);
    else {
      std::cerr << "unknown option: " << a << '\n';
      usage(2);
    }
  }
  return o;
}

core::RunResult run_mode(const Options& o, const SystemConfig& config,
                         const workload::WorkloadSpec& spec,
                         DirectoryMode mode) {
  SystemConfig c = config;
  c.directory_mode = mode;
  const auto policy = o.policy == "interleave"
                          ? numa::AllocPolicy::kInterleave
                          : numa::AllocPolicy::kFirstTouch;
  core::System system(c, policy);
  core::RunOptions options;
  options.seed = o.seed;
  options.migration_interval = ticks_from_ns(1000.0) * o.migrate_us;
  options.profile = o.profile;
  OBS_SPAN("sim.run", "sim");
  return system.run(spec, options);
}

/// ROI latency histograms (--profile), printed as `hist.*` rows through the
/// same export_to() naming the sweep report uses, so both surfaces agree.
void print_profile(const core::RunResult& r) {
  if (r.profile.empty()) return;
  StatSet hist;
  for (const auto& [name, h] : r.profile) h.export_to(hist, "hist." + name);
  std::cout << hist.to_string();
}

void print_run(const std::string& label, const core::RunResult& r,
               bool full) {
  std::cout << "--- " << label << " ---\n";
  if (full) {
    std::cout << r.stats.to_string();
    print_profile(r);
    return;
  }
  TextTable t({"metric", "value"});
  auto row = [&](const char* name, const char* stat, int precision = 0) {
    t.add_row({name, TextTable::fmt(r.stats.get(stat), precision)});
  };
  row("runtime (ns)", "runtime_ns");
  row("directory requests", "dir.requests");
  row("local request fraction", "dir.local_fraction", 3);
  row("PF inserts", "pf.inserts");
  row("PF evictions", "dir.pf_evictions");
  row("local misses w/o allocation", "dir.local_no_alloc");
  row("probe hidden fraction", "dir.probe_hidden_fraction", 3);
  row("NoC bytes", "noc.bytes");
  row("L2 misses", "cache.misses");
  row("NoC energy (nJ)", "energy.noc_nj", 1);
  row("PF energy (nJ)", "energy.pf_nj", 1);
  std::cout << t.to_string();
  print_profile(r);
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  try {
    o = parse(argc, argv);
  } catch (const std::invalid_argument& e) {  // A malformed number.
    std::cerr << e.what() << '\n';
    usage(2);
  }
  if (!o.timeline.empty()) obs::Timeline::enable();

  SystemConfig config;
  config.probe_filter_coverage_bytes = o.pf_kb * 1024;
  config.probe_filter_ways = o.pf_ways;
  config.eviction_gates_reply = !o.eviction_buffer;
  config.allarm_parallel_local_probe = !o.serial_probe;
  try {
    config.validate();
  } catch (const std::exception& e) {
    std::cerr << "bad configuration: " << e.what() << '\n';
    return 2;
  }

  workload::WorkloadSpec spec;
  try {
    if (!o.trace.empty()) {
      spec = workload::load_trace_workload(o.trace, config);
    } else if (o.multiprocess) {
      spec = workload::make_multiprocess(o.benchmark, config, o.accesses);
    } else {
      spec = workload::make_benchmark(o.benchmark, config, o.accesses);
    }
  } catch (const std::exception& e) {
    std::cerr << "cannot build workload: " << e.what() << '\n';
    return 2;
  }

  std::cout << "workload '" << spec.name << "', " << spec.threads.size()
            << " threads, PF " << o.pf_kb << "kB x" << o.pf_ways << "-way\n\n";

  std::optional<core::RunResult> base, allarm;
  if (o.mode == "baseline" || o.mode == "both") {
    base = run_mode(o, config, spec, DirectoryMode::kBaseline);
    print_run("baseline", *base, o.full_stats);
  }
  if (o.mode == "allarm" || o.mode == "both") {
    allarm = run_mode(o, config, spec, DirectoryMode::kAllarm);
    print_run("allarm", *allarm, o.full_stats);
  }
  if (base && allarm) {
    std::cout << "\nspeedup:             "
              << TextTable::fmt(
                     static_cast<double>(base->runtime) / allarm->runtime, 3)
              << "\nnormalized evictions: "
              << TextTable::fmt(allarm->stats.normalized_to(
                                    base->stats, "dir.pf_evictions"),
                                3)
              << "\nnormalized traffic:   "
              << TextTable::fmt(
                     allarm->stats.normalized_to(base->stats, "noc.bytes"), 3)
              << '\n';
  }
  // Observability output last: a failed timeline write logs loudly but the
  // simulation results above already stand, so the exit code is unchanged.
  if (!o.timeline.empty() && obs::Timeline::write(o.timeline)) {
    std::cerr << "wrote " << o.timeline << "\n";
  }
  return 0;
}
