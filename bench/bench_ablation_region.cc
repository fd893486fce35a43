// Region-directory ablation benchmark.
//
// Runs one synthetic benchmark workload through the directory schemes the
// region subsystem adds, in simulated events per second of host time:
//
//   baseline/r4096   per-block sparse directory (region knob ignored);
//   allarm/r4096     ALLARM probe filter (region knob ignored);
//   region/r4096     dual-granularity directory, page-sized regions;
//   region/r1024     dual-granularity directory, 1 kB regions;
//   region/r64       the degenerate one-line-per-region point — must track
//                    baseline/r4096 closely, since it runs the identical
//                    protocol path (the region hooks are compiled in but
//                    gated off; this row is the hot-path-cost guard).
//
// The report reuses BENCH_kernel.json's schema (version 1) with
// "bench": "region" and events = simulated events executed, so
// scripts/check_bench.py gates it with the same machinery against
// bench/baseline/BENCH_region.json.
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_cli.hh"
#include "common/config.hh"
#include "common/stats.hh"
#include "core/experiment.hh"
#include "sim/event_queue.hh"
#include "workload/profiles.hh"

namespace allarm::bench {
namespace {

struct Options {
  std::uint64_t accesses = 2000;
  int reps = 3;
  std::string out = "BENCH_region.json";
  std::string only;
  std::string workload = "ocean-cont";
};

struct Stage {
  std::string name;
  DirectoryMode mode;
  std::uint32_t region_size_bytes;
};

struct StageResult {
  std::string name;
  std::uint64_t events = 0;
  double wall_seconds = 0.0;
  double events_per_sec = 0.0;
  double ns_per_event = 0.0;
  std::uint64_t heap_fallbacks = 0;
};

StageResult measure(const Stage& stage, const Options& opt) {
  SystemConfig config;
  config.region_size_bytes = stage.region_size_bytes;
  const workload::WorkloadSpec spec =
      workload::make_benchmark(opt.workload, config, opt.accesses);

  StageResult r;
  r.name = stage.name;
  r.wall_seconds = 1e300;
  const std::uint64_t fallbacks_before = sim::Event::heap_fallbacks();
  for (int rep = 0; rep < opt.reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    const core::RunResult run =
        core::run_single(config, stage.mode, spec, 42);
    const auto t1 = std::chrono::steady_clock::now();
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    if (secs < r.wall_seconds) r.wall_seconds = secs;
    r.events = static_cast<std::uint64_t>(run.stats.get("sim.events"));
  }
  r.heap_fallbacks = sim::Event::heap_fallbacks() - fallbacks_before;
  r.events_per_sec = r.wall_seconds > 0.0
                         ? static_cast<double>(r.events) / r.wall_seconds
                         : 0.0;
  r.ns_per_event = r.events > 0 ? r.wall_seconds * 1e9 /
                                      static_cast<double>(r.events)
                                : 0.0;
  return r;
}

std::string to_json(const std::vector<StageResult>& results,
                    const Options& opt) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"bench\": \"region\",\n";
  out << "  \"schema_version\": 1,\n";
  out << meta_json();
  out << "  \"accesses_per_thread\": " << opt.accesses << ",\n";
  out << "  \"reps\": " << opt.reps << ",\n";
  out << "  \"workloads\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const StageResult& r = results[i];
    out << "    {\n";
    out << "      \"name\": " << json_quote(r.name) << ",\n";
    out << "      \"events\": " << r.events << ",\n";
    out << "      \"wall_seconds\": " << json_number(r.wall_seconds) << ",\n";
    out << "      \"events_per_sec\": " << json_number(r.events_per_sec)
        << ",\n";
    out << "      \"ns_per_event\": " << json_number(r.ns_per_event) << ",\n";
    out << "      \"baseline_events_per_sec\": 0,\n";
    out << "      \"speedup_vs_baseline\": 0,\n";
    out << "      \"event_heap_fallbacks\": " << r.heap_fallbacks << "\n";
    out << "    }" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  {
    std::vector<double> rates;
    for (const StageResult& r : results) rates.push_back(r.events_per_sec);
    out << "  \"geomean_events_per_sec\": " << json_number(geomean(rates))
        << ",\n";
    out << "  \"geomean_speedup_vs_baseline\": 0\n";
  }
  out << "}\n";
  return out.str();
}

int run(const Options& opt) {
  const std::vector<Stage> stages = {
      {"baseline/r4096", DirectoryMode::kBaseline, 4096},
      {"allarm/r4096", DirectoryMode::kAllarm, 4096},
      {"region/r4096", DirectoryMode::kRegion, 4096},
      {"region/r1024", DirectoryMode::kRegion, 1024},
      {"region/r64", DirectoryMode::kRegion, 64},
  };

  std::vector<StageResult> results;
  for (const Stage& stage : stages) {
    if (!selected(opt.only, stage.name)) continue;
    std::cerr << "measuring " << stage.name << "...\n";
    results.push_back(measure(stage, opt));
  }
  if (results.empty()) {
    std::cerr << "no stage selected by --only " << opt.only << "\n";
    return 2;
  }

  TextTable table({"scheme", "events", "wall_s", "Mev/s", "ns/event"});
  for (const StageResult& r : results) {
    table.add_row({r.name, std::to_string(r.events),
                   TextTable::fmt(r.wall_seconds, 4),
                   TextTable::fmt(r.events_per_sec / 1e6, 2),
                   TextTable::fmt(r.ns_per_event, 1)});
  }
  std::cout << "Region-directory ablation (workload=" << opt.workload
            << ", accesses=" << opt.accesses << ", reps=" << opt.reps << ")\n"
            << table.to_string();

  write_output("bench_ablation_region", opt.out, to_json(results, opt));
  std::cout << "wrote " << opt.out << "\n";
  return 0;
}

}  // namespace
}  // namespace allarm::bench

int main(int argc, char** argv) {
  allarm::bench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--accesses") {
      opt.accesses = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--reps") {
      opt.reps = std::atoi(value().c_str());
    } else if (arg == "--out") {
      opt.out = value();
    } else if (arg == "--only") {
      opt.only = value();
    } else if (arg == "--workload") {
      opt.workload = value();
    } else {
      std::cerr << "usage: bench_ablation_region [--accesses N] [--reps N] "
                   "[--workload NAME] [--only LIST] [--out FILE]\n";
      return arg == "--help" ? 0 : 2;
    }
  }
  return allarm::bench::run(opt);
}
