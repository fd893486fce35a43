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
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_cli.hh"
#include "common/config.hh"
#include "sim/event.hh"
#include "workload/profiles.hh"

namespace {

using namespace allarm;

struct Stage {
  const char* name;
  DirectoryMode mode;
  std::uint32_t region_size_bytes;
};

bench::Row measure(const Stage& stage, const bench::Options& opt) {
  SystemConfig config;
  config.region_size_bytes = stage.region_size_bytes;
  const workload::WorkloadSpec spec =
      workload::make_benchmark(opt.workload, config, opt.accesses);

  bench::Row r;
  r.name = stage.name;
  const std::uint64_t fallbacks_before = sim::Event::heap_fallbacks();
  r.wall_seconds = bench::best_of(opt.reps, [&] {
    r.events = static_cast<std::uint64_t>(
        core::run_single(config, stage.mode, spec, 42)
            .stats.get("sim.events"));
  });
  r.heap_fallbacks = sim::Event::heap_fallbacks() - fallbacks_before;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Options opt =
      bench::parse_options("bench_ablation_region", argc, argv, 2000,
                           "BENCH_region.json", "ocean-cont");
  const Stage stages[] = {
      {"baseline/r4096", DirectoryMode::kBaseline, 4096},
      {"allarm/r4096", DirectoryMode::kAllarm, 4096},
      {"region/r4096", DirectoryMode::kRegion, 4096},
      {"region/r1024", DirectoryMode::kRegion, 1024},
      {"region/r64", DirectoryMode::kRegion, 64},
  };
  std::vector<bench::Row> rows;
  for (const Stage& stage : stages) {
    if (!bench::selected(opt.only, stage.name)) continue;
    std::cerr << "measuring " << stage.name << "...\n";
    rows.push_back(measure(stage, opt));
  }
  bench::report("bench_ablation_region", "region",
                "Region-directory ablation", opt, rows);
  return 0;
}
