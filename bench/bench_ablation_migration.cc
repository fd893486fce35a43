// Ablation (Section II-E): thread migration.  ALLARM's detection heuristic
// keys off page homes, so migrating threads turn previously-local data
// remote; the paper argues NUMA schedulers avoid migration and that ALLARM
// keeps working (just with less benefit) when it happens.
#include <iostream>

#include "bench_cli.hh"
#include "core/system.hh"
#include "workload/profiles.hh"

int main(int argc, char** argv) {
  using namespace allarm;
  bench::no_args(argc, argv);
  TextTable t({"migration period", "migrations", "local fraction",
               "no-alloc fast path", "runtime (ms)"});
  // Migration periods in microseconds; 0 = never (NUMA-scheduler behaviour).
  for (const std::uint32_t period_us : {0u, 200u, 50u}) {
    SystemConfig config;
    config.directory_mode = DirectoryMode::kAllarm;
    const auto spec = workload::make_benchmark("ocean-cont", config,
                                               core::bench_accesses(20000));
    core::System system(config);
    core::RunOptions options;
    options.seed = 42;
    options.migration_interval = ticks_from_ns(1000.0) * period_us;
    const core::RunResult r = system.run(spec, options);
    t.add_row({period_us == 0 ? "never" : std::to_string(period_us) + "us",
               TextTable::fmt(r.stats.get("os.migrations"), 0),
               TextTable::fmt(r.stats.get("dir.local_fraction"), 3),
               TextTable::fmt(r.stats.get("dir.local_no_alloc"), 0),
               TextTable::fmt(r.stats.get("runtime_ns") / 1e6, 3)});
  }
  std::cout << "\n=== Ablation: thread migration under ALLARM (Section II-E, "
               "ocean-cont) ===\n"
            << t.to_string()
            << "\nALLARM stays correct under migration; locality (and with "
               "it the no-allocation\nfast path) erodes as migration "
               "frequency rises.\n";
  return 0;
}
