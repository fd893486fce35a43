// Ablation: probe-filter associativity at fixed coverage.  Higher
// associativity absorbs set-conflict pressure; lower associativity evicts
// more.  ALLARM's advantage persists across geometries because its benefit
// comes from allocation volume, not placement.
#include <iostream>

#include "bench_cli.hh"
#include "workload/profiles.hh"

int main(int argc, char** argv) {
  using namespace allarm;
  bench::no_args(argc, argv);
  TextTable t({"PF ways", "baseline evictions", "ALLARM evictions",
               "norm evictions", "speedup"});
  for (const std::uint32_t ways : {2u, 4u, 8u}) {
    SystemConfig config;
    config.probe_filter_ways = ways;
    const auto spec = workload::make_benchmark("ocean-cont", config,
                                               core::bench_accesses(20000));
    const core::PairResult pair = core::run_pair(config, spec, 42);
    t.add_row({std::to_string(ways),
               TextTable::fmt(pair.baseline.stats.get("dir.pf_evictions"), 0),
               TextTable::fmt(pair.allarm.stats.get("dir.pf_evictions"), 0),
               TextTable::fmt(pair.normalized("dir.pf_evictions"), 3),
               TextTable::fmt(pair.speedup(), 3)});
  }
  std::cout << "\n=== Ablation: probe-filter associativity (ocean-cont, "
               "512kB coverage) ===\n"
            << t.to_string();
  return 0;
}
