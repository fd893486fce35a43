// Ablation (validates the Section II-A assumption): ALLARM depends on
// first-touch page placement homing thread-private data locally.  Under an
// interleaved policy the same workload sends most "private" requests to
// remote directories and the local-miss fast path starves.
#include <iostream>

#include "bench_cli.hh"
#include "workload/profiles.hh"

int main(int argc, char** argv) {
  using namespace allarm;
  bench::no_args(argc, argv);
  TextTable t({"benchmark", "policy", "local fraction", "no-alloc fast path",
               "PF inserts"});
  for (const char* name : {"ocean-cont", "barnes"}) {
    for (const auto policy :
         {numa::AllocPolicy::kFirstTouch, numa::AllocPolicy::kInterleave}) {
      SystemConfig config;
      const auto spec = workload::make_benchmark(name, config,
                                                 core::bench_accesses(20000));
      const core::RunResult r =
          core::run_single(config, DirectoryMode::kAllarm, spec, 42, policy);
      t.add_row({name,
                 policy == numa::AllocPolicy::kFirstTouch ? "first-touch"
                                                          : "interleave",
                 TextTable::fmt(r.stats.get("dir.local_fraction"), 3),
                 TextTable::fmt(r.stats.get("dir.local_no_alloc"), 0),
                 TextTable::fmt(r.stats.get("pf.inserts"), 0)});
    }
  }
  std::cout << "\n=== Ablation: page-placement policy under ALLARM "
               "(Section II-A) ===\n"
            << t.to_string()
            << "\nFirst-touch keeps private data local, so most misses skip "
               "allocation;\ninterleaving spreads pages and defeats the "
               "detection heuristic.\n";
  return 0;
}
