// Ablation (DESIGN.md modelling decision): synchronous probe-filter
// eviction handling (the reply waits for the victim's invalidation acks,
// the default) vs an eviction buffer that drains victim flows off the
// critical path.  The gap bounds how much of ALLARM's speedup comes from
// removing eviction latency vs removing eviction side effects.
#include <iostream>

#include "bench_cli.hh"
#include "workload/profiles.hh"

int main(int argc, char** argv) {
  using namespace allarm;
  bench::no_args(argc, argv);
  const auto run = [](const char* name, bool gates) {
    SystemConfig config;
    config.eviction_gates_reply = gates;
    const auto spec = workload::make_benchmark(name, config,
                                               core::bench_accesses(20000));
    return core::run_pair(config, spec, 42);
  };
  TextTable t({"benchmark", "speedup (sync eviction)",
               "speedup (eviction buffer)", "norm evictions"});
  for (const char* name : {"ocean-cont", "barnes", "blackscholes"}) {
    const core::PairResult sync = run(name, true);
    const core::PairResult buf = run(name, false);
    t.add_row({name, TextTable::fmt(sync.speedup(), 3),
               TextTable::fmt(buf.speedup(), 3),
               TextTable::fmt(sync.normalized("dir.pf_evictions"), 3)});
  }
  std::cout << "\n=== Ablation: eviction cost model ===\n"
            << t.to_string()
            << "\nWith synchronous victim handling, every avoided eviction "
               "also avoids an\ninvalidation round trip on the allocating "
               "miss; with an eviction buffer only\nthe traffic and "
               "invalidation side effects remain.\n";
  return 0;
}
