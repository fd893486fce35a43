// Figures 3a-3g: the 16-thread evaluation.  One baseline+ALLARM run pair
// per benchmark yields every panel:
//   3a speedup                     3b normalized PF evictions
//   3c normalized NoC traffic      3d average messages per PF eviction
//   3e normalized L2 misses        3f normalized dynamic energy (NoC, PF)
//   3g fraction of remote misses with the local probe off the critical path
//
// The built-in "fig3" grid (benchmarks x {baseline, allarm}) runs on the
// sweep runner across ALLARM_JOBS workers (default: all cores); the
// figures then read from the finished sweep.
#include <iostream>

#include "bench_cli.hh"
#include "workload/profiles.hh"

int main(int argc, char** argv) {
  using namespace allarm;
  bench::no_args(argc, argv);
  const runner::SweepResult sweep = bench::run_grid("fig3");
  const auto& names = workload::benchmark_names();

  TextTable a({"benchmark", "speedup"});
  TextTable b({"benchmark", "normalized evictions"});
  TextTable c({"benchmark", "normalized traffic (bytes)"});
  TextTable d({"benchmark", "msgs/eviction (baseline)", "msgs/eviction (ALLARM)"});
  TextTable e({"benchmark", "normalized L2 misses"});
  TextTable f({"benchmark", "norm energy NoC", "norm energy PF"});
  TextTable g({"benchmark", "fraction probe off critical path"});

  std::vector<double> speedups, evictions, traffic, misses, e_noc, e_pf;
  for (const auto& name : names) {
    const auto pair = sweep.pair(name, "table1");
    speedups.push_back(pair.speedup());
    evictions.push_back(pair.normalized("dir.pf_evictions"));
    traffic.push_back(pair.normalized("noc.bytes"));
    misses.push_back(pair.normalized("cache.misses"));
    e_noc.push_back(pair.normalized("energy.noc_nj"));
    e_pf.push_back(pair.normalized("energy.pf_nj"));

    a.add_row({name, TextTable::fmt(pair.speedup(), 3)});
    b.add_row({name, TextTable::fmt(evictions.back(), 3)});
    c.add_row({name, TextTable::fmt(traffic.back(), 3)});
    d.add_row({name,
               TextTable::fmt(pair.baseline.stats.get("dir.msgs_per_eviction"), 1),
               TextTable::fmt(pair.allarm.stats.get("dir.msgs_per_eviction"), 1)});
    e.add_row({name, TextTable::fmt(misses.back(), 3)});
    f.add_row({name, TextTable::fmt(e_noc.back(), 3),
               TextTable::fmt(e_pf.back(), 3)});
    g.add_row({name,
               TextTable::fmt(
                   pair.allarm.stats.get("dir.probe_hidden_fraction"), 3)});
  }
  a.add_row({"geomean", TextTable::fmt(geomean(speedups), 3)});
  b.add_row({"geomean", TextTable::fmt(geomean(evictions), 3)});
  c.add_row({"geomean", TextTable::fmt(geomean(traffic), 3)});
  e.add_row({"geomean", TextTable::fmt(geomean(misses), 3)});
  f.add_row({"geomean", TextTable::fmt(geomean(e_noc), 3),
             TextTable::fmt(geomean(e_pf), 3)});

  std::cout << "\n=== Figure 3a: speedup (paper: geomean ~1.12, ocean "
               "highest, fluidanimate/blackscholes lowest) ===\n"
            << a.to_string();
  std::cout << "\n=== Figure 3b: PF evictions, ALLARM/baseline (paper: ~0.54 "
               "avg; correlates with Figure 2 local fraction) ===\n"
            << b.to_string();
  std::cout << "\n=== Figure 3c: NoC traffic in bytes, ALLARM/baseline "
               "(paper: ~0.88 avg) ===\n"
            << c.to_string();
  std::cout << "\n=== Figure 3d: average messages per PF eviction "
               "(paper: 2-16; shared-heavy benchmarks highest) ===\n"
            << d.to_string();
  std::cout << "\n=== Figure 3e: L2 misses, ALLARM/baseline (paper: ~0.91 "
               "avg) ===\n"
            << e.to_string();
  std::cout << "\n=== Figure 3f: dynamic energy, ALLARM/baseline (paper: "
               "NoC ~0.92, PF ~0.86) ===\n"
            << f.to_string();
  std::cout << "\n=== Figure 3g: remote misses with local probe hidden "
               "(paper: ~0.81 avg) ===\n"
            << g.to_string();
  return 0;
}
