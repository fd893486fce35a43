// Figure 2: ratio of local to remote requests reaching the directories,
// per benchmark (measured on the baseline system, averaged over all
// directories - exactly the quantity the paper plots).
#include <iostream>

#include "bench_cli.hh"
#include "workload/profiles.hh"

int main(int argc, char** argv) {
  using namespace allarm;
  bench::no_args(argc, argv);
  const SystemConfig config;
  TextTable t({"benchmark", "local", "remote"});
  for (const auto& name : workload::benchmark_names()) {
    const auto spec = workload::make_benchmark(
        name, config, core::bench_accesses(30000));
    const double local =
        core::run_single(config, DirectoryMode::kBaseline, spec, 42)
            .stats.get("dir.local_fraction");
    t.add_row({name, TextTable::fmt(local, 3), TextTable::fmt(1 - local, 3)});
  }
  std::cout << "\n=== Figure 2: fraction of local vs remote directory "
               "requests (baseline) ===\n"
            << t.to_string()
            << "\nPaper: all benchmarks have a majority of remote accesses "
               "except fluidanimate/ocean,\nwhich are the most NUMA-friendly "
               "(largest local fractions).\n";
  return 0;
}
