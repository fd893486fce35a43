// Figure 3h: ALLARM speedup as the probe filter shrinks (512kB, 256kB,
// 128kB), every bar normalized to the BASELINE WITH A 512kB probe filter.
//
// Paper shape: blackscholes collapses at 256kB (its CPU0-homed shared data
// loses directory capacity); most others hold; barnes and ocean-contiguous
// stay at or above baseline even at 128kB, i.e. ALLARM enables a 4x smaller
// directory for such workloads.
//
// The built-in "fig3h" grid (benchmark x probe-filter size x mode) runs on
// the sweep runner across ALLARM_JOBS workers; every cell replays the same
// per-benchmark access stream (seeds are config- and mode-blind), so the
// normalization is apples to apples.
#include <iostream>
#include <stdexcept>

#include "bench_cli.hh"
#include "workload/profiles.hh"

int main(int argc, char** argv) {
  using namespace allarm;
  bench::no_args(argc, argv);
  const runner::SweepResult sweep = bench::run_grid("fig3h");
  const auto runtime_of = [&](const std::string& name, const char* size,
                              DirectoryMode mode) {
    const runner::CellResult* cell = sweep.find(name, size, mode);
    if (cell == nullptr) {
      throw std::out_of_range("fig3h sweep has no cell " + name + "/" + size +
                              "/" + to_string(mode));
    }
    return static_cast<double>(cell->runs.at(0).runtime);
  };

  TextTable t({"benchmark", "512kB", "256kB", "128kB"});
  for (const auto& name : workload::benchmark_names()) {
    std::vector<std::string> row{name};
    const double base = runtime_of(name, "512kB", DirectoryMode::kBaseline);
    for (const char* size : {"512kB", "256kB", "128kB"}) {
      row.push_back(TextTable::fmt(
          base / runtime_of(name, size, DirectoryMode::kAllarm), 3));
    }
    t.add_row(row);
  }
  std::cout << "\n=== Figure 3h: ALLARM speedup vs probe-filter size "
               "(normalized to baseline @ 512kB) ===\n"
            << t.to_string()
            << "\nPaper: only blackscholes is strongly affected at 256kB; "
               "ocean-non-cont/x264 degrade at 128kB;\nbarnes and "
               "ocean-contiguous hold baseline performance at 128kB (4x "
               "smaller directory).\n";
  return 0;
}
