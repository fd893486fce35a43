// Directory sizing study: how small can the sparse directory get?
//
// The paper's multi-process experiment (Section III-B) shows that with
// ALLARM the probe filter can shrink 4-16x before performance reacts,
// because thread-private data no longer occupies entries.  This example
// sweeps the probe-filter coverage for a multi-process workload and prints
// evictions and runtime for both policies, plus the area handed back at
// each step (the McPAT-style model from the paper's area table).
//
//   ./directory_sizing [benchmark] [accesses-per-thread]
#include <cstdint>
#include <iostream>
#include <stdexcept>
#include <string>

#include "common/config.hh"
#include "common/parse.hh"
#include "common/stats.hh"
#include "core/experiment.hh"
#include "energy/model.hh"
#include "workload/profiles.hh"

int main(int argc, char** argv) {
  using namespace allarm;

  const std::string bench = argc > 1 ? argv[1] : "ocean-cont";
  std::uint64_t accesses = 40000;
  try {
    if (argc > 2) accesses = parse_u64("accesses-per-thread", argv[2]);
    workload::benchmark_params(bench);
  } catch (const std::logic_error& e) {  // invalid_argument, out_of_range.
    std::cerr << "directory_sizing: " << e.what() << '\n';
    return 2;
  }

  std::cout << "Directory sizing study: two single-threaded copies of '"
            << bench << "'\n\n";

  TextTable table({"PF size", "area (mm^2)", "base evictions",
                   "ALLARM evictions", "base runtime (ms)",
                   "ALLARM runtime (ms)"});
  for (const std::uint32_t kb : {512u, 256u, 128u, 64u, 32u}) {
    SystemConfig config;
    config.probe_filter_coverage_bytes = kb * 1024;
    const auto spec = workload::make_multiprocess(bench, config, accesses);
    const core::PairResult pair = core::run_pair(config, spec, 42);
    table.add_row(
        {std::to_string(kb) + "kB",
         TextTable::fmt(
             energy::EnergyModel::probe_filter_area_mm2(kb * 1024, 16), 2),
         TextTable::fmt(pair.baseline.stats.get("dir.pf_evictions"), 0),
         TextTable::fmt(pair.allarm.stats.get("dir.pf_evictions"), 0),
         TextTable::fmt(pair.baseline.stats.get("runtime_ns") / 1e6, 3),
         TextTable::fmt(pair.allarm.stats.get("runtime_ns") / 1e6, 3)});
  }
  std::cout << table.to_string()
            << "\nBaseline eviction counts explode once the directory cannot "
               "cover the cached\nfootprint; ALLARM tracks only the (small) "
               "shared footprint, so the same shrink\nleaves execution "
               "nearly untouched - the SRAM saved (area column) can return "
               "to\nthe last-level cache.\n";

  // Region-granularity alternative: keep the probe filter at a fixed size
  // and coarsen the tracking granularity for private data instead.  The
  // table compares per-block entries spent, the region-table area of the
  // equivalent-SRAM model, and runtime across region sizes (64 B = one
  // line = the per-block degenerate case).
  std::cout << "\nRegion-granularity directory (probe filter fixed at 256kB,"
               " scheme 'region'):\n\n";
  TextTable region_table({"region", "table area (mm^2)", "pf evictions",
                          "region hits", "collapses", "runtime (ms)"});
  for (const std::uint32_t bytes : {64u, 256u, 1024u, 4096u}) {
    SystemConfig config;
    config.probe_filter_coverage_bytes = 256 * 1024;
    config.region_size_bytes = bytes;
    const auto spec = workload::make_multiprocess(bench, config, accesses);
    const core::RunResult run =
        core::run_single(config, DirectoryMode::kRegion, spec, 42);
    region_table.add_row(
        {std::to_string(bytes) + "B",
         TextTable::fmt(energy::EnergyModel::region_directory_area_mm2(
                            256 * 1024, bytes, 16), 2),
         TextTable::fmt(run.stats.get("dir.pf_evictions"), 0),
         TextTable::fmt(run.stats.get("region.hits"), 0),
         TextTable::fmt(run.stats.get("region.collapses"), 0),
         TextTable::fmt(run.stats.get("runtime_ns") / 1e6, 3)});
  }
  std::cout << region_table.to_string()
            << "\nCoarser regions serve private misses from a shrinking "
               "region table instead of\nper-block entries: probe-filter "
               "pressure drops with region size while sharing\nshows up as "
               "collapses.  See docs/DIRECTORY.md.\n";
  return 0;
}
