// Quickstart: build the Table I system, run one benchmark profile under the
// baseline and under ALLARM, and print the headline metrics.
//
//   ./quickstart [benchmark] [accesses-per-thread]
//
// Defaults: ocean-cont, 20000 accesses per thread.  A malformed count or
// an unknown benchmark name is a usage error (exit 2).
#include <iostream>
#include <stdexcept>
#include <string>

#include "common/config.hh"
#include "common/parse.hh"
#include "common/stats.hh"
#include "core/experiment.hh"
#include "workload/profiles.hh"

int main(int argc, char** argv) {
  using namespace allarm;

  const std::string bench = argc > 1 ? argv[1] : "ocean-cont";
  SystemConfig config;  // Table I defaults: 16 cores, 4x4 mesh, 512kB PF.
  std::uint64_t accesses = 20000;
  workload::WorkloadSpec spec;
  try {
    if (argc > 2) accesses = parse_u64("accesses-per-thread", argv[2]);
    spec = workload::make_benchmark(bench, config, accesses);
  } catch (const std::logic_error& e) {  // invalid_argument, out_of_range.
    std::cerr << "quickstart: " << e.what() << '\n';
    return 2;
  }

  std::cout << "Running '" << bench << "' (" << accesses
            << " accesses/thread) on a " << config.mesh_width << "x"
            << config.mesh_height << " mesh, "
            << config.probe_filter_coverage_bytes / 1024
            << " kB probe filter per node...\n\n";

  const core::PairResult pair = core::run_pair(config, spec, /*seed=*/42);

  TextTable table({"metric", "baseline", "ALLARM", "ALLARM/baseline"});
  auto row = [&](const std::string& name, const std::string& stat,
                 int precision = 0) {
    table.add_row({name,
                   TextTable::fmt(pair.baseline.stats.get(stat), precision),
                   TextTable::fmt(pair.allarm.stats.get(stat), precision),
                   TextTable::fmt(pair.normalized(stat), 3)});
  };
  row("runtime (ns)", "runtime_ns");
  row("PF evictions", "dir.pf_evictions");
  row("NoC traffic (bytes)", "noc.bytes");
  row("L2 misses", "cache.misses");
  row("NoC energy (nJ)", "energy.noc_nj", 1);
  row("PF energy (nJ)", "energy.pf_nj", 1);
  std::cout << table.to_string() << '\n';

  std::cout << "speedup:                      "
            << TextTable::fmt(pair.speedup(), 3) << "\n";
  std::cout << "local fraction of requests:   "
            << TextTable::fmt(
                   pair.baseline.stats.get("dir.local_fraction"), 3)
            << "\n";
  std::cout << "local misses w/o allocation:  "
            << pair.allarm.stats.get("dir.local_no_alloc") << "\n";
  std::cout << "local probe hidden fraction:  "
            << TextTable::fmt(
                   pair.allarm.stats.get("dir.probe_hidden_fraction"), 3)
            << "\n";
  return 0;
}
