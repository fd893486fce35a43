// Event-kernel throughput benchmark.
//
// Measures raw discrete-event throughput (events/sec, ns/event) of the
// simulation kernel across four representative workloads:
//
//   serial        - one thread streaming through its private working set
//                   (the sparse-schedule case: long idle gaps between
//                   events, few of them pending at once);
//   multithreaded - the 16-thread `ocean` profile (dense event interleaving
//                   across all nodes, the sweep runner's common case);
//   migration     - the same profile with periodic thread migration (adds
//                   the System migration tick and cross-node traffic);
//   zipf          - the 16-thread `dedup` profile, whose shared traffic is
//                   Zipf-page sampling (the generator-bound case the
//                   guide-table inverse-CDF accelerates).
//
// Simulations are deterministic, so each measurement is a min-of-N wall
// clock around System::run.  Results are written to BENCH_kernel.json (see
// docs/PERF.md for the schema) so the perf trajectory is tracked in CI.
#include <memory>
#include <string>
#include <vector>

#include "bench_cli.hh"
#include "core/system.hh"
#include "sim/event.hh"
#include "workload/profiles.hh"

namespace {

using namespace allarm;

bench::Row measure(const std::string& name, const SystemConfig& config,
                   const workload::WorkloadSpec& spec,
                   const core::RunOptions& options, std::uint32_t reps) {
  bench::Row r;
  r.name = name;
  const std::uint64_t fallbacks_before = sim::Event::heap_fallbacks();
  std::unique_ptr<core::System> system;
  r.wall_seconds = bench::best_of(
      reps, [&] { system->run(spec, options); },
      [&] { system = std::make_unique<core::System>(config); });
  r.events = system->events().events_executed();
  r.heap_fallbacks = sim::Event::heap_fallbacks() - fallbacks_before;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const char* const kBench = "bench_kernel_throughput";
  bench::check_env(kBench);  // --accesses defaults to ALLARM_BENCH_ACCESSES.
  const bench::Options opt = bench::parse_options(
      kBench, argc, argv, core::bench_accesses(20000), "BENCH_kernel.json");
  const SystemConfig config;
  core::RunOptions ro;
  ro.seed = 42;

  std::vector<bench::Row> rows;
  if (bench::selected(opt.only, "serial")) {
    // Serial: one thread, private-heavy profile, no app sharing.
    workload::ProfileParams params = workload::benchmark_params("ocean-cont");
    params.name = "serial";
    const workload::WorkloadSpec spec =
        workload::make_from_params(params, config, opt.accesses, 1);
    rows.push_back(measure("serial", config, spec, ro, opt.reps));
  }
  if (bench::selected(opt.only, "multithreaded")) {
    // Multithreaded: the full 16-thread profile.
    const workload::WorkloadSpec spec =
        workload::make_benchmark("ocean-cont", config, opt.accesses);
    rows.push_back(measure("multithreaded", config, spec, ro, opt.reps));
  }
  if (bench::selected(opt.only, "migration")) {
    // Migration: multithreaded plus a periodic thread migration tick.
    const workload::WorkloadSpec spec =
        workload::make_benchmark("ocean-cont", config, opt.accesses);
    core::RunOptions migrating = ro;
    migrating.migration_interval = ticks_from_ns(20000.0);  // Every 20 us.
    rows.push_back(measure("migration", config, spec, migrating, opt.reps));
  }
  if (bench::selected(opt.only, "zipf")) {
    // Zipf: dedup's shared structure is Zipf-page popularity — the profile
    // whose per-access sampling cost the guide table attacks.
    const workload::WorkloadSpec spec =
        workload::make_benchmark("dedup", config, opt.accesses);
    rows.push_back(measure("zipf", config, spec, ro, opt.reps));
  }
  bench::report(kBench, "kernel_throughput",
                "Event-kernel throughput", opt, rows);
  return 0;
}
