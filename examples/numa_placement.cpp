// NUMA placement study: ALLARM's detection heuristic relies on first-touch
// allocation homing thread-private pages at the toucher's node (Section
// II-A of the paper).  This example runs the same workload under
// first-touch and interleaved placement, with and without ALLARM, and
// shows how the no-allocation fast path and the directory load change.
//
//   ./numa_placement [benchmark] [accesses-per-thread]
#include <cstdint>
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
  std::uint64_t accesses = 15000;
  SystemConfig config;
  workload::WorkloadSpec spec;
  try {
    if (argc > 2) accesses = parse_u64("accesses-per-thread", argv[2]);
    spec = workload::make_benchmark(bench, config, accesses);
  } catch (const std::logic_error& e) {  // invalid_argument, out_of_range.
    std::cerr << "numa_placement: " << e.what() << '\n';
    return 2;
  }

  std::cout << "Placement study on '" << bench << "' (" << accesses
            << " accesses/thread)\n\n";

  TextTable table({"placement", "mode", "local req fraction",
                   "no-alloc fast path", "PF inserts", "PF evictions",
                   "runtime (ms)"});
  for (const auto policy :
       {numa::AllocPolicy::kFirstTouch, numa::AllocPolicy::kInterleave}) {
    for (const auto mode : {DirectoryMode::kBaseline, DirectoryMode::kAllarm}) {
      const core::RunResult r =
          core::run_single(config, mode, spec, /*seed=*/42, policy);
      table.add_row(
          {policy == numa::AllocPolicy::kFirstTouch ? "first-touch"
                                                    : "interleave",
           to_string(mode),
           TextTable::fmt(r.stats.get("dir.local_fraction"), 3),
           TextTable::fmt(r.stats.get("dir.local_no_alloc"), 0),
           TextTable::fmt(r.stats.get("pf.inserts"), 0),
           TextTable::fmt(r.stats.get("dir.pf_evictions"), 0),
           TextTable::fmt(r.stats.get("runtime_ns") / 1e6, 3)});
    }
  }
  std::cout << table.to_string()
            << "\nUnder first-touch, ALLARM turns the (majority) local "
               "requests into allocation-free\nDRAM accesses.  Interleaving "
               "destroys the locality the heuristic depends on:\nthe fast "
               "path starves and the directories fill as in the baseline.\n";

  // Next-touch repair (Section II of the paper): when data is initialized
  // by one thread but used exclusively by another, marking the page
  // next-touch re-homes it at its real consumer - after which ALLARM treats
  // the consumer's accesses as local again.
  {
    numa::Os os(config, numa::AllocPolicy::kFirstTouch);
    const Addr page = 0x1234000;
    os.touch(0, page, /*initializing thread's node=*/0);
    const NodeId before = os.home_of(*os.translate(0, page));
    os.mark_next_touch(0, page);
    os.touch(0, page, /*consuming thread's node=*/9);
    const NodeId after = os.home_of(*os.translate(0, page));
    std::cout << "\nnext-touch demo: page initialized at node " << before
              << ", re-homed at node " << after
              << " when its consumer touched it next.\n";
  }
  return 0;
}
