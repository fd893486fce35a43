// Calibration / inspection tool: runs one workload under baseline and
// ALLARM and dumps the full statistic set side by side, with ratios.
//
//   ./calibrate [benchmark|<name>-2p] [accesses] [pf-kb]
//
// A malformed number, a probe filter the configuration rejects or an
// unknown benchmark name is a usage error (exit 2).
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <stdexcept>
#include <string>

#include "common/config.hh"
#include "common/parse.hh"
#include "core/experiment.hh"
#include "workload/profiles.hh"

int main(int argc, char** argv) {
  using namespace allarm;

  const std::string bench = argc > 1 ? argv[1] : "ocean-cont";
  std::uint64_t accesses = 30000;
  std::uint32_t pf_kb = 512;
  SystemConfig config;
  workload::WorkloadSpec spec;
  try {
    if (argc > 2) accesses = parse_u64("accesses", argv[2]);
    // Capped so the coverage in bytes fits its 32-bit field.
    if (argc > 3) {
      pf_kb = static_cast<std::uint32_t>(
          parse_u64("pf-kb", argv[3], UINT32_MAX / 1024));
    }
    config.probe_filter_coverage_bytes = pf_kb * 1024;
    config.validate();
    if (bench.size() > 3 && bench.substr(bench.size() - 3) == "-2p") {
      spec = workload::make_multiprocess(bench.substr(0, bench.size() - 3),
                                         config, accesses);
    } else {
      spec = workload::make_benchmark(bench, config, accesses);
    }
  } catch (const std::logic_error& e) {  // invalid_argument, out_of_range.
    std::cerr << "calibrate: " << e.what() << '\n';
    return 2;
  }

  const core::PairResult pair = core::run_pair(config, spec, 42);

  std::cout << std::left << std::setw(36) << "stat" << std::setw(16)
            << "baseline" << std::setw(16) << "allarm" << "ratio\n";
  for (const auto& [name, base_value] : pair.baseline.stats.values()) {
    const double a = pair.allarm.stats.get(name);
    std::cout << std::left << std::setw(36) << name << std::setw(16)
              << base_value << std::setw(16) << a << std::fixed
              << std::setprecision(3)
              << (base_value != 0.0 ? a / base_value : 0.0)
              << std::defaultfloat << '\n';
  }
  std::cout << "\nspeedup " << std::fixed << std::setprecision(4)
            << pair.speedup() << '\n';
  return 0;
}
