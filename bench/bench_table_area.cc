// The probe-filter area table (Section III-B): die area of all 16 probe
// filters as the per-node coverage shrinks, i.e. the SRAM that ALLARM can
// hand back to the last-level cache when a smaller filter suffices.
#include <iostream>
#include <map>

#include "bench_cli.hh"
#include "energy/model.hh"

int main(int argc, char** argv) {
  using namespace allarm;
  bench::no_args(argc, argv);
  const std::map<std::uint32_t, double> paper_area{
      {512, 70.89}, {256, 26.95}, {128, 19.90}, {64, 8.20}, {32, 5.93}};
  TextTable t({"PF configuration", "model area (mm^2)", "paper (McPAT, mm^2)"});
  for (const std::uint32_t kb : {512u, 256u, 128u, 64u, 32u}) {
    t.add_row({std::to_string(kb) + "kB",
               TextTable::fmt(
                   energy::EnergyModel::probe_filter_area_mm2(kb * 1024, 16), 2),
               TextTable::fmt(paper_area.at(kb), 2)});
  }
  std::cout << "\n=== Probe-filter area vs coverage (16 directories) ===\n"
            << t.to_string()
            << "\nModel: power law fitted to the paper's five McPAT points "
               "(least squares in log space);\nendpoints match closely, "
               "mid-range deviates where the paper's own data is "
               "non-monotone in density.\n";
  return 0;
}
