// Table I: the simulated system configuration.
//
// Prints the configuration the simulator instantiates (which defaults to
// the paper's Table I).
#include <iostream>

#include "bench_cli.hh"

int main(int argc, char** argv) {
  using namespace allarm;
  bench::no_args(argc, argv);
  SystemConfig c;
  c.validate();
  TextTable t({"parameter", "value", "paper (Table I)"});
  auto kb = [](std::uint64_t b) { return std::to_string(b / 1024) + "kB"; };
  t.add_row({"cores", std::to_string(c.num_cores), "16"});
  t.add_row({"frequency", TextTable::fmt(c.core_freq_ghz, 0) + " GHz", "2 GHz"});
  t.add_row({"block size", std::to_string(kLineBytes) + " B", "64 bytes"});
  t.add_row({"cache access latency",
             TextTable::fmt(ns_from_ticks(c.l1d.latency), 0) + " ns", "1 ns"});
  t.add_row({"ICache", kb(c.l1i.size_bytes) + ", " +
                           std::to_string(c.l1i.ways) + "-way",
             "32kB, 4-way"});
  t.add_row({"DCache", kb(c.l1d.size_bytes) + ", " +
                           std::to_string(c.l1d.ways) + "-way",
             "32kB, 4-way"});
  t.add_row({"L2Cache", kb(c.l2.size_bytes) + ", " +
                            std::to_string(c.l2.ways) + "-way (exclusive)",
             "256kB 4-way (exclusive)"});
  t.add_row({"directory coverage", kb(c.probe_filter_coverage_bytes),
             "tracks 512kB of cached data"});
  t.add_row({"directory latency",
             TextTable::fmt(ns_from_ticks(c.probe_filter_latency), 0) + " ns",
             "1 ns"});
  t.add_row({"memory",
             std::to_string(c.dram_total_bytes >> 30) + " GB, " +
                 TextTable::fmt(ns_from_ticks(c.dram_latency), 0) + " ns",
             "2GB, 60ns"});
  t.add_row({"topology", std::to_string(c.mesh_width) + "x" +
                             std::to_string(c.mesh_height) + " mesh",
             "4x4 Mesh"});
  t.add_row({"flit size", std::to_string(c.flit_bytes) + " bytes", "4 bytes"});
  t.add_row({"control msg", std::to_string(c.control_msg_bytes) + " bytes",
             "8 bytes"});
  t.add_row({"data msg", std::to_string(c.data_msg_bytes) + " bytes",
             "72 bytes"});
  t.add_row({"link bandwidth",
             TextTable::fmt(c.link_bandwidth_gbps, 0) + " GB/s", "8 GB/s"});
  t.add_row({"link latency",
             TextTable::fmt(ns_from_ticks(c.link_latency), 0) + " ns",
             "10 ns"});
  std::cout << "\n=== Table I: simulated system ===\n" << t.to_string();
  return 0;
}
