// Workload-generator throughput benchmark.
//
// Measures the raw access-generation front-end in isolation — no event
// kernel, no coherence, just AccessGenerator sampling — so regressions in
// the per-access cost of the generators (the serial-profile bottleneck
// after PR 2 made the kernel allocation-free) are visible directly rather
// than diluted behind simulation work.
//
// Each generator is measured as <name>/next: one virtual next() call per
// access, the path core::System issues every access through.
//
// The report reuses BENCH_kernel.json's schema (version 1) with
// "bench": "generator_throughput", and events = accesses generated, so
// scripts/check_bench.py gates it with the same machinery.
#include <cstdint>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_cli.hh"
#include "workload/generator.hh"
#include "workload/profiles.hh"

namespace {

using namespace allarm;
using workload::AccessGenerator;

/// The generator zoo: fresh instances per measurement so internal position
/// state starts identically for every rep.
std::unique_ptr<AccessGenerator> make_generator(const std::string& kind) {
  constexpr std::uint64_t kMiB = 1024 * 1024;
  if (kind == "sweep") {
    return std::make_unique<workload::SequentialSweep>(0x1000, 4 * kMiB,
                                                       kLineBytes, 0.3);
  }
  if (kind == "uniform") {
    return std::make_unique<workload::UniformRandom>(0x1000, 4 * kMiB, 0.3);
  }
  if (kind == "zipf") {
    return std::make_unique<workload::ZipfPages>(0x1000, 1024, 0.9, 0.2);
  }
  if (kind == "chunk") {
    return std::make_unique<workload::ChunkCycle>(0x1000, 96 * 1024, 16, 3,
                                                  0.25);
  }
  if (kind == "creep") {
    return std::make_unique<workload::CreepingShared>(
        0x1000, 48 * kMiB, 256, ticks_from_ns(30.0), 0.0);
  }
  if (kind == "profile") {
    // The full ocean-cont thread-0 generator: warm-up Phased stages over a
    // steady-state Mix — what the simulator actually issues from.
    SystemConfig config;
    const workload::WorkloadSpec spec =
        workload::make_benchmark("ocean-cont", config, 1000);
    return spec.threads[0].make_generator();
  }
  throw std::invalid_argument("unknown generator kind: " + kind);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Options opt =
      bench::parse_options("bench_generator_throughput", argc, argv,
                           2'000'000, "BENCH_generator.json");
  std::vector<bench::Row> rows;
  std::uint64_t checksum = 0;  // Defeats dead-code elimination.
  for (const char* kind :
       {"sweep", "uniform", "zipf", "chunk", "creep", "profile"}) {
    const std::string name = std::string(kind) + "/next";
    if (!bench::selected(opt.only, name) && !bench::selected(opt.only, kind)) {
      continue;
    }
    std::unique_ptr<AccessGenerator> gen;
    const double secs = bench::best_of(
        opt.reps,
        [&] {
          Rng rng(42);
          // Advance simulated time ~2 ns per access so CreepingShared pays
          // its real head-advance arithmetic instead of a constant-folded
          // head.
          Tick now = 0;
          for (std::uint64_t done = 0; done < opt.accesses; ++done) {
            checksum ^= gen->next(rng, now).vaddr;
            now += 2 * kTicksPerNs;
          }
        },
        [&] { gen = make_generator(kind); });
    rows.push_back({name, opt.accesses, secs, 0});
  }
  if (checksum == 0xdeadbeef) std::cerr << "";  // Keep `checksum` observable.
  bench::report("bench_generator_throughput", "generator_throughput",
                "Generator throughput", opt, rows);
  return 0;
}
