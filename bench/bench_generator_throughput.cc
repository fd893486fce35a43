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
#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_cli.hh"
#include "common/stats.hh"
#include "core/experiment.hh"
#include "workload/generator.hh"
#include "workload/profiles.hh"

namespace allarm::bench {
namespace {

using workload::AccessGenerator;

struct Options {
  std::uint64_t accesses = 2'000'000;  ///< Accesses per measurement.
  int reps = 3;
  std::string out = "BENCH_generator.json";
  std::string only;  ///< Comma-separated name filter (empty = all).
};

struct GenResult {
  std::string name;
  std::uint64_t accesses = 0;
  double wall_seconds = 0.0;
  double accesses_per_sec = 0.0;
  double ns_per_access = 0.0;
};

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

GenResult measure(const std::string& kind, const Options& opt) {
  GenResult r;
  r.name = kind + "/next";
  r.accesses = opt.accesses;
  r.wall_seconds = 1e300;
  std::uint64_t checksum = 0;  // Defeats dead-code elimination.
  for (int rep = 0; rep < opt.reps; ++rep) {
    auto gen = make_generator(kind);
    Rng rng(42);
    // Advance simulated time ~2 ns per access so CreepingShared pays its
    // real head-advance arithmetic instead of a constant-folded head.
    Tick now = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t done = 0; done < opt.accesses; ++done) {
      checksum ^= gen->next(rng, now).vaddr;
      now += 2 * kTicksPerNs;
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    if (secs < r.wall_seconds) r.wall_seconds = secs;
  }
  if (checksum == 0xdeadbeef) std::cerr << "";  // Keep `checksum` observable.
  r.accesses_per_sec =
      r.wall_seconds > 0.0 ? static_cast<double>(r.accesses) / r.wall_seconds
                           : 0.0;
  r.ns_per_access = r.accesses > 0
                        ? r.wall_seconds * 1e9 / static_cast<double>(r.accesses)
                        : 0.0;
  return r;
}

std::string to_json(const std::vector<GenResult>& results,
                    const Options& opt) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"bench\": \"generator_throughput\",\n";
  out << "  \"schema_version\": 1,\n";
  out << meta_json();
  out << "  \"accesses_per_thread\": " << opt.accesses << ",\n";
  out << "  \"reps\": " << opt.reps << ",\n";
  out << "  \"workloads\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const GenResult& r = results[i];
    out << "    {\n";
    out << "      \"name\": " << json_quote(r.name) << ",\n";
    out << "      \"events\": " << r.accesses << ",\n";
    out << "      \"wall_seconds\": " << json_number(r.wall_seconds) << ",\n";
    out << "      \"events_per_sec\": " << json_number(r.accesses_per_sec)
        << ",\n";
    out << "      \"ns_per_event\": " << json_number(r.ns_per_access) << ",\n";
    out << "      \"baseline_events_per_sec\": 0,\n";
    out << "      \"speedup_vs_baseline\": 0,\n";
    out << "      \"event_heap_fallbacks\": 0\n";
    out << "    }" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  {
    std::vector<double> rates;
    for (const GenResult& r : results) rates.push_back(r.accesses_per_sec);
    out << "  \"geomean_events_per_sec\": " << json_number(geomean(rates))
        << ",\n";
    out << "  \"geomean_speedup_vs_baseline\": 0\n";
  }
  out << "}\n";
  return out.str();
}

int run(const Options& opt) {
  const char* kinds[] = {"sweep", "uniform", "zipf", "chunk", "creep",
                         "profile"};
  std::vector<GenResult> results;
  for (const char* kind : kinds) {
    const std::string name = std::string(kind) + "/next";
    if (!selected(opt.only, name) && !selected(opt.only, kind)) continue;
    results.push_back(measure(kind, opt));
  }
  if (results.empty()) {
    std::cerr << "no generator selected by --only " << opt.only << "\n";
    return 2;
  }

  TextTable table({"generator", "accesses", "wall_s", "Macc/s", "ns/access"});
  for (const GenResult& r : results) {
    table.add_row({r.name, std::to_string(r.accesses),
                   TextTable::fmt(r.wall_seconds, 3),
                   TextTable::fmt(r.accesses_per_sec / 1e6, 2),
                   TextTable::fmt(r.ns_per_access, 1)});
  }
  std::cout << "Generator throughput (accesses=" << opt.accesses
            << ", reps=" << opt.reps << ")\n"
            << table.to_string();

  write_output("bench_generator_throughput", opt.out, to_json(results, opt));
  std::cout << "wrote " << opt.out << "\n";
  return 0;
}

}  // namespace
}  // namespace allarm::bench

int main(int argc, char** argv) {
  allarm::bench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--accesses") {
      opt.accesses = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--reps") {
      opt.reps = std::atoi(value().c_str());
    } else if (arg == "--out") {
      opt.out = value();
    } else if (arg == "--only") {
      opt.only = value();
    } else {
      std::cerr << "usage: bench_generator_throughput [--accesses N] "
                   "[--reps N] [--only LIST] [--out FILE]\n";
      return arg == "--help" ? 0 : 2;
    }
  }
  return allarm::bench::run(opt);
}
