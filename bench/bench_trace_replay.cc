// Trace-pipeline throughput benchmark.
//
// Captures one synthetic benchmark run to a temporary .altr trace, then
// measures the trace pipeline stage by stage, in records per second:
//
//   read       raw block streaming: every record block loaded and
//              CRC-verified, payloads undecoded (the I/O + checksum floor);
//   decode     full record iteration through TraceCursors (read + the
//              varint/delta codec);
//   replay     a complete simulation replaying the trace (the trace-driven
//              sweep cell cost);
//   synthetic  the equivalent direct synthetic simulation (what replay is
//              measured against — replay ~= synthetic means the trace
//              front-end adds nothing to cell cost).
//
// The report reuses BENCH_kernel.json's schema (version 1) with
// "bench": "trace_replay" and events = records processed, so
// scripts/check_bench.py gates it with the same machinery against
// bench/baseline/BENCH_trace_replay.json.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_cli.hh"
#include "common/stats.hh"
#include "core/experiment.hh"
#include "trace/reader.hh"
#include "trace/replay.hh"
#include "workload/profiles.hh"

namespace allarm::bench {
namespace {

struct Options {
  std::uint64_t accesses = 2000;  ///< ROI accesses/thread of the captured run.
  int reps = 3;
  std::string out = "BENCH_trace_replay.json";
  std::string only;
  std::string workload = "dedup";
};

struct StageResult {
  std::string name;
  std::uint64_t records = 0;
  double wall_seconds = 0.0;
  double records_per_sec = 0.0;
  double ns_per_record = 0.0;
};

template <typename Fn>
StageResult measure(const std::string& name, std::uint64_t records, int reps,
                    Fn&& stage) {
  StageResult r;
  r.name = name;
  r.records = records;
  r.wall_seconds = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    stage();
    const auto t1 = std::chrono::steady_clock::now();
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    if (secs < r.wall_seconds) r.wall_seconds = secs;
  }
  r.records_per_sec =
      r.wall_seconds > 0.0 ? static_cast<double>(records) / r.wall_seconds
                           : 0.0;
  r.ns_per_record =
      records > 0 ? r.wall_seconds * 1e9 / static_cast<double>(records) : 0.0;
  return r;
}

std::string to_json(const std::vector<StageResult>& results,
                    const Options& opt) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"bench\": \"trace_replay\",\n";
  out << "  \"schema_version\": 1,\n";
  out << meta_json();
  out << "  \"accesses_per_thread\": " << opt.accesses << ",\n";
  out << "  \"reps\": " << opt.reps << ",\n";
  out << "  \"workloads\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const StageResult& r = results[i];
    out << "    {\n";
    out << "      \"name\": " << json_quote(r.name) << ",\n";
    out << "      \"events\": " << r.records << ",\n";
    out << "      \"wall_seconds\": " << json_number(r.wall_seconds) << ",\n";
    out << "      \"events_per_sec\": " << json_number(r.records_per_sec)
        << ",\n";
    out << "      \"ns_per_event\": " << json_number(r.ns_per_record) << ",\n";
    out << "      \"baseline_events_per_sec\": 0,\n";
    out << "      \"speedup_vs_baseline\": 0,\n";
    out << "      \"event_heap_fallbacks\": 0\n";
    out << "    }" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  {
    std::vector<double> rates;
    for (const StageResult& r : results) rates.push_back(r.records_per_sec);
    out << "  \"geomean_events_per_sec\": " << json_number(geomean(rates))
        << ",\n";
    out << "  \"geomean_speedup_vs_baseline\": 0\n";
  }
  out << "}\n";
  return out.str();
}

int run(const Options& opt) {
  const std::string trace_path = opt.out + ".capture.altr";
  // The capture lands next to --out: fail on an unwritable directory now,
  // with the same message as the report write, not mid-capture.
  write_output("bench_trace_replay", trace_path, "");

  // Capture once (not measured): the trace every stage below consumes.
  core::RunRequest request;
  request.spec =
      workload::make_benchmark(opt.workload, request.config, opt.accesses);
  request.seed = 42;
  request.capture_trace = trace_path;
  std::cerr << "capturing " << opt.workload << " (" << opt.accesses
            << " accesses/thread) -> " << trace_path << "\n";
  core::run_request(request);
  request.capture_trace.clear();

  auto reader = std::make_shared<const trace::TraceReader>(trace_path);
  const std::uint64_t records = reader->total_records();
  std::cerr << "trace: " << records << " records, "
            << reader->blocks().size() << " blocks, " << reader->file_bytes()
            << " bytes\n";

  std::vector<StageResult> results;
  std::uint64_t checksum = 0;  // Defeats dead-code elimination.

  if (selected(opt.only, "read")) {
    results.push_back(measure("read", records, opt.reps, [&] {
      std::string payload;
      for (const trace::IndexEntry& block : reader->blocks()) {
        reader->load_block(block, payload);
        checksum ^= payload.size();
      }
    }));
  }
  if (selected(opt.only, "decode")) {
    results.push_back(measure("decode", records, opt.reps, [&] {
      trace::Record record;
      for (std::uint32_t slot = 0; slot < reader->thread_count(); ++slot) {
        trace::TraceCursor cursor(*reader, slot);
        while (cursor.next(record)) checksum ^= record.access.vaddr;
      }
    }));
  }
  if (selected(opt.only, "replay")) {
    core::RunRequest replay = request;
    replay.replay_trace = trace_path;
    results.push_back(measure("replay", records, opt.reps, [&] {
      checksum ^= core::run_request(replay).runtime;
    }));
  }
  if (selected(opt.only, "synthetic")) {
    results.push_back(measure("synthetic", records, opt.reps, [&] {
      checksum ^= core::run_request(request).runtime;
    }));
  }
  if (checksum == 0xdeadbeef) std::cerr << "";  // Keep `checksum` observable.

  if (results.empty()) {
    std::cerr << "no stage selected by --only " << opt.only << "\n";
    std::remove(trace_path.c_str());
    return 2;
  }

  TextTable table({"stage", "records", "wall_s", "Mrec/s", "ns/record"});
  for (const StageResult& r : results) {
    table.add_row({r.name, std::to_string(r.records),
                   TextTable::fmt(r.wall_seconds, 4),
                   TextTable::fmt(r.records_per_sec / 1e6, 2),
                   TextTable::fmt(r.ns_per_record, 1)});
  }
  std::cout << "Trace pipeline throughput (workload=" << opt.workload
            << ", accesses=" << opt.accesses << ", reps=" << opt.reps << ")\n"
            << table.to_string();

  write_output("bench_trace_replay", opt.out, to_json(results, opt));
  std::cout << "wrote " << opt.out << "\n";
  std::remove(trace_path.c_str());
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
    } else if (arg == "--workload") {
      opt.workload = value();
    } else {
      std::cerr << "usage: bench_trace_replay [--accesses N] [--reps N] "
                   "[--workload NAME] [--only LIST] [--out FILE]\n";
      return arg == "--help" ? 0 : 2;
    }
  }
  return allarm::bench::run(opt);
}
