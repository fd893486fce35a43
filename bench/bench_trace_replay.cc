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
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_cli.hh"
#include "trace/reader.hh"
#include "trace/replay.hh"
#include "workload/profiles.hh"

int main(int argc, char** argv) {
  using namespace allarm;
  const char* const kBench = "bench_trace_replay";
  const bench::Options opt = bench::parse_options(
      kBench, argc, argv, 2000, "BENCH_trace_replay.json", "dedup");
  const std::string trace_path = opt.out + ".capture.altr";
  // The capture lands next to --out: fail on an unwritable directory now,
  // with the same message as the report write, not mid-capture.
  bench::write_output(kBench, trace_path, "");

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

  std::vector<bench::Row> rows;
  std::uint64_t checksum = 0;  // Defeats dead-code elimination.
  const auto stage = [&](const char* name, auto&& body) {
    if (bench::selected(opt.only, name)) {
      rows.push_back({name, records, bench::best_of(opt.reps, body), 0});
    }
  };
  stage("read", [&] {
    std::string payload;
    for (const trace::IndexEntry& block : reader->blocks()) {
      reader->load_block(block, payload);
      checksum ^= payload.size();
    }
  });
  stage("decode", [&] {
    trace::Record record;
    for (std::uint32_t slot = 0; slot < reader->thread_count(); ++slot) {
      trace::TraceCursor cursor(*reader, slot);
      while (cursor.next(record)) checksum ^= record.access.vaddr;
    }
  });
  core::RunRequest replay = request;
  replay.replay_trace = trace_path;
  stage("replay", [&] { checksum ^= core::run_request(replay).runtime; });
  stage("synthetic", [&] { checksum ^= core::run_request(request).runtime; });
  if (checksum == 0xdeadbeef) std::cerr << "";  // Keep `checksum` observable.

  reader.reset();
  std::remove(trace_path.c_str());
  bench::report(kBench, "trace_replay", "Trace pipeline throughput", opt,
                rows);
  return 0;
}
