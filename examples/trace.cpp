// trace: capture, inspect and replay .altr binary access traces.
//
//   trace record --workload NAME --out FILE [options]
//       Runs a synthetic benchmark profile once and captures its executed
//       access stream (plus workload metadata and setup page placements)
//       to FILE.  Prints the run's result block to stdout.
//
//   trace info FILE [--json]
//       Prints the trace's metadata: captured workload, seed, mode,
//       policy, per-thread placement and record counts, block/framing
//       geometry.  --json emits the same metadata as one JSON object
//       (stable key order) for scripts.
//
//   trace cat FILE [--limit N]
//       Streams records back out as legacy text ("<tid> <L|S|I> <hex>"),
//       thread by thread.
//
//   trace replay FILE [options]
//       Replays the trace through a fresh simulation and prints the same
//       result block as `record`.  With the defaults (which come from the
//       trace's own metadata: captured mode, policy and seed) the output
//       is byte-identical to the capture run's — the property
//       scripts/ci_trace_smoke.sh checks.
//
//   trace verify FILE [--json]
//       Integrity-scans every structure of the file — framing (header,
//       footer, index, meta) and every record block's CRCs and record
//       decode — and reports ALL damage found, never stopping at the
//       first bad block.  Exit 0 when clean, 1 when anything is damaged.
//
// Options:
//   --workload NAME      benchmark profile to capture (see sweep --list)
//   --mode M             baseline | allarm | region (replay default: as
//                        captured)
//   --policy P           first-touch | interleave (replay default: as
//                        captured)
//   --seed N             run seed (replay default: as captured)
//   --accesses N         ROI accesses per thread for record (default 2000,
//                        or ALLARM_BENCH_ACCESSES)
//   --cores N            replay on N cores (each thread's captured
//                        placement node remaps to node mod N; default:
//                        the captured placement)
//   --out FILE           record: where to write the trace
//   --json               info: machine-readable JSON instead of the table
//
// Result blocks go to stdout; banners and progress to stderr, so
// `trace record ... > a.txt` and `trace replay ... > b.txt` diff cleanly.
#include <cstdint>
#include <cstring>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>

#include "common/config.hh"
#include "common/failpoint.hh"
#include "common/parse.hh"
#include "common/stats.hh"
#include "core/experiment.hh"
#include "trace/convert.hh"
#include "trace/reader.hh"
#include "trace/replay.hh"
#include "workload/profiles.hh"

namespace {

using namespace allarm;

[[noreturn]] void usage(int code) {
  std::cout <<
      "usage: trace record --workload NAME --out FILE [--mode M] [--policy P]"
      " [--seed N] [--accesses N]\n"
      "       trace info FILE [--json]\n"
      "       trace cat FILE [--limit N]\n"
      "       trace replay FILE [--mode M] [--policy P] [--seed N]"
      " [--cores N]\n"
      "       trace verify FILE [--json]\n";
  std::exit(code);
}

struct Options {
  std::string command;
  std::string file;      ///< info/cat/replay positional argument.
  std::string workload;
  std::string out;
  std::string mode;      ///< Empty = default (record: baseline; replay: meta).
  std::string policy;
  std::uint64_t seed = 0;
  bool seed_set = false;
  std::uint64_t accesses = 0;
  std::uint32_t cores = 0;
  std::uint64_t limit = 0;
  bool json = false;
};

Options parse(int argc, char** argv) {
  if (argc < 2) usage(2);
  Options o;
  o.command = argv[1];
  auto value = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage(2);
    return argv[++i];
  };
  for (int i = 2; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--workload") == 0) {
      o.workload = value(i);
    } else if (std::strcmp(arg, "--out") == 0) {
      o.out = value(i);
    } else if (std::strcmp(arg, "--mode") == 0) {
      o.mode = value(i);
    } else if (std::strcmp(arg, "--policy") == 0) {
      o.policy = value(i);
    } else if (std::strcmp(arg, "--seed") == 0) {
      o.seed = parse_u64(arg, value(i));
      o.seed_set = true;
    } else if (std::strcmp(arg, "--accesses") == 0) {
      o.accesses = parse_u64(arg, value(i));
    } else if (std::strcmp(arg, "--cores") == 0) {
      o.cores = parse_u32(arg, value(i));
    } else if (std::strcmp(arg, "--limit") == 0) {
      o.limit = parse_u64(arg, value(i));
    } else if (std::strcmp(arg, "--json") == 0) {
      o.json = true;
    } else if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      usage(0);
    } else if (arg[0] == '-') {
      std::cerr << "unknown option '" << arg << "'\n";
      usage(2);
    } else if (o.file.empty()) {
      o.file = arg;
    } else {
      std::cerr << "unexpected argument '" << arg << "'\n";
      usage(2);
    }
  }
  return o;
}

DirectoryMode parse_mode(const std::string& text) {
  if (text == "baseline") return DirectoryMode::kBaseline;
  if (text == "allarm") return DirectoryMode::kAllarm;
  if (text == "region") return DirectoryMode::kRegion;
  throw std::invalid_argument("unknown mode '" + text +
                              "' (want baseline|allarm|region)");
}

numa::AllocPolicy parse_policy(const std::string& text) {
  if (text == "first-touch") return numa::AllocPolicy::kFirstTouch;
  if (text == "interleave") return numa::AllocPolicy::kInterleave;
  throw std::invalid_argument("unknown policy '" + text +
                              "' (want first-touch|interleave)");
}

const char* mode_name(std::uint32_t mode) {
  if (mode == static_cast<std::uint32_t>(DirectoryMode::kAllarm)) {
    return "allarm";
  }
  if (mode == static_cast<std::uint32_t>(DirectoryMode::kRegion)) {
    return "region";
  }
  return "baseline";
}

const char* policy_name(std::uint32_t policy) {
  return policy == static_cast<std::uint32_t>(numa::AllocPolicy::kInterleave)
             ? "interleave"
             : "first-touch";
}

/// The canonical result block: deterministic for a deterministic run, so
/// record/replay outputs can be compared byte for byte.  Excludes
/// execution metadata (wall_ns).
void print_result(const std::string& workload, const core::RunResult& r) {
  std::cout << "workload " << workload << "\n";
  std::cout << "runtime_ns " << json_number(ns_from_ticks(r.runtime)) << "\n";
  for (const auto& [name, value] : r.stats.values()) {
    std::cout << name << " " << json_number(value) << "\n";
  }
}

int cmd_record(const Options& o) {
  if (o.workload.empty() || o.out.empty()) {
    std::cerr << "record requires --workload and --out\n";
    usage(2);
  }
  core::RunRequest request;
  request.mode = o.mode.empty() ? DirectoryMode::kBaseline : parse_mode(o.mode);
  request.policy = o.policy.empty() ? numa::AllocPolicy::kFirstTouch
                                    : parse_policy(o.policy);
  request.seed = o.seed_set ? o.seed : 1;
  const std::uint64_t accesses =
      o.accesses > 0 ? o.accesses : core::bench_accesses(2000);
  request.spec =
      workload::make_benchmark(o.workload, request.config, accesses);
  request.capture_trace = o.out;

  std::cerr << "recording " << o.workload << " (mode " << to_string(request.mode)
            << ", seed " << request.seed << ", " << accesses
            << " accesses/thread) -> " << o.out << "\n";
  const core::RunResult result = core::run_request(request);
  print_result(o.workload, result);

  const trace::TraceReader reader(o.out);
  std::cerr << "wrote " << o.out << ": " << reader.total_records()
            << " records, " << reader.blocks().size() << " blocks, "
            << reader.file_bytes() << " bytes\n";
  return 0;
}

/// `trace info --json`: the same metadata as the human block, one JSON
/// object with a fixed key order so scripts can diff it.
void print_info_json(const std::string& file, const trace::TraceReader& reader) {
  const trace::TraceMeta& meta = reader.meta();
  std::cout << "{\n";
  std::cout << "  \"file\": " << json_quote(file) << ",\n";
  std::cout << "  \"workload\": " << json_quote(meta.workload) << ",\n";
  std::cout << "  \"captured_mode\": "
            << json_quote(mode_name(meta.directory_mode)) << ",\n";
  std::cout << "  \"captured_policy\": "
            << json_quote(policy_name(meta.alloc_policy)) << ",\n";
  std::cout << "  \"captured_seed\": "
            << json_number(static_cast<double>(meta.seed)) << ",\n";
  std::cout << "  \"threads\": "
            << json_number(static_cast<double>(reader.thread_count())) << ",\n";
  std::cout << "  \"records\": "
            << json_number(static_cast<double>(reader.total_records()))
            << ",\n";
  std::cout << "  \"blocks\": "
            << json_number(static_cast<double>(reader.blocks().size()))
            << ",\n";
  std::cout << "  \"setup_touches\": "
            << json_number(static_cast<double>(meta.setup.size())) << ",\n";
  std::cout << "  \"file_bytes\": "
            << json_number(static_cast<double>(reader.file_bytes())) << ",\n";
  std::cout << "  \"thread_table\": [\n";
  for (std::uint32_t slot = 0; slot < reader.thread_count(); ++slot) {
    const trace::TraceThreadMeta& t = meta.threads[slot];
    std::cout << "    {\"thread\": " << t.id << ", \"asid\": " << t.asid
              << ", \"node\": " << t.node
              << ", \"warmup\": " << t.warmup_accesses
              << ", \"roi\": " << t.accesses
              << ", \"records\": " << reader.thread_records(slot)
              << ", \"think_ns\": "
              << json_number(ns_from_ticks(t.think))
              << ", \"jitter\": " << json_number(t.think_jitter) << "}"
              << (slot + 1 < reader.thread_count() ? "," : "") << "\n";
  }
  std::cout << "  ]\n";
  std::cout << "}\n";
}

int cmd_info(const Options& o) {
  if (o.file.empty()) usage(2);
  const trace::TraceReader reader(o.file);
  if (o.json) {
    print_info_json(o.file, reader);
    return 0;
  }
  const trace::TraceMeta& meta = reader.meta();
  std::cout << "file            " << o.file << "\n";
  std::cout << "workload        " << meta.workload << "\n";
  std::cout << "captured_mode   " << mode_name(meta.directory_mode) << "\n";
  std::cout << "captured_policy " << policy_name(meta.alloc_policy) << "\n";
  std::cout << "captured_seed   " << meta.seed << "\n";
  std::cout << "threads         " << reader.thread_count() << "\n";
  std::cout << "records         " << reader.total_records() << "\n";
  std::cout << "blocks          " << reader.blocks().size() << "\n";
  std::cout << "setup_touches   " << meta.setup.size() << "\n";
  std::cout << "file_bytes      " << reader.file_bytes() << "\n";
  TextTable table({"thread", "asid", "node", "warmup", "roi", "records",
                   "think_ns", "jitter"});
  for (std::uint32_t slot = 0; slot < reader.thread_count(); ++slot) {
    const trace::TraceThreadMeta& t = meta.threads[slot];
    table.add_row({std::to_string(t.id), std::to_string(t.asid),
                   std::to_string(t.node), std::to_string(t.warmup_accesses),
                   std::to_string(t.accesses),
                   std::to_string(reader.thread_records(slot)),
                   TextTable::fmt(ns_from_ticks(t.think), 2),
                   TextTable::fmt(t.think_jitter, 2)});
  }
  std::cout << table.to_string();
  return 0;
}

int cmd_verify(const Options& o) {
  if (o.file.empty()) usage(2);
  const trace::VerifyReport report = trace::verify_trace(o.file);
  if (o.json) {
    std::cout << "{\n";
    std::cout << "  \"file\": " << json_quote(o.file) << ",\n";
    std::cout << "  \"file_bytes\": " << report.file_bytes << ",\n";
    std::cout << "  \"framing_ok\": " << (report.framing_ok ? "true" : "false")
              << ",\n";
    std::cout << "  \"blocks_total\": " << report.blocks_total << ",\n";
    std::cout << "  \"blocks_ok\": " << report.blocks_ok << ",\n";
    std::cout << "  \"records_ok\": " << report.records_ok << ",\n";
    std::cout << "  \"issues\": [";
    for (std::size_t i = 0; i < report.issues.size(); ++i) {
      if (i > 0) std::cout << ",";
      std::cout << "\n    {\"offset\": " << report.issues[i].offset
                << ", \"what\": " << json_quote(report.issues[i].what) << "}";
    }
    if (!report.issues.empty()) std::cout << "\n  ";
    std::cout << "]\n";
    std::cout << "}\n";
  } else {
    std::cout << "file         " << o.file << "\n";
    std::cout << "file_bytes   " << report.file_bytes << "\n";
    std::cout << "framing      " << (report.framing_ok ? "ok" : "DAMAGED")
              << "\n";
    std::cout << "blocks       " << report.blocks_ok << "/"
              << report.blocks_total << " ok\n";
    std::cout << "records      " << report.records_ok << " decoded\n";
    for (const trace::VerifyIssue& issue : report.issues) {
      std::cout << "issue @" << issue.offset << ": " << issue.what << "\n";
    }
    std::cout << (report.ok() ? "clean\n" : "CORRUPT\n");
  }
  return report.ok() ? 0 : 1;
}

int cmd_cat(const Options& o) {
  if (o.file.empty()) usage(2);
  const trace::TraceReader reader(o.file);
  trace::write_text_trace(reader, std::cout, o.limit);
  return 0;
}

int cmd_replay(const Options& o) {
  if (o.file.empty()) usage(2);
  auto reader = std::make_shared<const trace::TraceReader>(o.file);
  const trace::TraceMeta& meta = reader->meta();

  core::RunRequest request;
  request.mode = o.mode.empty()
                     ? static_cast<DirectoryMode>(meta.directory_mode)
                     : parse_mode(o.mode);
  request.policy = o.policy.empty()
                       ? static_cast<numa::AllocPolicy>(meta.alloc_policy)
                       : parse_policy(o.policy);
  request.seed = o.seed_set ? o.seed : meta.seed;

  std::cerr << "replaying " << o.file << " (" << reader->total_records()
            << " records, mode " << to_string(request.mode) << ", seed "
            << request.seed << ")\n";
  const workload::WorkloadSpec spec =
      trace::make_replay_workload(reader, request.config, o.cores);
  const core::RunResult result = core::run_single(
      request.config, request.mode, spec, request.seed, request.policy);
  print_result(meta.workload, result);
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  // Deterministic fault injection for crash-path testing (the spec
  // grammar is documented in docs/ROBUSTNESS.md).
  const std::string failpoints = allarm::failpoint::configure_from_env();
  if (!failpoints.empty()) {
    std::cerr << "failpoints active: " << failpoints << "\n";
  }
  Options options;
  try {
    options = parse(argc, argv);
  } catch (const std::invalid_argument& e) {  // A malformed number.
    std::cerr << e.what() << "\n";
    usage(2);
  }
  if (options.command == "record") return cmd_record(options);
  if (options.command == "info") return cmd_info(options);
  if (options.command == "cat") return cmd_cat(options);
  if (options.command == "replay") return cmd_replay(options);
  if (options.command == "verify") return cmd_verify(options);
  if (options.command == "--help" || options.command == "-h") usage(0);
  std::cerr << "unknown command '" << options.command << "'\n";
  usage(2);
} catch (const std::exception& e) {
  std::cerr << "trace: " << e.what() << "\n";
  return 1;
}
