// Unit and integration tests for trace-file workloads: the text format
// (scanned by trace::TextTraceScanner and streamed through the binary
// .altr subsystem by load_trace_workload) and capture/replay round trips
// through core::System.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "trace/convert.hh"
#include "trace/reader.hh"
#include "workload/profiles.hh"
#include "workload/trace.hh"

namespace allarm::workload {
namespace {

std::vector<trace::TextRecord> scan(const std::string& text) {
  std::istringstream in(text);
  trace::TextTraceScanner scanner(in);
  std::vector<trace::TextRecord> records;
  trace::TextRecord record;
  while (scanner.next(record)) records.push_back(record);
  return records;
}

/// Writes `text` to a fresh file under the test temp directory.
class TextTraceFile {
 public:
  TextTraceFile(const char* name, const std::string& text)
      : path_(testing::TempDir() + "/allarm_trace_" + name + ".txt") {
    std::ofstream(path_) << text;
  }
  ~TextTraceFile() { std::remove(path_.c_str()); }
  TextTraceFile(const TextTraceFile&) = delete;
  TextTraceFile& operator=(const TextTraceFile&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(TraceParse, ParsesWellFormedLines) {
  const auto records = scan(
      "# a comment\n"
      "0 L 40000000\n"
      "1 S 40000040\n"
      "\n"
      "0 I deadbeef  # trailing comment\n");
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].thread, 0u);
  EXPECT_EQ(records[0].access.type, AccessType::kLoad);
  EXPECT_EQ(records[0].access.vaddr, 0x40000000u);
  EXPECT_EQ(records[1].access.type, AccessType::kStore);
  EXPECT_EQ(records[2].access.type, AccessType::kInstFetch);
  EXPECT_EQ(records[2].access.vaddr, 0xdeadbeefu);
}

TEST(TraceParse, AcceptsLowercaseTypes) {
  EXPECT_EQ(scan("0 l 10\n0 s 20\n0 i 30\n").size(), 3u);
}

TEST(TraceParse, RejectsMalformedLines) {
  EXPECT_THROW(scan("0 X 40000000\n"), std::runtime_error);
  EXPECT_THROW(scan("0 L\n"), std::runtime_error);
  EXPECT_THROW(scan("0 L zzz\n"), std::runtime_error);
  // Loading a file goes through the same scanner.
  SystemConfig config;
  const TextTraceFile bad("malformed", "0 L 1000\n0 X 40000000\n");
  EXPECT_THROW(load_trace_workload(bad.path(), config), std::runtime_error);
}

TEST(TraceParse, RoundTripsThroughWriter) {
  const auto records = scan("0 L 1000\n3 S 2fc0\n0 I 3000\n");
  std::ostringstream out;
  for (const trace::TextRecord& r : records) {
    trace::write_text_record(out, r.thread, r.access);
  }
  const auto reparsed = scan(out.str());
  ASSERT_EQ(reparsed.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(reparsed[i].thread, records[i].thread);
    EXPECT_EQ(reparsed[i].access.vaddr, records[i].access.vaddr);
    EXPECT_EQ(reparsed[i].access.type, records[i].access.type);
  }
}

TEST(TraceWorkload, BuildsOneThreadPerId) {
  const TextTraceFile file("ids",
                           "0 L 40000000\n"
                           "2 L 80000000\n"
                           "0 S 40000040\n");
  SystemConfig config;
  const auto spec = load_trace_workload(file.path(), config);
  ASSERT_EQ(spec.threads.size(), 2u);
  EXPECT_EQ(spec.threads[0].accesses, 2u);
  EXPECT_EQ(spec.threads[1].accesses, 1u);
  EXPECT_EQ(spec.threads[1].node, 2);
}

TEST(TraceWorkload, RejectsEmptyTrace) {
  SystemConfig config;
  const TextTraceFile empty("empty", "# comments only\n\n");
  EXPECT_THROW(load_trace_workload(empty.path(), config),
               std::invalid_argument);
}

TEST(TraceWorkload, WrapsThreadIdsOntoCores) {
  const TextTraceFile file("wrap", "20 L 1000\n");
  SystemConfig config;
  const auto spec = load_trace_workload(file.path(), config);
  EXPECT_EQ(spec.threads[0].node, 20 % 16);
}

TEST(TraceWorkload, RunsEndToEndUnderBothModes) {
  // A private stream per thread plus one shared line they fight over.
  std::ostringstream trace;
  for (int t = 0; t < 4; ++t) {
    for (int i = 0; i < 50; ++i) {
      trace << t << " " << (i % 3 == 0 ? 'S' : 'L') << " "
            << std::hex << (0x40000000ull * (t + 1) + i * 64) << std::dec
            << "\n";
      trace << t << " S " << std::hex << 0x7000000000ull << std::dec << "\n";
    }
  }
  SystemConfig config;
  const TextTraceFile file("modes", trace.str());
  const auto spec = load_trace_workload(file.path(), config);
  for (auto mode : {DirectoryMode::kBaseline, DirectoryMode::kAllarm}) {
    const auto r = core::run_single(config, mode, spec, 3);
    EXPECT_GT(r.runtime, 0u);
    EXPECT_EQ(r.stats.get("sanity.upgrade_without_line"), 0.0);
    EXPECT_EQ(r.stats.get("sanity.wbb_collisions"), 0.0);
  }
}

TEST(TraceWorkload, ThreadOrderInTheFileDoesNotMatter) {
  // Threads register in order of first appearance but are seeded in id
  // order, so the same per-thread streams written with the ids descending
  // or ascending must build the same workload and the same run.
  const auto text = [](int first, int step) {
    std::ostringstream out;
    for (int t = first; t >= 0 && t < 4; t += step) {
      for (int i = 0; i < 40; ++i) {
        out << t << " " << (i % 4 == 0 ? 'S' : 'L') << " " << std::hex
            << (0x50000000ull * (t + 1) + i * 64) << std::dec << "\n";
      }
    }
    return out.str();
  };
  const TextTraceFile descending("descending", text(3, -1));
  const TextTraceFile ascending("ascending", text(0, 1));
  SystemConfig config;
  const auto a = load_trace_workload(descending.path(), config);
  const auto b = load_trace_workload(ascending.path(), config);

  ASSERT_EQ(a.threads.size(), 4u);
  ASSERT_EQ(a.threads.size(), b.threads.size());
  for (std::size_t i = 0; i < a.threads.size(); ++i) {
    EXPECT_EQ(a.threads[i].id, i);
    EXPECT_EQ(a.threads[i].id, b.threads[i].id);
    EXPECT_EQ(a.threads[i].node, b.threads[i].node);
    EXPECT_EQ(a.threads[i].accesses, b.threads[i].accesses);
  }
  const auto ra = core::run_single(config, DirectoryMode::kBaseline, a, 5);
  const auto rb = core::run_single(config, DirectoryMode::kBaseline, b, 5);
  EXPECT_EQ(ra.runtime, rb.runtime);
  EXPECT_EQ(ra.stats.values(), rb.stats.values());
}

// ------------------------------------------------------- capture / replay ----

namespace {

/// A small fast profile covering the interesting generator shapes (Mix,
/// Phased warm-up, CreepingShared time dependence) without the stock
/// profiles' multi-second warm-ups.
workload::WorkloadSpec tiny_profile(const SystemConfig& config,
                                    double think_jitter) {
  workload::ProfileParams p;
  p.name = "tiny";
  p.hot_bytes = 16 * 1024;
  p.cold_bytes = 32 * 1024;
  p.kernel_bytes = 128 * 1024;
  p.kernel_advance_ns = 40.0;
  p.shared_bytes = 64 * 1024;
  p.think_jitter = think_jitter;
  return workload::make_from_params(p, config, /*accesses_per_thread=*/250,
                                    /*num_threads=*/4);
}

std::string capture_path(const char* name) {
  return testing::TempDir() + "/allarm_capture_" + name + ".altr";
}

void expect_identical(const core::RunResult& a, const core::RunResult& b) {
  EXPECT_EQ(a.runtime, b.runtime);
  EXPECT_EQ(a.thread_finish, b.thread_finish);
  EXPECT_EQ(a.stats.values(), b.stats.values());
}

}  // namespace

TEST(TraceCapture, CaptureIsInvisibleAndReplayIsByteIdentical) {
  SystemConfig config;
  core::RunRequest direct;
  direct.config = config;
  direct.spec = tiny_profile(config, /*think_jitter=*/0.3);
  direct.seed = 11;

  core::RunRequest capturing = direct;
  capturing.capture_trace = capture_path("jitter");

  const core::RunResult a = core::run_request(direct);
  const core::RunResult b = core::run_request(capturing);
  expect_identical(a, b);  // Capture must not perturb the run.

  core::RunRequest replaying = direct;
  replaying.replay_trace = capturing.capture_trace;
  const core::RunResult c = core::run_request(replaying);
  expect_identical(a, c);  // Replay reproduces it byte for byte.

  // The trace records exactly the executed accesses.
  const trace::TraceReader reader(capturing.capture_trace);
  std::uint64_t expected_records = 0;
  for (const auto& ts : direct.spec.threads) {
    expected_records += ts.accesses + ts.warmup_accesses;
  }
  EXPECT_EQ(reader.total_records(), expected_records);
  EXPECT_EQ(reader.meta().workload, "tiny");
  EXPECT_GT(reader.meta().setup.size(), 0u);
  std::remove(capturing.capture_trace.c_str());
}

TEST(TraceCapture, JitterFreeCaptureAndReplayAreByteIdentical) {
  // think_jitter = 0: no think-time draws interleave with the generators'
  // draws, so each record's draw count is the generator's alone.  Capture
  // must still be invisible and replay must still reproduce exactly.
  SystemConfig config;
  core::RunRequest direct;
  direct.config = config;
  direct.spec = tiny_profile(config, /*think_jitter=*/0.0);
  direct.seed = 13;

  core::RunRequest capturing = direct;
  capturing.capture_trace = capture_path("nojitter");
  const core::RunResult a = core::run_request(direct);
  const core::RunResult b = core::run_request(capturing);
  expect_identical(a, b);

  core::RunRequest replaying = direct;
  replaying.replay_trace = capturing.capture_trace;
  expect_identical(a, core::run_request(replaying));
  std::remove(capturing.capture_trace.c_str());
}

TEST(TraceCapture, ReplayReproducesAllarmAndInterleavePolicy) {
  SystemConfig config;
  core::RunRequest direct;
  direct.config = config;
  direct.mode = DirectoryMode::kAllarm;
  direct.policy = numa::AllocPolicy::kInterleave;
  direct.spec = tiny_profile(config, /*think_jitter=*/0.3);
  direct.seed = 17;

  core::RunRequest capturing = direct;
  capturing.capture_trace = capture_path("allarm");
  const core::RunResult a = core::run_request(capturing);

  core::RunRequest replaying = direct;
  replaying.replay_trace = capturing.capture_trace;
  expect_identical(a, core::run_request(replaying));
  std::remove(capturing.capture_trace.c_str());
}

TEST(TraceWorkload, AllarmStillSkipsLocalAllocations) {
  std::ostringstream trace;
  for (int i = 0; i < 100; ++i) {
    trace << "0 L " << std::hex << (0x40000000ull + i * 64) << std::dec
          << "\n";
  }
  SystemConfig config;
  const TextTraceFile file("local", trace.str());
  const auto spec = load_trace_workload(file.path(), config);
  const auto r = core::run_single(config, DirectoryMode::kAllarm, spec, 3);
  EXPECT_EQ(r.stats.get("pf.inserts"), 0.0);
  EXPECT_EQ(r.stats.get("dir.local_no_alloc"), 100.0);
}

}  // namespace
}  // namespace allarm::workload
