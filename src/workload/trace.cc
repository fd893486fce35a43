#include "workload/trace.hh"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <stdexcept>

#include "trace/convert.hh"
#include "trace/reader.hh"
#include "trace/replay.hh"
#include "trace/writer.hh"

namespace allarm::workload {

namespace {

/// Creates (and returns the path of) an empty unique temp file for the
/// intermediate .altr a text trace streams through.  The file is unlinked
/// as soon as the reader holds it open, so it never outlives the workload.
std::string temp_trace_path() {
  const char* dir = std::getenv("TMPDIR");
  std::string path = std::string(dir != nullptr && *dir != '\0' ? dir : "/tmp") +
                     "/allarm-trace-XXXXXX";
  const int fd = ::mkstemp(path.data());
  if (fd < 0) {
    throw std::runtime_error("cannot create a temporary trace file in " +
                             path);
  }
  ::close(fd);
  return path;
}

/// Deletes its path at scope exit unless the file was already unlinked —
/// a failed conversion must not strand temp .altr files in TMPDIR.
/// Removing an already-removed path is a harmless ENOENT, so the success
/// path (which unlinks as soon as the reader holds the fd) needs no
/// disarming.
struct TempFileGuard {
  std::string path;
  ~TempFileGuard() { std::remove(path.c_str()); }
};

}  // namespace

WorkloadSpec load_trace_workload(const std::string& path,
                                 const SystemConfig& config, Tick think) {
  const std::string tmp = temp_trace_path();
  const TempFileGuard guard{tmp};
  trace::TraceWriter writer(tmp, trace::kDefaultBlockPayloadBytes,
                            /*durable=*/false);
  // One sequential pass, so single-shot inputs (FIFOs, process
  // substitution) keep working; memory use is one text line plus one open
  // block per thread, never the trace.
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open trace file: " + path);
  trace::convert_text_trace(in, writer);
  if (writer.meta().threads.empty()) {
    throw std::invalid_argument("load_trace_workload: empty trace: " + path);
  }

  // Set the per-thread placement/timing metadata the text format does not
  // carry.  Threads are placed on core (id mod cores).
  for (std::uint32_t slot = 0; slot < writer.meta().threads.size(); ++slot) {
    trace::TraceThreadMeta& t = writer.meta().threads[slot];
    t.node = static_cast<NodeId>(t.id % config.num_nodes());
    t.accesses = writer.thread_records(slot);
    t.think = think;
  }
  writer.meta().workload = "trace";
  writer.finish();

  auto reader = std::make_shared<trace::TraceReader>(tmp);
  std::remove(tmp.c_str());  // Reader holds the fd; no file left behind.

  // Writer slots register in input-appearance order (streaming conversion
  // cannot know the id set up front), but thread ORDER in the spec seeds
  // the per-thread rng streams, so the threads are sorted by id: which
  // thread happens to appear first in the input must not change any
  // stream.
  WorkloadSpec spec = trace::make_replay_workload(reader, config);
  std::sort(spec.threads.begin(), spec.threads.end(),
            [](const ThreadSpec& a, const ThreadSpec& b) {
              return a.id < b.id;
            });
  return spec;
}

}  // namespace allarm::workload
