#include "trace/replay.hh"

#include <stdexcept>

namespace allarm::trace {

TraceReplayGenerator::TraceReplayGenerator(
    std::shared_ptr<const TraceReader> reader, std::uint32_t slot)
    : cursor_(std::move(reader), slot) {}

workload::Access TraceReplayGenerator::next(Rng& rng, Tick) {
  Record record;
  if (!cursor_.next(record)) {
    throw std::logic_error("TraceReplayGenerator: ran past the end of the "
                           "trace");
  }
  // Burn the draws the original generator consumed so the thread's rng
  // stream stays in lockstep with the captured run.
  for (std::uint32_t i = 0; i < record.rng_draws; ++i) rng.next();
  return record.access;
}

workload::WorkloadSpec make_replay_workload(
    std::shared_ptr<const TraceReader> reader, const SystemConfig& config,
    std::uint32_t cores) {
  if (cores == 0) cores = config.num_cores;
  if (cores == 0 || cores > config.num_nodes()) {
    throw std::invalid_argument(
        "make_replay_workload: cores must be in [1, " +
        std::to_string(config.num_nodes()) + "]");
  }
  const TraceMeta& meta = reader->meta();
  if (meta.threads.empty()) {
    throw std::invalid_argument("make_replay_workload: trace has no threads");
  }

  workload::WorkloadSpec spec;
  spec.name = meta.workload;
  for (std::uint32_t slot = 0; slot < meta.threads.size(); ++slot) {
    const TraceThreadMeta& t = meta.threads[slot];
    const std::uint64_t records = reader->thread_records(slot);
    if (t.accesses + t.warmup_accesses != records) {
      throw std::runtime_error(
          "trace " + reader->path() + ": thread " + std::to_string(t.id) +
          " metadata claims " + std::to_string(t.accesses + t.warmup_accesses) +
          " accesses but " + std::to_string(records) + " records are stored");
    }
    workload::ThreadSpec ts;
    ts.id = t.id;
    ts.asid = t.asid;
    ts.node = static_cast<NodeId>(t.node % cores);
    ts.accesses = t.accesses;
    ts.warmup_accesses = t.warmup_accesses;
    ts.think = t.think;
    ts.think_jitter = t.think_jitter;
    ts.start_offset = t.start_offset;
    ts.make_generator = [reader, slot] {
      return std::make_unique<TraceReplayGenerator>(reader, slot);
    };
    spec.threads.push_back(std::move(ts));
  }
  if (!meta.setup.empty()) {
    spec.setup = [reader, cores](numa::Os& os) {
      for (const SetupTouch& touch : reader->meta().setup) {
        os.touch(touch.asid, addr_of_page(touch.vpage),
                 static_cast<NodeId>(touch.node % cores));
      }
    };
  }
  return spec;
}

}  // namespace allarm::trace
