// Outside-in layer drives: each simulator layer's public classes driven
// alone, from the benchmark, with the workload's own inputs.  They give a
// host cost per operation for every layer; multiplied by the operation
// counts the simulations report, these estimate each layer's share of a
// simulation's host time without instrumenting the simulator.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace allarm::perfbench {

/// Inputs of the drives: the workload's profiles, run length and seed, and
/// the traces it replays (if any).
struct DriveInputs {
  std::vector<std::string> profiles;
  std::uint64_t accesses = 0;  ///< ROI accesses per thread.
  std::uint64_t seed = 1;
  std::vector<std::string> traces;
};

/// Host nanoseconds per operation, each the median over repetitions.
struct LayerCosts {
  /// sim::EventQueue schedule_at + run_one, per event, at the Table-I
  /// machine's latency mix.
  double queue_ns = 0.0;
  /// workload::AccessGenerator::next, per access.
  double generator_ns = 0.0;
  /// cache::Hierarchy locate + touch/promote/fill, per access.
  double cache_lookup_ns = 0.0;
  /// cache::Hierarchy::invalidate, per call.
  double cache_invalidate_ns = 0.0;
  /// coherence::ProbeFilter lookup/touch/update/displace/insert/erase, per
  /// call.
  double pf_ns = 0.0;
  /// region::RTracker touch/erase, per call.
  double region_ns = 0.0;
  /// noc::Mesh::send, per message.
  double mesh_ns = 0.0;
  /// trace::TraceCursor::next, per record (0 without traces).
  double trace_ns = 0.0;
};

/// Runs every drive `reps` times.  Records one obs span per drive and
/// repetition when the timeline is enabled.
LayerCosts drive_layers(const DriveInputs& inputs, int reps);

}  // namespace allarm::perfbench
