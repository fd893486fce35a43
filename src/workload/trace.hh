// Trace-file workloads: run the simulator on externally captured access
// traces instead of the synthetic profiles.
//
// Format: plain text, one access per line,
//
//     <thread-id> <L|S|I> <hex-virtual-address>
//
// '#' starts a comment; blank lines are ignored.  Threads are placed on
// core (thread-id mod cores).  trace::write_text_record (trace/convert.hh)
// emits the same format, so users can capture traces from the synthetic
// generators or produce their own with external tools (e.g. a Pin or
// DynamoRIO client).
//
// Loading is streamed through the binary trace subsystem (src/trace/):
// the text file converts line by line into a temporary .altr and replays
// through TraceReplayGenerator, so memory use is one block per thread —
// never the whole trace.  See docs/TRACES.md.
#pragma once

#include <string>

#include "common/config.hh"
#include "workload/spec.hh"

namespace allarm::workload {

/// Builds a workload that replays the text trace at `path`: one thread per
/// distinct thread-id, each replaying its own subsequence in order, placed
/// on core (thread-id mod cores).  `think` is the compute gap between
/// accesses.  Throws std::runtime_error (with a line number) on malformed
/// input and std::invalid_argument on a trace with no records.
WorkloadSpec load_trace_workload(const std::string& path,
                                 const SystemConfig& config,
                                 Tick think = ticks_from_ns(2.0));

}  // namespace allarm::workload
