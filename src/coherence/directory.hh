// Per-node directory controller: Hammer-style protocol with a sparse
// directory (probe filter), plus the ALLARM allocation policy.
//
// Transactions are serialized per line: while a request or probe-filter
// eviction for line L is in flight, later requests and writebacks for L
// queue in FIFO order.  This sidesteps transient-state races while
// preserving every quantity the paper measures (allocations, evictions,
// message counts, latencies).
//
// Baseline policy (Hammer + probe filter, AMD HT-Assist style):
//   * every miss allocates an entry; absence of an entry implies the line
//     is uncached anywhere;
//   * clean-exclusive evictions notify the directory and free the entry
//     (the paper's "already optimized" baseline);
//   * probe-filter evictions invalidate the tracked line in all caches
//     (directed probe for EM entries, broadcast for Owned/Shared since
//     Hammer does not track sharer sets).
//
// ALLARM additions (Section II of the paper):
//   * a miss whose requester is the home node's own core is served straight
//     from DRAM with NO entry allocated;
//   * a miss from a remote core additionally probes the home node's local
//     cache (the line may be cached there untracked), in parallel with the
//     speculative DRAM read; the probe is hidden whenever it misses and
//     DRAM is slower (Figure 3g);
//   * ALLARM can be disabled per directory and per physical range
//     (MTRR-like range registers).
#pragma once

#include <cstdint>
#include <variant>
#include <vector>

#include "cache/cache.hh"
#include "coherence/fabric.hh"
#include "coherence/messages.hh"
#include "coherence/probe_filter.hh"
#include "common/config.hh"
#include "common/flat_map.hh"
#include "common/pool.hh"
#include "common/stats.hh"
#include "region/region.hh"

namespace allarm::coherence {

/// Counters exported per directory.
struct DirectoryStats {
  std::uint64_t requests = 0;
  std::uint64_t local_requests = 0;   ///< Requester co-located with directory.
  std::uint64_t remote_requests = 0;  ///< Requester in another affinity domain.
  std::uint64_t queued_ops = 0;       ///< Operations that waited on a busy line.

  std::uint64_t pf_evictions = 0;          ///< Capacity evictions (Figure 3b).
  std::uint64_t eviction_messages = 0;     ///< Probes+acks of eviction flows (Fig 3d).
  std::uint64_t eviction_lines_invalidated = 0;  ///< Cached lines killed by evictions.
  std::uint64_t eviction_dirty_writebacks = 0;

  // ALLARM-specific (all zero in baseline mode).
  std::uint64_t local_no_alloc = 0;        ///< Local misses served without allocation.
  std::uint64_t remote_miss_probes = 0;    ///< Local probes issued (remote PF misses).
  std::uint64_t remote_miss_probe_hidden = 0;  ///< Probe off the critical path (Fig 3g).
  std::uint64_t remote_miss_probe_hit = 0;     ///< Home cache held the line untracked.

  std::uint64_t puts_local_untracked = 0;  ///< Puts for ALLARM-untracked home lines.
  std::uint64_t puts_stale = 0;            ///< Puts that lost a race (entry moved on).
  std::uint64_t puts_owner = 0;            ///< Puts from the tracked owner.
  std::uint64_t anomalies = 0;             ///< Defensive-path activations (expect 0).
  std::uint64_t victim_stalls = 0;         ///< All PF ways pinned; retried later.
};

/// The directory controller for one node.
class DirectoryController {
 public:
  DirectoryController(NodeId node, Fabric& fabric, DirectoryMode mode,
                      std::uint64_t seed);

  NodeId node() const { return node_; }
  DirectoryMode mode() const { return mode_; }

  /// Handles a GetS/GetM arriving now (called at arrival event time).
  void handle_request(const Request& request);

  /// Handles a PutM/PutE arriving now.
  void handle_put(const Put& put);

  const ProbeFilter& probe_filter() const { return pf_; }
  const DirectoryStats& stats() const { return stats_; }
  const region::RegionDirectory& region_directory() const { return region_; }

  /// True when a region entry covers `line` for `holder` (region mode's
  /// relaxation of the baseline "no entry implies uncached" invariant).
  bool region_covers(LineAddr line, NodeId holder) const {
    return region_on_ && region_.covers(line, holder);
  }

  /// True while a transaction for `line` is in flight.
  bool line_busy(LineAddr line) const { return busy_.count(line) != 0; }

  /// True when no transaction is in flight and nothing is queued.
  bool quiescent() const { return busy_.empty() && waiting_.empty(); }

  /// Zeroes all counters, keeping directory contents (ROI boundary).
  void reset_stats() {
    stats_ = DirectoryStats{};
    pf_.reset_stats();
    region_.reset_stats();
  }

  /// Drops all directory state (between experiment repetitions).
  void clear();

  /// Installs a histogram sampling this directory's occupancy (number of
  /// lines with a transaction in flight) at each request arrival.  Null
  /// disables sampling (the default); the caller owns the histogram and
  /// may share one across directories (every event of a run executes on
  /// the thread that called System::run).  See RunOptions::profile.
  void set_occupancy_histogram(Histogram* hist) { occupancy_hist_ = hist; }

 private:
  using QueuedOp = std::variant<Request, Put>;

  /// FIFO of operations waiting on a busy line.  A vector plus head index
  /// rather than std::deque: default construction is allocation-free, so
  /// FlatMap slots holding queues cost nothing until a line actually
  /// contends, and the buffer is reused across drain cycles.
  struct OpQueue {
    std::vector<QueuedOp> ops;
    std::size_t head = 0;

    bool empty() const { return head == ops.size(); }
    void push(QueuedOp op) { ops.push_back(std::move(op)); }
    QueuedOp pop() {
      QueuedOp op = std::move(ops[head]);
      if (++head == ops.size()) {
        ops.clear();
        head = 0;
      }
      return op;
    }
  };

  // --- In-flight transaction state -----------------------------------------
  // One block per transaction, acquired from a free-list pool and released
  // when the transaction completes.  Scheduled closures capture only
  // {this, block pointer}, so every event fits the kernel's inline storage.

  /// An allocating PF miss (the main request path).
  struct MissState {
    Request r{};
    Tick t_victim_done = 0;
    bool waiting_victim = false;
    bool waiting_main = true;
    bool parallel_probe = false;  ///< ALLARM: speculative DRAM read issued.
    Tick t_mem_spec = 0;          ///< Completion of the speculative read.
    Tick t_serve = 0;             ///< When data can leave its source.
    NodeId data_src = 0;
    MsgKind data_kind = MsgKind::kData;
    noc::TrafficCause data_cause = noc::TrafficCause::kResponse;
    cache::LineState grant_state = cache::LineState::kExclusive;
    PfState final_state = PfState::kEM;
    NodeId final_owner = kInvalidNode;
  };

  /// A Hammer invalidation broadcast (GetM against an Owned/Shared entry).
  struct BcastState {
    Request r{};
    std::uint32_t expected = 0;
    std::uint32_t acks = 0;
    Tick t_acks_done = 0;
    Tick t_data = 0;
    bool data_from_owner = false;
    Tick t_mem = 0;      ///< Speculative DRAM read (requester lacks data).
    bool used_dram = false;
  };

  /// A probe-filter victim invalidation flow.
  struct EvictState {
    LineAddr line = 0;
    std::uint32_t expected = 0;
    std::uint32_t acks = 0;
    Tick t_latest = 0;
    MissState* gated = nullptr;  ///< Miss whose reply waits on this victim.
  };

  // --- Plumbing -------------------------------------------------------------
  Tick send(NodeId src, NodeId dst, MsgKind kind, noc::TrafficCause cause,
            Tick when);
  void grant_at(const Request& r, cache::LineState state, bool with_data,
                Tick when);
  /// Schedules the end of the transaction on `line` at time `when`.
  void finish_at(LineAddr line, Tick when);
  /// Releases `line` and processes queued operations.
  void release_and_drain(LineAddr line);

  // --- Request paths ----------------------------------------------------------
  void start_request(const Request& r, Tick now);
  void hit_gets(const Request& r, PfEntry& entry, Tick t);
  void hit_getm(const Request& r, PfEntry& entry, Tick t);
  void hit_getm_broadcast(const Request& r, PfEntry& entry, Tick t);
  void bcast_on_all_acks(BcastState* st);
  void miss(const Request& r, Tick t);
  void miss_local_probe_done(MissState* st);
  /// Completes the miss once neither the victim flow nor the main data
  /// path is outstanding; releases the state block.
  void miss_try_complete(MissState* st);

  /// Directory-side eviction of `victim`.  When `gated` is non-null, that
  /// miss's reply waits for the last invalidation ack.  Marks the victim
  /// line busy for the duration.
  void run_eviction(const PfEntry& victim, Tick t, MissState* gated);

  void process_put(const Put& p, Tick now);

  bool allarm_active_for(LineAddr line) const;

  // --- Region-granularity paths (DirectoryMode::kRegion, src/region/) -------
  /// PF-miss hook: serves region hits, installs/collapses region entries,
  /// or falls through to the ordinary miss().
  void region_miss(const Request& r, Tick t);
  /// Grants a region-covered miss straight from home memory (no PF entry).
  void region_serve(const Request& r, Tick t);
  /// Walks a withdrawn entry's presence bits into per-block PF entries
  /// (or pending installs / spills), then restarts `r` as a normal miss.
  void region_collapse(const Request& r, region::RegionEntry victim, Tick t);
  /// Installs a per-block entry for a line the region owner holds; when no
  /// way is free, invalidates the copy instead (a collapse spill).
  void region_install_block(LineAddr line, NodeId owner, Tick t);
  /// Owner writeback of a region-granted line: clears its presence bit.
  /// False when the line is not region-covered for this writer.
  bool region_put(const Put& p, Tick t);
  /// PF-entry removal bookkeeping (eviction or owner writeback): the last
  /// block entry of a region may trigger recollection.
  void region_note_entry_removed(const PfEntry& removed);

  NodeId node_;
  Fabric& fabric_;
  DirectoryMode mode_;
  ProbeFilter pf_;
  region::RegionDirectory region_;
  /// Dual-granularity machinery live: region mode with regions wider than
  /// one line.  At region size == line size every hook below is skipped and
  /// the controller runs the baseline protocol verbatim.
  bool region_on_ = false;
  /// Collapse found the line mid-transaction (a region grant in flight):
  /// the per-block entry is installed when the line is released, before any
  /// queued operation can observe the un-tracked window.
  FlatMap<LineAddr, NodeId> pending_installs_;
  DirectoryStats stats_;
  Histogram* occupancy_hist_ = nullptr;  ///< Occupancy-at-arrival sink.
  FlatSet<LineAddr> busy_;
  FlatMap<LineAddr, OpQueue> waiting_;
  Pool<MissState> miss_pool_;
  Pool<BcastState> bcast_pool_;
  Pool<EvictState> evict_pool_;
};

}  // namespace allarm::coherence
