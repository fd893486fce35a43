// Synthetic memory-access generators.
//
// Each generator produces an infinite stream of virtual-address accesses;
// composition (mixtures, phases) builds realistic multi-threaded access
// patterns out of simple primitives.  All randomness flows through the Rng
// passed to next(), so streams are reproducible.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"

namespace allarm::workload {

/// One generated access (virtual address).
struct Access {
  Addr vaddr = 0;
  AccessType type = AccessType::kLoad;
};

/// Infinite access-stream interface.  `now` is the simulated time at which
/// the access is issued; most generators ignore it, but globally-paced
/// patterns (CreepingShared) use it to stay synchronized across threads.
class AccessGenerator {
 public:
  virtual ~AccessGenerator() = default;
  virtual Access next(Rng& rng, Tick now) = 0;
};

/// Sequentially sweeps [base, base+length) with the given stride, wrapping
/// around forever - the canonical "loop over my array" pattern.  Each access
/// is a store with probability `p_write`.
class SequentialSweep final : public AccessGenerator {
 public:
  SequentialSweep(Addr base, std::uint64_t length, std::uint32_t stride,
                  double p_write);
  Access next(Rng& rng, Tick now) override;

 private:
  Addr base_;
  std::uint64_t length_;
  std::uint32_t stride_;
  double p_write_;
  std::uint64_t offset_ = 0;
};

/// Uniform random line-granular accesses within [base, base+length).
class UniformRandom final : public AccessGenerator {
 public:
  UniformRandom(Addr base, std::uint64_t length, double p_write);
  Access next(Rng& rng, Tick now) override;

 private:
  Addr base_;
  std::uint64_t lines_;
  double p_write_;
};

/// Zipf-skewed page popularity with a uniform line within the page - models
/// hot shared structures such as hash tables.
class ZipfPages final : public AccessGenerator {
 public:
  ZipfPages(Addr base, std::uint64_t num_pages, double alpha, double p_write);
  Access next(Rng& rng, Tick now) override;

 private:
  Addr base_;
  ZipfDistribution pages_;
  double p_write_;
};

/// Sweeps chunk ((step / accesses_per_chunk + phase) mod num_chunks) of a
/// shared region - a deterministic stand-in for pipeline / producer-consumer
/// sharing: threads with different `phase` values visit the same chunks at
/// staggered times.
class ChunkCycle final : public AccessGenerator {
 public:
  ChunkCycle(Addr base, std::uint64_t chunk_bytes, std::uint32_t num_chunks,
             std::uint32_t phase, double p_write);
  Access next(Rng& rng, Tick now) override;

 private:
  /// Current position, strength-reduced: (chunk_, within_line_) advance by
  /// increment-and-wrap, so the per-access 64-bit divide and modulo of the
  /// original step_-based formula never run on the hot path.
  Addr base_;
  std::uint64_t chunk_bytes_;
  std::uint64_t accesses_per_chunk_;  ///< chunk_bytes_ / kLineBytes.
  std::uint32_t num_chunks_;
  double p_write_;
  std::uint64_t within_ = 0;   ///< Line index within the current chunk.
  std::uint32_t chunk_ = 0;    ///< Current chunk (phase already folded in).
};

/// Reads from a window that slowly advances through a large region -
/// modelling an OS that continuously touches fresh shared pages (page
/// cache fills, copy-on-write, buffer churn).  Threads sharing the same
/// parameters advance in loose lockstep, so each line is read by several
/// caches while the window passes over it and its directory entry settles
/// into the silently-droppable Shared state; abandoned lines behind the
/// window are never read again.  This is the continuous supply of stale
/// directory entries that keeps sparse directories full in long-running
/// systems.
class CreepingShared final : public AccessGenerator {
 public:
  /// The window is `window_lines` wide and advances one line every
  /// `advance_period` ticks of simulated time (so all threads see the same
  /// window regardless of their individual progress), wrapping over
  /// `region_bytes`.
  CreepingShared(Addr base, std::uint64_t region_bytes,
                 std::uint32_t window_lines, Tick advance_period,
                 double p_write);
  Access next(Rng& rng, Tick now) override;

 private:
  /// Window base line at `now`, reduced modulo the region once so the
  /// per-access wrap is a compare-and-subtract instead of a 64-bit modulo.
  std::uint64_t head_mod_region(Tick now) const {
    return (now / advance_period_) % region_lines_;
  }

  Addr base_;
  std::uint64_t region_lines_;
  std::uint32_t window_lines_;
  Tick advance_period_;
  double p_write_;
};

/// Runs a sequence of (count, generator) stages, then a tail generator
/// forever.  Used to model warm-up phases (e.g. sweeping the kernel image
/// and the hot working set once before the steady-state mix).
class Phased final : public AccessGenerator {
 public:
  /// Adds a stage executed for exactly `count` accesses.
  void add_stage(std::uint64_t count, std::unique_ptr<AccessGenerator> stage);

  /// Sets the generator used after all stages are exhausted (required).
  void set_tail(std::unique_ptr<AccessGenerator> tail);

  /// Total accesses consumed by the staged prefix.
  std::uint64_t prefix_length() const;

  Access next(Rng& rng, Tick now) override;

 private:
  std::vector<std::pair<std::uint64_t, std::unique_ptr<AccessGenerator>>> stages_;
  std::unique_ptr<AccessGenerator> tail_;
  std::size_t current_ = 0;
  std::uint64_t consumed_in_stage_ = 0;
};

/// Weighted mixture of child generators.
class Mix final : public AccessGenerator {
 public:
  void add(double weight, std::unique_ptr<AccessGenerator> child);
  Access next(Rng& rng, Tick now) override;

 private:
  /// Selects the child for one uniform draw (the draw ordering contract:
  /// one uniform per access, before the child's own draws).
  std::size_t pick_child(double u) const;

  std::vector<std::pair<double, std::unique_ptr<AccessGenerator>>> children_;
  double total_weight_ = 0.0;
};

}  // namespace allarm::workload
