#include "workload/generator.hh"

#include <stdexcept>

namespace allarm::workload {

namespace {
AccessType pick(Rng& rng, double p_write) {
  return rng.chance(p_write) ? AccessType::kStore : AccessType::kLoad;
}
}  // namespace

// ------------------------------------------------------- SequentialSweep ----

SequentialSweep::SequentialSweep(Addr base, std::uint64_t length,
                                 std::uint32_t stride, double p_write)
    : base_(base), length_(length), stride_(stride), p_write_(p_write) {
  if (length == 0 || stride == 0) {
    throw std::invalid_argument("SequentialSweep: degenerate region");
  }
}

Access SequentialSweep::next(Rng& rng, Tick) {
  const Addr a = base_ + offset_;
  offset_ += stride_;
  if (offset_ >= length_) offset_ = 0;
  return {a, pick(rng, p_write_)};
}

// --------------------------------------------------------- UniformRandom ----

UniformRandom::UniformRandom(Addr base, std::uint64_t length, double p_write)
    : base_(base), lines_(length / kLineBytes), p_write_(p_write) {
  if (lines_ == 0) throw std::invalid_argument("UniformRandom: region too small");
}

Access UniformRandom::next(Rng& rng, Tick) {
  const Addr a = base_ + (rng.below(lines_) << kLineBits);
  return {a, pick(rng, p_write_)};
}

// ------------------------------------------------------------- ZipfPages ----

ZipfPages::ZipfPages(Addr base, std::uint64_t num_pages, double alpha,
                     double p_write)
    : base_(base), pages_(num_pages, alpha), p_write_(p_write) {}

Access ZipfPages::next(Rng& rng, Tick) {
  const std::uint64_t page = pages_(rng);
  const std::uint64_t line = rng.below(kLinesPerPage);
  const Addr a = base_ + (page << kPageBits) + (line << kLineBits);
  return {a, pick(rng, p_write_)};
}

// ------------------------------------------------------------- ChunkCycle ----

ChunkCycle::ChunkCycle(Addr base, std::uint64_t chunk_bytes,
                       std::uint32_t num_chunks, std::uint32_t phase,
                       double p_write)
    : base_(base),
      chunk_bytes_(chunk_bytes),
      accesses_per_chunk_(chunk_bytes / kLineBytes),
      num_chunks_(num_chunks),
      p_write_(p_write),
      chunk_(phase % (num_chunks == 0 ? 1 : num_chunks)) {
  if (chunk_bytes < kLineBytes || num_chunks == 0) {
    throw std::invalid_argument("ChunkCycle: degenerate chunking");
  }
}

Access ChunkCycle::next(Rng& rng, Tick) {
  const Addr a =
      base_ + chunk_ * chunk_bytes_ + (within_ << kLineBits);
  if (++within_ == accesses_per_chunk_) {
    within_ = 0;
    if (++chunk_ == num_chunks_) chunk_ = 0;
  }
  return {a, pick(rng, p_write_)};
}

// ---------------------------------------------------------- CreepingShared ----

CreepingShared::CreepingShared(Addr base, std::uint64_t region_bytes,
                               std::uint32_t window_lines,
                               Tick advance_period, double p_write)
    : base_(base),
      region_lines_(region_bytes / kLineBytes),
      window_lines_(window_lines),
      advance_period_(advance_period),
      p_write_(p_write) {
  if (region_lines_ < window_lines || window_lines == 0 ||
      advance_period == 0) {
    throw std::invalid_argument("CreepingShared: bad geometry");
  }
}

Access CreepingShared::next(Rng& rng, Tick now) {
  std::uint64_t line = head_mod_region(now) + rng.below(window_lines_);
  if (line >= region_lines_) line -= region_lines_;
  return {base_ + (line << kLineBits), pick(rng, p_write_)};
}

// ------------------------------------------------------------------ Phased ----

void Phased::add_stage(std::uint64_t count,
                       std::unique_ptr<AccessGenerator> stage) {
  if (count == 0) return;
  stages_.emplace_back(count, std::move(stage));
}

void Phased::set_tail(std::unique_ptr<AccessGenerator> tail) {
  tail_ = std::move(tail);
}

std::uint64_t Phased::prefix_length() const {
  std::uint64_t total = 0;
  for (const auto& [count, stage] : stages_) total += count;
  return total;
}

Access Phased::next(Rng& rng, Tick now) {
  while (current_ < stages_.size()) {
    auto& [count, stage] = stages_[current_];
    if (consumed_in_stage_ < count) {
      ++consumed_in_stage_;
      return stage->next(rng, now);
    }
    ++current_;
    consumed_in_stage_ = 0;
  }
  if (!tail_) throw std::logic_error("Phased: no tail generator");
  return tail_->next(rng, now);
}

// -------------------------------------------------------------------- Mix ----

void Mix::add(double weight, std::unique_ptr<AccessGenerator> child) {
  if (weight <= 0.0) throw std::invalid_argument("Mix: non-positive weight");
  total_weight_ += weight;
  children_.emplace_back(weight, std::move(child));
}

std::size_t Mix::pick_child(double u) const {
  for (std::size_t i = 0; i < children_.size(); ++i) {
    if (u < children_[i].first) return i;
    u -= children_[i].first;
  }
  return children_.size() - 1;
}

Access Mix::next(Rng& rng, Tick now) {
  if (children_.empty()) throw std::logic_error("Mix: no children");
  const double u = rng.uniform() * total_weight_;
  return children_[pick_child(u)].second->next(rng, now);
}

}  // namespace allarm::workload
