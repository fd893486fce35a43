// Streaming .altr trace reader.
//
// A TraceReader validates the file framing once (header, footer, block
// index, meta block — all CRC-checked) and is immutable afterwards, so
// any number of cursors — across threads, across concurrently running
// simulations — can share one reader: all per-position state lives in the
// TraceCursor, and block loads go through positional pread.
//
// A cursor keeps exactly one decoded block resident (its payload buffer
// is reused across block loads, so steady-state iteration allocates
// nothing once it reaches the largest block's size).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/fileio.hh"
#include "trace/format.hh"

namespace allarm::trace {

class TraceReader {
 public:
  /// Opens and validates `path`; throws std::runtime_error on a missing
  /// footer, bad magic/version, or any framing CRC mismatch.
  explicit TraceReader(const std::string& path);

  const TraceMeta& meta() const { return meta_; }
  std::uint32_t thread_count() const {
    return static_cast<std::uint32_t>(meta_.threads.size());
  }
  std::uint64_t total_records() const { return total_records_; }

  /// Records stored for one thread slot (sum of its blocks' counts).
  std::uint64_t thread_records(std::uint32_t slot) const {
    return thread_records_.at(slot);
  }

  /// All record blocks, in file order.
  const std::vector<IndexEntry>& blocks() const { return index_; }

  /// One thread's record blocks, in stream (first_index) order.
  const std::vector<IndexEntry>& thread_blocks(std::uint32_t slot) const {
    return thread_blocks_.at(slot);
  }

  /// Reads one block's payload into `payload` (reusing its capacity) and
  /// verifies the header and payload CRCs; throws on any mismatch.
  void load_block(const IndexEntry& block, std::string& payload) const;

  std::uint64_t file_bytes() const { return file_size_; }
  const std::string& path() const { return file_.path(); }

 private:
  File file_;
  std::uint64_t file_size_ = 0;  ///< Immutable after open (read-only file).
  TraceMeta meta_;
  std::vector<IndexEntry> index_;
  std::vector<std::vector<IndexEntry>> thread_blocks_;
  std::vector<std::uint64_t> thread_records_;
  std::uint64_t total_records_ = 0;
};

/// One problem found by verify_trace: where, and what is wrong.
struct VerifyIssue {
  std::uint64_t offset = 0;  ///< File offset of the damaged structure.
  std::string what;          ///< Human-readable description.
};

/// Result of a full-file integrity scan.
struct VerifyReport {
  std::uint64_t file_bytes = 0;
  bool framing_ok = false;       ///< Header, footer, index and meta intact.
  std::uint64_t blocks_total = 0;  ///< Record blocks visited.
  std::uint64_t blocks_ok = 0;     ///< CRC-clean AND fully decodable.
  std::uint64_t records_ok = 0;    ///< Records decoded from clean blocks.
  std::vector<VerifyIssue> issues;

  bool ok() const { return framing_ok && issues.empty(); }
};

/// Scans every structure of `path` — header, footer, block index, meta
/// block, and every record block's header CRC, payload CRC and record
/// decode — and reports ALL damage found, never stopping at the first bad
/// block.  When the framing itself is broken (torn capture, corrupt
/// footer/index), falls back to a best-effort sequential block walk from
/// the header so intact leading blocks are still counted.  Only I/O errors
/// (open/pread failures) throw; corruption is data, not an exception.
VerifyReport verify_trace(const std::string& path);

/// Sequential iterator over one thread's records.
class TraceCursor {
 public:
  /// Owning cursor: keeps the reader alive (the generator/replay case).
  TraceCursor(std::shared_ptr<const TraceReader> reader, std::uint32_t slot);

  /// Non-owning cursor: `reader` must outlive it (stack iteration).
  TraceCursor(const TraceReader& reader, std::uint32_t slot);

  /// Total records in this thread's stream.
  std::uint64_t size() const { return size_; }

  /// Decodes the next record; returns false at end of stream.
  bool next(Record& out);

 private:
  void load_next_block();

  std::shared_ptr<const TraceReader> owner_;  ///< Keep-alive; may be empty.
  const TraceReader* reader_ = nullptr;
  const std::vector<IndexEntry>* blocks_ = nullptr;
  std::uint64_t size_ = 0;
  std::uint64_t position_ = 0;

  // The one resident block.
  std::string payload_;
  Decoder decoder_{};
  Addr prev_vaddr_ = 0;
  std::size_t next_block_ = 0;      ///< Index into blocks_ of the next load.
  std::uint32_t left_in_block_ = 0; ///< Records not yet decoded from it.
};

}  // namespace allarm::trace
