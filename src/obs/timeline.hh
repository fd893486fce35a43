// Flight recorder: low-overhead wall-clock span timelines.
//
// The simulator's own clock (Tick) answers "where do simulated
// picoseconds go"; this layer answers "where does *wall* time go" — per
// simulation run, per sweep job, per journal fsync, per service poll.
// Spans are recorded into lock-free per-thread rings and serialized at
// process end as Chrome trace-event JSON (`--timeline out.json`), which
// loads directly in Perfetto / chrome://tracing.
//
// Cost model, because this is always compiled in:
//   - disabled (the default): OBS_SPAN is one relaxed atomic load and a
//     predicted-untaken branch — the same budget as an inactive failpoint;
//   - enabled: two steady_clock reads plus one array store per span.  No
//     locks and no allocation on the record path; a thread's ring is
//     allocated once, on its first span.
//
// Ring overflow keeps the FIRST kRingCapacity spans per thread and counts
// the rest in `dropped()` — a truncated timeline is loudly truncated, it
// never reallocates or stalls the instrumented thread.  Span names and
// categories must be string literals (the ring stores the pointers).
//
// Timeline::write() polls the `obs.timeline` failpoint and absorbs every
// I/O error into a loud stderr line + `false` return: observability output
// must never fail a run that computed correct results (docs/ROBUSTNESS.md).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace allarm::obs {

/// Process-wide span recorder.  All methods are thread-safe.
class Timeline {
 public:
  static constexpr std::uint32_t kRingCapacity = 16384;  ///< Spans/thread.

  /// True when span recording is armed (relaxed load; the hot-path gate).
  static bool enabled() {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Arms recording and anchors t=0.  Idempotent.
  static void enable();

  /// Disarms recording and discards every buffered span (tests only; a
  /// CLI run enables once and writes once at exit).
  static void reset();

  /// Monotonic nanoseconds since enable().
  static std::uint64_t now_ns();

  /// Records one completed span.  `name` and `cat` must be string
  /// literals.  No-op (minus the drop counter) when the ring is full.
  static void record(const char* name, const char* cat,
                     std::uint64_t start_ns, std::uint64_t dur_ns,
                     std::uint64_t arg = kNoArg);

  /// Spans buffered across all threads; dropped spans not included.
  static std::uint64_t span_count();

  /// Spans lost to ring overflow across all threads.
  static std::uint64_t dropped();

  /// Serializes every buffered span as Chrome trace-event JSON to `path`
  /// (write-to-temp + rename, so the file is whole or absent).  On any
  /// failure — including the `obs.timeline` failpoint — logs one loud
  /// error line and returns false; it never throws.  The run's own
  /// results are unaffected either way.
  static bool write(const std::string& path);

  /// Sentinel for "span has no numeric argument".
  static constexpr std::uint64_t kNoArg = ~std::uint64_t{0};

 private:
  static std::atomic<bool> enabled_;
};

/// RAII span: times construction → destruction onto the current thread's
/// ring.  Disabled recorders cost the constructor's relaxed load only.
class SpanScope {
 public:
  SpanScope(const char* name, const char* cat,
            std::uint64_t arg = Timeline::kNoArg)
      : armed_(Timeline::enabled()), name_(name), cat_(cat), arg_(arg),
        start_ns_(armed_ ? Timeline::now_ns() : 0) {}

  ~SpanScope() {
    if (armed_) {
      Timeline::record(name_, cat_, start_ns_,
                       Timeline::now_ns() - start_ns_, arg_);
    }
  }

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  bool armed_;
  const char* name_;
  const char* cat_;
  std::uint64_t arg_;
  std::uint64_t start_ns_;
};

#define ALLARM_OBS_CONCAT2(a, b) a##b
#define ALLARM_OBS_CONCAT(a, b) ALLARM_OBS_CONCAT2(a, b)

/// Times the enclosing scope as span `name` under category `cat`.
#define OBS_SPAN(name, cat) \
  ::allarm::obs::SpanScope ALLARM_OBS_CONCAT(obs_span_, __LINE__)(name, cat)

/// Like OBS_SPAN with a numeric argument (job index, window ordinal, ...)
/// attached as `args.n` in the trace event.
#define OBS_SPAN_N(name, cat, arg)                                   \
  ::allarm::obs::SpanScope ALLARM_OBS_CONCAT(obs_span_, __LINE__)(   \
      name, cat, static_cast<std::uint64_t>(arg))

}  // namespace allarm::obs
