// Small helpers shared by the benchmark's translation units: host clocks,
// order statistics, file I/O inside the work directory, and the metric
// table the benchmark prints.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace allarm::perfbench {

/// Monotonic host seconds (steady_clock).
double now_s();

/// Median of `values` (0 when empty).
double median(std::vector<double> values);

/// Peak resident set size of this process, in MiB: since the last
/// reset_peak_rss() where Linux supports resetting it, else since start.
double peak_rss_mib();

/// Restarts the peak-RSS high-water mark at the current resident size
/// (/proc/self/clear_refs); a no-op where unsupported.
void reset_peak_rss();

/// Whole file as bytes; throws std::runtime_error when unreadable.
std::string read_file(const std::string& path);

/// FNV-1a/64 of `bytes`, continuing from `seed` (0 = fresh hash).
std::uint64_t fnv64(const std::string& bytes, std::uint64_t seed = 0);

/// 16-digit lowercase hex.
std::string hex64(std::uint64_t value);

/// Creates `path` (and parents); throws std::runtime_error on failure.
void make_dirs(const std::string& path);

/// Removes `path` recursively; missing paths are fine.
void remove_tree(const std::string& path);

/// Total duration (seconds) and count of each span name in a Chrome
/// trace-event file written by obs::Timeline::write, over the spans that
/// started before `before_us` (microseconds since the timeline was armed).
struct SpanTotal {
  double seconds = 0.0;
  std::uint64_t count = 0;
};
std::map<std::string, SpanTotal> read_span_totals(const std::string& path,
                                                  double before_us);

/// One printed metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< Printed beside the value in the table only.
};

/// Metrics in print order; a name may be added once.
class MetricList {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "");
  const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
  std::set<std::string> names_;
};

/// Round-trip decimal form of `value` (JSON-safe: non-finite becomes 0).
std::string json_number(double value);

}  // namespace allarm::perfbench
