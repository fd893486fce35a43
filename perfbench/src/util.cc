#include "util.hh"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/checksum.hh"

namespace allarm::perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.compare(0, 6, "VmHWM:") == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB.
    }
  }
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

void reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream out;
  out << in.rdbuf();
  if (!in && !in.eof()) throw std::runtime_error("read failed: " + path);
  return out.str();
}

std::uint64_t fnv64(const std::string& bytes, std::uint64_t seed) {
  Fnv1a64 h;
  if (seed != 0) h.update_u64(seed);
  h.update(bytes.data(), bytes.size());
  return h.digest();
}

std::string hex64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

void make_dirs(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  if (ec || !std::filesystem::is_directory(path)) {
    throw std::runtime_error("cannot create directory " + path + ": " +
                             ec.message());
  }
}

void remove_tree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

std::map<std::string, SpanTotal> read_span_totals(const std::string& path,
                                                  double before_us) {
  // Timeline::write emits one event object per line; complete ("X")
  // events carry "name" first, then "ts" and "dur" in microseconds.
  std::map<std::string, SpanTotal> totals;
  std::istringstream in(read_file(path));
  std::string line;
  const std::string name_key = "{\"name\": \"";
  const std::string ts_key = "\"ts\": ";
  const std::string dur_key = "\"dur\": ";
  while (std::getline(in, line)) {
    if (line.compare(0, name_key.size(), name_key) != 0) continue;
    const std::size_t name_end = line.find('"', name_key.size());
    const std::size_t ts_at = line.find(ts_key);
    const std::size_t dur_at = line.find(dur_key);
    if (name_end == std::string::npos || ts_at == std::string::npos ||
        dur_at == std::string::npos) {
      continue;
    }
    if (std::strtod(line.c_str() + ts_at + ts_key.size(), nullptr) >=
        before_us) {
      continue;
    }
    SpanTotal& t =
        totals[line.substr(name_key.size(), name_end - name_key.size())];
    t.seconds +=
        std::strtod(line.c_str() + dur_at + dur_key.size(), nullptr) * 1e-6;
    ++t.count;
  }
  return totals;
}

void MetricList::add(const std::string& name, double value,
                     const std::string& unit, const std::string& note) {
  if (!names_.insert(name).second) {
    throw std::logic_error("metric '" + name + "' added twice");
  }
  metrics_.push_back({name, value, unit, note});
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

}  // namespace allarm::perfbench
