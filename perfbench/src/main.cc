// allarm_perfbench: the repository benchmark (see ../README.md).
//
//   allarm_perfbench --workload fig3-grid|ocean-solo|region-replay
//                    --seed N --seconds S --trace 0|1
//                    [--accesses N] [--work-dir DIR] [--timeline FILE]
//                    [--tamper trace|digest]
//
// Runs the workload's set-up several times, then repeats its fixed batch
// of simulations for S seconds and checks every output.  --trace 0 prints
// the end-to-end metrics; --trace 1 additionally records obs spans, drives
// each layer alone and prints the per-layer metrics.  The last line of
// standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status: 0 when every check passed, 1 when a check failed or the run
// could not complete, 2 on a usage error or an unusable output path.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/fileio.hh"
#include "obs/timeline.hh"
#include "sim/event.hh"
#include "trace/reader.hh"
#include "layers.hh"
#include "util.hh"
#include "workloads.hh"

namespace allarm::perfbench {
namespace {

/// Least host time spent repeating set-up (a cheap set-up is tens of
/// microseconds; one repetition alone would be mostly timer noise).
constexpr double kMinSetupSeconds = 0.25;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::uint64_t accesses = 0;
  std::string work_dir = ".bench_build/perfbench-work";
  std::string timeline;  ///< Default: .bench_build/perfbench-<workload>.trace.json
  std::string tamper;
};

/// A bad command line or an unusable output path: reported with exit 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

const char kUsage[] =
    "usage: allarm_perfbench --workload fig3-grid|ocean-solo|region-replay\n"
    "                        --seed N --seconds S --trace 0|1\n"
    "                        [--accesses N] [--work-dir DIR] "
    "[--timeline FILE]\n"
    "                        [--tamper trace|digest]\n";

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0' || text[0] == '-') {
    throw UsageError(flag + " needs a non-negative integer, got '" + text +
                     "'");
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw UsageError(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = parse_u64(flag, value);
    } else if (flag == "--seconds") {
      char* end = nullptr;
      args.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args.seconds > 0.0)) {
        throw UsageError("--seconds needs a positive number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw UsageError("--trace is 0 or 1");
      args.trace = value == "1" ? 1 : 0;
    } else if (flag == "--accesses") {
      args.accesses = parse_u64(flag, value);
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--timeline") {
      args.timeline = value;
    } else if (flag == "--tamper") {
      if (value != "trace" && value != "digest") {
        throw UsageError("--tamper is trace or digest");
      }
      args.tamper = value;
    } else {
      throw UsageError("unknown flag " + flag);
    }
  }
  if (!have_workload) throw UsageError("--workload is required");
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
    throw UsageError("unknown workload '" + args.workload + "'");
  }
  if (args.tamper == "trace" && args.workload != "region-replay") {
    throw UsageError("--tamper trace applies to region-replay only");
  }
  if (args.timeline.empty()) {
    args.timeline =
        ".bench_build/perfbench-" + args.workload + ".trace.json";
    make_dirs(".bench_build");
  }
  return args;
}

/// Rejects an output path the timeline could not be written to, before
/// any work is done: a missing parent directory, a directory, or an
/// existing file that is not a regular file (a device such as /dev/null
/// would be replaced by the write-then-rename).
void check_output_path(const std::string& path) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::path p(path);
  const fs::path parent = p.has_parent_path() ? p.parent_path() : fs::path(".");
  if (!fs::is_directory(parent, ec)) {
    throw UsageError("cannot write " + path + ": " + parent.string() +
                     " is not a directory");
  }
  const fs::file_status st = fs::status(p, ec);
  if (fs::exists(st) && !fs::is_regular_file(st)) {
    throw UsageError("cannot write " + path + ": not a regular file");
  }
  if (access(parent.c_str(), W_OK) != 0) {
    throw UsageError("cannot write " + path + ": " + parent.string() +
                     " is not writable");
  }
}

/// Removes the run's scratch directory on every exit path.
class ScratchDir {
 public:
  explicit ScratchDir(std::string path) : path_(std::move(path)) {
    remove_tree(path_);
    make_dirs(path_);
  }
  ~ScratchDir() { remove_tree(path_); }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

void print_metrics(const MetricList& metrics) {
  for (const Metric& m : metrics.all()) {
    std::printf("  %-28s %-22s %-10s %s\n", m.name.c_str(),
                json_number(m.value).c_str(), m.unit.c_str(), m.note.c_str());
  }
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const MetricList& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics.all()) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + m.name + "\": {\"value\": " + json_number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int run(const Args& args) {
  if (args.trace == 1) check_output_path(args.timeline);
  const ScratchDir scratch(args.work_dir + "/" + args.workload + "-" +
                           std::to_string(getpid()));

  Knobs knobs;
  knobs.seed = args.seed;
  knobs.accesses = args.accesses;
  knobs.workers = std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  knobs.work_dir = scratch.path();
  knobs.tamper = args.tamper;
  const std::unique_ptr<Workload> workload =
      make_workload(args.workload, knobs);
  const std::uint64_t fallbacks_before = sim::Event::heap_fallbacks();

  // --- Set-up, several times: setup_s is the median. ----------------------
  // Cheap set-ups repeat for a minimum time so the median is steady.
  std::vector<double> setup_s, build_s;
  const double setup_start = now_s();
  while (setup_s.size() < workload->setup_reps() ||
         now_s() - setup_start < kMinSetupSeconds) {
    const SetupCost cost = workload->setup();
    setup_s.push_back(cost.seconds);
    build_s.push_back(cost.build_s);
  }

  // --- Warm-up: one untimed batch. -----------------------------------------
  // The first batch pays for first-touch page faults and cold host caches,
  // which a researcher's long sweep amortises; it is checked like every
  // other batch but not timed.
  std::vector<Batch> batches;
  batches.push_back(workload->run_batch(0));

  // --- Timed phase: whole batches until the window is spent. --------------
  // A traced run spends the first half untraced and the second half with
  // the timeline armed (arming cannot be undone without discarding spans).
  std::vector<double> untraced_wall, traced_wall, untraced_rss;
  const double window_start = now_s();
  const double untraced_until =
      window_start + (args.trace == 1 ? args.seconds / 2 : args.seconds);
  const std::size_t min_untraced = args.trace == 1 ? 1 : 2;
  while (untraced_wall.size() < min_untraced || now_s() < untraced_until) {
    reset_peak_rss();
    batches.push_back(
        workload->run_batch(static_cast<std::uint32_t>(batches.size())));
    untraced_wall.push_back(batches.back().wall_s);
    untraced_rss.push_back(peak_rss_mib());
  }
  if (args.trace == 1) {
    obs::Timeline::enable();
    const double until = window_start + args.seconds;
    while (traced_wall.empty() || now_s() < until) {
      OBS_SPAN_N("bench.batch", "bench", batches.size());
      batches.push_back(
          workload->run_batch(static_cast<std::uint32_t>(batches.size())));
      traced_wall.push_back(batches.back().wall_s);
    }
  }

  // --- Correctness. --------------------------------------------------------
  std::vector<std::string> problems;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  if (args.tamper == "digest") batches.front().digest ^= 1;
  for (const Batch& b : batches) {
    attempted += b.attempted;
    failed += b.failed;
    problems.insert(problems.end(), b.problems.begin(), b.problems.end());
    if (b.digest != batches.front().digest && b.failed == 0) {
      failed += b.attempted;  // Every output of the batch is suspect.
    }
  }
  bool digests_agree = true;
  for (const Batch& b : batches) {
    digests_agree = digests_agree && b.digest == batches.front().digest;
  }
  if (!digests_agree) {
    problems.push_back("report digest differs between batches of one seed");
  }
  const std::size_t before_check = problems.size();
  workload->check(batches.front(), problems);
  const std::uint64_t fallbacks =
      sim::Event::heap_fallbacks() - fallbacks_before;
  if (fallbacks != 0) {
    problems.push_back("sim.heap_fallbacks = " + std::to_string(fallbacks));
  }
  failed += problems.size() - before_check;  // One simulation per check.
  failed = std::min(failed, attempted);

  // --- Metrics. ------------------------------------------------------------
  const Batch& first = batches.front();
  double batch_events = 0.0;
  for (const SimSample& s : first.sims) batch_events += s.events;
  // Host time summed over a batch's simulations, per timed batch.
  std::vector<double> job_s;
  for (std::size_t i = 1; i < batches.size(); ++i) {
    double sum = 0.0;
    for (const SimSample& x : batches[i].sims) sum += x.host_ns * 1e-9;
    job_s.push_back(sum);
  }
  const double batch_host_s = median(job_s);
  // Per-simulation figures: each simulation's median over the timed
  // batches, then the median over the batch's simulations.  The set of
  // simulations is fixed, so the middle one does not change from run to
  // run; pooling every sample instead lets host noise pick it from
  // whichever cluster (baseline, allarm) happens to straddle the middle.
  std::map<std::string, std::vector<double>> per_event_by_sim, sim_s_by_sim;
  std::size_t sim_samples = 0;
  for (std::size_t i = 1; i < batches.size(); ++i) {
    for (const SimSample& s : batches[i].sims) {
      if (s.events > 0) {
        per_event_by_sim[s.label].push_back(s.host_ns / s.events);
      }
      sim_s_by_sim[s.label].push_back(s.host_ns * 1e-9);
      ++sim_samples;
    }
  }
  const auto median_of_medians =
      [](const std::map<std::string, std::vector<double>>& by_sim) {
        std::vector<double> medians;
        for (const auto& [label, values] : by_sim) {
          medians.push_back(median(values));
        }
        return median(medians);
      };
  const double wall_s = median(untraced_wall);
  const double failed_frac =
      attempted == 0 ? 1.0
                     : static_cast<double>(failed) /
                           static_cast<double>(attempted);

  MetricList metrics;
  if (args.trace == 0) {
    metrics.add("wall_s", wall_s, "s",
                "median of " + std::to_string(untraced_wall.size()) +
                    " batches");
    metrics.add("events_per_s", wall_s > 0 ? batch_events / wall_s : 0.0,
                "events/s");
    const std::string sims_note =
        "n=" + std::to_string(sim_samples) + " over " +
        std::to_string(sim_s_by_sim.size()) + " simulations";
    metrics.add("ns_per_event", median_of_medians(per_event_by_sim), "ns",
                sims_note);
    metrics.add("sim_s.p50", median_of_medians(sim_s_by_sim), "s",
                sims_note);
    metrics.add("setup_s", median(setup_s), "s",
                "median of " + std::to_string(setup_s.size()));
    metrics.add("peak_rss_mb", median(untraced_rss), "MiB",
                "median of per-batch peaks");
  } else {
    DriveInputs inputs;
    inputs.profiles = workload->profiles();
    inputs.accesses = workload->accesses();
    inputs.seed = args.seed;
    // Decode a quarter of the traces: each block load records one
    // trace.read span on this thread, and the whole set three times over
    // would crowd the 16384-span ring.
    const std::vector<std::string> all_traces = workload->trace_files();
    for (std::size_t i = 0; i < all_traces.size(); i += 4) {
      inputs.traces.push_back(all_traces[i]);
    }
    // The drives decode traces too; only spans that started before them
    // belong to the traced batches.
    const double drives_start_us = obs::Timeline::now_ns() * 1e-3;
    const LayerCosts cost = drive_layers(inputs, 3);

    const std::string timeline_path = args.timeline;
    if (!obs::Timeline::write(timeline_path)) {
      throw UsageError("cannot write timeline " + timeline_path);
    }
    const std::filesystem::path parent =
        std::filesystem::path(timeline_path).parent_path();
    sync_directory(parent.empty() ? "." : parent.string());
    const auto spans = read_span_totals(timeline_path, drives_start_us);
    const auto span_s = [&](const char* name) {
      const auto it = spans.find(name);
      return it == spans.end()
                 ? 0.0
                 : it->second.seconds / static_cast<double>(traced_wall.size());
    };

    double trace_records = 0.0, trace_bytes = 0.0;
    for (const std::string& path : all_traces) {
      const trace::TraceReader reader(path);
      trace_records += static_cast<double>(reader.total_records());
      trace_bytes += static_cast<double>(reader.file_bytes());
    }

    const StatSet& t = first.totals;
    const bool runner = workload->uses_runner();
    const double roi_accesses = t.get("cache.loads") +
                                t.get("cache.stores") +
                                t.get("cache.ifetches");
    // Component counters cover each run's region of interest only; scale
    // them to the whole run, whose host time the shares divide.
    const double whole_run =
        roi_accesses > 0 ? workload->issued_per_batch() / roi_accesses : 0.0;
    const double host_ns = batch_host_s * 1e9;
    const auto share = [&](double ns) {
      return host_ns > 0 ? ns / host_ns : 0.0;
    };
    std::vector<double> sink_s, stolen;
    std::uint64_t peak_resident = 0;
    for (std::size_t i = 1; i < batches.size(); ++i) {
      const Batch& b = batches[i];
      sink_s.push_back(b.sink_s);
      stolen.push_back(static_cast<double>(b.tasks_stolen));
      peak_resident = std::max(peak_resident, b.peak_resident);
    }
    const char* no_runner = runner ? "" : "no runner on this workload";
    metrics.add("runner.pool_idle_frac",
                runner ? 1.0 - batch_host_s / (knobs.workers * wall_s) : 0.0,
                "ratio", no_runner);
    metrics.add("runner.sink_s", runner ? median(sink_s) : 0.0, "s",
                no_runner);
    metrics.add("runner.journal_append_s", span_s("journal.append"), "s",
                no_runner);
    metrics.add("runner.journal_fsync_s", span_s("journal.fsync"), "s",
                no_runner);
    metrics.add("runner.jobs_retried", static_cast<double>(first.jobs_retried),
                "count", no_runner);
    metrics.add("runner.tasks_stolen", median(stolen), "count", no_runner);
    metrics.add("runner.peak_resident", static_cast<double>(peak_resident),
                "count", no_runner);
    metrics.add("core.job_s.sum", batch_host_s, "s");
    metrics.add("core.workload_build_s", median(build_s), "s");
    metrics.add("sim.events", t.get("sim.events"), "count");
    metrics.add("sim.events_per_access",
                t.get("sim.events") / workload->issued_per_batch(),
                "events/access");
    metrics.add("sim.heap_fallbacks", static_cast<double>(fallbacks), "count");
    metrics.add("sim.queue_ns_per_op", cost.queue_ns, "ns");
    metrics.add("workload.ns_per_access", cost.generator_ns, "ns");
    metrics.add("cache.l1_hit_ratio",
                roi_accesses > 0 ? t.get("cache.l1_hits") / roi_accesses : 0,
                "ratio");
    metrics.add("cache.misses", t.get("cache.misses"), "count");
    metrics.add("cache.ns_per_lookup", cost.cache_lookup_ns, "ns");
    metrics.add("cache.ns_per_invalidate", cost.cache_invalidate_ns, "ns");
    metrics.add("dir.requests", t.get("dir.requests"), "count");
    metrics.add("dir.pf_evictions", t.get("dir.pf_evictions"), "count");
    metrics.add("dir.remote_miss_probes", t.get("dir.remote_miss_probes"),
                "count");
    const double pf_lookups = t.get("pf.hits") + t.get("pf.misses");
    metrics.add("pf.hit_ratio",
                pf_lookups > 0 ? t.get("pf.hits") / pf_lookups : 0.0,
                "ratio");
    metrics.add("pf.ns_per_op", cost.pf_ns, "ns");
    metrics.add("region.hits", t.get("region.hits"), "count");
    metrics.add("region.collapses", t.get("region.collapses"), "count");
    metrics.add("region.ns_per_op", cost.region_ns, "ns");
    metrics.add("noc.messages", t.get("noc.messages"), "count");
    metrics.add("noc.flit_hops", t.get("noc.flit_hops"), "count");
    metrics.add("noc.ns_per_send", cost.mesh_ns, "ns");
    metrics.add("dram.accesses", t.get("dram.reads") + t.get("dram.writes"),
                "count");
    const char* no_trace = all_traces.empty() ? "no traces on this workload"
                                                 : "";
    metrics.add("trace.records", trace_records, "count", no_trace);
    metrics.add("trace.bytes", trace_bytes, "B", no_trace);
    metrics.add("trace.decode_ns_per_record", cost.trace_ns, "ns", no_trace);
    metrics.add("trace.read_s", span_s("trace.read"), "s", no_trace);

    const double shares[] = {
        share(t.get("sim.events") * cost.queue_ns),
        share(workload->generated_per_batch() * cost.generator_ns),
        share(workload->issued_per_batch() * cost.cache_lookup_ns +
              t.get("cache.probes_seen") * whole_run *
                  cost.cache_invalidate_ns),
        share((t.get("pf.reads") + t.get("pf.writes")) * whole_run *
              cost.pf_ns),
        share((t.get("region.reads") + t.get("region.writes")) *
              whole_run * cost.region_ns),
        share(t.get("noc.messages") * whole_run * cost.mesh_ns),
        share(trace_records * cost.trace_ns),
    };
    const char* layers[] = {"sim", "workload", "cache", "pf",
                            "region", "noc", "trace"};
    double coverage = 0.0;
    for (std::size_t i = 0; i < std::size(shares); ++i) {
      metrics.add(std::string(layers[i]) + ".est_share", shares[i], "ratio");
      coverage += shares[i];
    }
    metrics.add("layers.coverage", coverage, "ratio",
                "share of simulation host time the drives account for");
    metrics.add("obs.trace_overhead_frac",
                median(traced_wall) / wall_s - 1.0, "ratio",
                std::to_string(traced_wall.size()) + " traced vs " +
                    std::to_string(untraced_wall.size()) + " untraced batches");
    metrics.add("obs.spans_dropped",
                static_cast<double>(obs::Timeline::dropped()), "count");
    metrics.add("failed_frac", failed_frac, "ratio");
  }

  std::printf("perfbench %s seed=%llu trace=%d workers=%u accesses=%llu "
              "batches=1 warm-up + %zu timed simulations/batch=%zu\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.trace, knobs.workers,
              static_cast<unsigned long long>(workload->accesses()),
              batches.size() - 1, first.sims.size());
  print_metrics(metrics);
  if (args.trace == 0) {
    std::printf("  %-28s %-22s %-10s\n", "failed_frac",
                json_number(failed_frac).c_str(), "ratio");
  } else {
    std::printf("timeline %s\n", args.timeline.c_str());
  }
  std::printf("digest %s %s\n", args.workload.c_str(),
              hex64(first.digest).c_str());
  for (const std::string& p : problems) {
    std::printf("CHECK FAILED: %s\n", p.c_str());
  }
  std::printf("checks: %s\n", problems.empty() ? "all passed" : "FAILED");
  print_result(problems.empty(), attempted, failed, metrics);
  return problems.empty() ? 0 : 1;
}

}  // namespace
}  // namespace allarm::perfbench

int main(int argc, char** argv) {
  using namespace allarm::perfbench;
  try {
    return run(parse_args(argc, argv));
  } catch (const UsageError& e) {
    std::cerr << "allarm_perfbench: " << e.what() << "\n" << kUsage;
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "allarm_perfbench: error: " << e.what() << "\n";
    return 1;
  }
}
