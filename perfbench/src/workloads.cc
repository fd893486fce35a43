#include "workloads.hh"

#include <cmath>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "common/checksum.hh"
#include "common/config.hh"
#include "core/experiment.hh"
#include "obs/timeline.hh"
#include "runner/grids.hh"
#include "runner/job.hh"
#include "runner/report.hh"
#include "runner/sink.hh"
#include "runner/sweep.hh"
#include "trace/reader.hh"
#include "util.hh"
#include "workload/profiles.hh"

namespace allarm::perfbench {
namespace {

// Default run lengths are those of the `fig3` grid and of `allarm_sim`, so
// a batch is the work a researcher actually runs.  region-replay runs half
// the `region` grid's 20000 so that its three trace captures (set-up) and
// several batches fit one run.  They are set explicitly: the grids' own
// defaults follow ALLARM_BENCH_ACCESSES, which must not change what the
// benchmark measures.
constexpr std::uint64_t kFig3Accesses = 30000;
constexpr std::uint64_t kOceanAccesses = 30000;
/// baseline+allarm pairs per batch: one keeps a batch short, so a run
/// takes its median over many batches.
constexpr std::uint32_t kOceanPairs = 1;
constexpr std::uint64_t kRegionAccesses = 10000;

/// Adds the elapsed host time of its scope to `sink`.
class Timed {
 public:
  explicit Timed(double& sink) : sink_(sink), start_(now_s()) {}
  ~Timed() { sink_ += now_s() - start_; }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  double& sink_;
  double start_;
};

/// Accesses a workload issues per simulation, warm-up included.
double issued_accesses(const workload::WorkloadSpec& spec) {
  double total = 0.0;
  for (const workload::ThreadSpec& t : spec.threads) {
    total += static_cast<double>(t.accesses + t.warmup_accesses);
  }
  return total;
}

/// Folds one finished simulation into the batch and checks its sanity
/// counters.
void fold_run(const core::RunResult& run, const std::string& label,
              Batch& batch) {
  batch.sims.push_back({static_cast<double>(run.wall_ns),
                        run.stats.get("sim.events"), label});
  for (const auto& [name, value] : run.stats.values()) {
    batch.totals.add(name, value);
  }
  const double anomalies = run.stats.get("sanity.anomalies");
  if (anomalies != 0.0) {
    ++batch.failed;
    batch.problems.push_back(label + ": sanity.anomalies = " +
                             json_number(anomalies));
  }
}

/// One grid cell as the sweep folded it, kept for the direct re-run check.
struct KeptCell {
  bool valid = false;
  std::string workload;
  std::string config_label;
  DirectoryMode mode = DirectoryMode::kBaseline;
  std::uint64_t seed = 0;
  Tick runtime = 0;
  std::map<std::string, Summary> stats;
};

/// Wraps the report pipeline's sink: times every call into it, folds each
/// replicate's host cost and statistics into the batch, and keeps one
/// cell for the direct re-run check.
class BenchSink final : public runner::ResultSink {
 public:
  BenchSink(runner::ResultSink& inner, Batch& batch, std::uint64_t keep_cell,
            KeptCell* kept)
      : inner_(inner), batch_(batch), keep_cell_(keep_cell), kept_(kept) {}

  void begin(const runner::SweepMeta& meta) override {
    Timed timed(batch_.sink_s);
    inner_.begin(meta);
  }

  void cell(runner::CellResult&& cell) override {
    Timed timed(batch_.sink_s);
    OBS_SPAN_N("bench.sink", "bench", cells_);
    const std::string label = cell.workload + "/" + cell.config_label + "/" +
                              to_string(cell.mode);
    batch_.attempted += cell.runs.size() + cell.failures.size();
    batch_.failed += cell.failures.size();
    for (const runner::CellFailure& f : cell.failures) {
      batch_.problems.push_back(label + ": replicate " +
                                std::to_string(f.replicate) + " failed: " +
                                f.error);
    }
    for (const core::RunResult& run : cell.runs) fold_run(run, label, batch_);
    if (kept_ != nullptr && cells_ == keep_cell_ && !cell.runs.empty()) {
      kept_->valid = true;
      kept_->workload = cell.workload;
      kept_->config_label = cell.config_label;
      kept_->mode = cell.mode;
      kept_->seed = cell.seeds.front();
      kept_->runtime = cell.runs.front().runtime;
      kept_->stats = cell.stats;
    }
    ++cells_;
    inner_.cell(std::move(cell));
  }

  void end() override {
    Timed timed(batch_.sink_s);
    inner_.end();
  }

 private:
  runner::ResultSink& inner_;
  Batch& batch_;
  std::uint64_t keep_cell_;
  KeptCell* kept_;
  std::uint64_t cells_ = 0;
};

/// Shared by the two workloads that stream a grid through the sweep
/// CLI's path: run_streaming into JSON + CSV report files with a fresh
/// journal, quarantining failed jobs so each one is counted.
class SweepWorkload : public Workload {
 public:
  bool uses_runner() const override { return true; }
  std::vector<std::string> profiles() const override {
    return spec_.workloads;
  }
  std::uint64_t accesses() const override {
    return spec_.accesses_per_thread;
  }
  double issued_per_batch() const override { return issued_; }

 protected:
  explicit SweepWorkload(const Knobs& knobs) : knobs_(knobs) {}

  /// Builds every (workload, config) pair of spec_ once, as the runner
  /// does per job; returns seconds spent in make_benchmark and sets
  /// issued_.
  double build_workloads() {
    double build_s = 0.0;
    issued_ = 0.0;
    for (const runner::ConfigPoint& point : spec_.configs) {
      for (const std::string& name : spec_.workloads) {
        const double t0 = now_s();
        const workload::WorkloadSpec w = workload::make_benchmark(
            name, point.config, spec_.accesses_per_thread);
        build_s += now_s() - t0;
        issued_ += issued_accesses(w) *
                   static_cast<double>(spec_.modes.size() * spec_.replicates);
      }
    }
    return build_s;
  }

  Batch stream(const runner::SweepSpec& spec, const std::string& tag,
               KeptCell* kept = nullptr) {
    Batch batch;
    const std::string dir = knobs_.work_dir + "/" + tag;
    remove_tree(dir);
    try {
      make_dirs(dir);
      const double t0 = now_s();
      runner::ReportFiles reports(dir + "/report.json", dir + "/report.csv");
      BenchSink sink(reports.sink(), batch, knobs_.seed % spec.cell_count(),
                     kept);
      runner::StreamOptions options;
      options.journal_path = dir + "/sweep.journal";
      options.quarantine = true;
      const runner::StreamStats stats =
          runner::SweepRunner(knobs_.workers)
              .run_streaming(spec, sink, options);
      reports.commit();
      batch.wall_s = now_s() - t0;
      batch.tasks_stolen = stats.tasks_stolen;
      batch.jobs_retried = stats.jobs_retried;
      batch.peak_resident = stats.peak_resident_results;
      batch.digest = fnv64(read_file(dir + "/report.csv"),
                           fnv64(read_file(dir + "/report.json")));
    } catch (const std::exception& e) {
      batch.problems.push_back(tag + ": sweep failed: " + e.what());
      batch.attempted = spec.job_count();
      batch.failed = batch.attempted - batch.sims.size();
    }
    remove_tree(dir);
    return batch;
  }

  Knobs knobs_;
  runner::SweepSpec spec_;
  double issued_ = 0.0;
};

// ---------------------------------------------------------------------------

class Fig3Grid final : public SweepWorkload {
 public:
  explicit Fig3Grid(const Knobs& knobs) : SweepWorkload(knobs) {}

  SetupCost setup() override {
    SetupCost cost;
    const double t0 = now_s();
    runner::GridKnobs grid;
    grid.base_seed = knobs_.seed;
    grid.accesses = knobs_.accesses > 0 ? knobs_.accesses : kFig3Accesses;
    spec_ = runner::make_builtin_grid("fig3", grid);
    cost.build_s = build_workloads();
    cost.seconds = now_s() - t0;
    return cost;
  }
  std::uint32_t setup_reps() const override { return 15; }

  Batch run_batch(std::uint32_t index) override {
    return stream(spec_, "fig3-" + std::to_string(index),
                  index == 0 ? &kept_ : nullptr);
  }

  /// Re-runs the kept cell directly through core::run_request and compares
  /// every folded statistic bit for bit.
  void check(const Batch&, std::vector<std::string>& problems) override {
    if (!kept_.valid) {
      problems.push_back("fig3-grid: no cell kept for the direct re-run");
      return;
    }
    const std::string label = "fig3-grid direct re-run of " +
                              kept_.workload + "/" + kept_.config_label +
                              "/" + to_string(kept_.mode);
    const runner::ConfigPoint* point = nullptr;
    for (const runner::ConfigPoint& p : spec_.configs) {
      if (p.label == kept_.config_label) point = &p;
    }
    if (point == nullptr) {
      problems.push_back(label + ": config not in the grid");
      return;
    }
    core::RunRequest request;
    request.config = point->config;
    request.mode = kept_.mode;
    request.policy = point->policy;
    request.seed = kept_.seed;
    request.spec = workload::make_benchmark(kept_.workload, point->config,
                                            spec_.accesses_per_thread);
    core::RunResult run;
    try {
      run = core::run_request(request);
    } catch (const std::exception& e) {
      problems.push_back(label + " threw: " + e.what());
      return;
    }
    if (run.runtime != kept_.runtime) {
      problems.push_back(label + ": runtime differs");
    }
    if (run.stats.values().size() != kept_.stats.size()) {
      problems.push_back(label + ": statistic sets differ");
    }
    for (const auto& [name, summary] : kept_.stats) {
      const double direct = run.stats.get(name, std::nan(""));
      if (!(direct == summary.mean)) {
        problems.push_back(label + ": " + name + " = " + json_number(direct) +
                           ", grid folded " + json_number(summary.mean));
      }
    }
  }

  double generated_per_batch() const override { return issued_; }

 private:
  KeptCell kept_;
};

// ---------------------------------------------------------------------------

class OceanSolo final : public Workload {
 public:
  explicit OceanSolo(const Knobs& knobs) : knobs_(knobs) {}

  SetupCost setup() override {
    SetupCost cost;
    const double t0 = now_s();
    accesses_ = knobs_.accesses > 0 ? knobs_.accesses : kOceanAccesses;
    config_ = SystemConfig{};
    const double b0 = now_s();
    spec_ = workload::make_benchmark("ocean-cont", config_, accesses_);
    cost.build_s = now_s() - b0;
    seeds_.clear();
    for (std::uint32_t k = 0; k < kOceanPairs; ++k) {
      seeds_.push_back(runner::job_seed(knobs_.seed, 0, k));
    }
    cost.seconds = now_s() - t0;
    return cost;
  }
  std::uint32_t setup_reps() const override { return 15; }

  /// Back-to-back core::run_request calls on this thread, baseline then
  /// allarm per seed, as `allarm_sim --mode both` runs them.
  Batch run_batch(std::uint32_t) override {
    Batch batch;
    Fnv1a64 digest;
    const double t0 = now_s();
    for (const std::uint64_t seed : seeds_) {
      for (const DirectoryMode mode :
           {DirectoryMode::kBaseline, DirectoryMode::kAllarm}) {
        const std::string label = "ocean-cont/seed " + std::to_string(seed) +
                                  "/" + to_string(mode);
        core::RunRequest request;
        request.config = config_;
        request.mode = mode;
        request.spec = spec_;
        request.seed = seed;
        ++batch.attempted;
        try {
          const core::RunResult run = core::run_request(request);
          fold_run(run, label, batch);
          digest.update(label);
          digest.update_u64(run.runtime);
          for (const auto& [name, value] : run.stats.values()) {
            digest.update(name);
            digest.update_double(value);
          }
        } catch (const std::exception& e) {
          ++batch.failed;
          batch.problems.push_back(label + " threw: " + e.what());
        }
      }
    }
    batch.wall_s = now_s() - t0;
    batch.digest = digest.digest();
    return batch;
  }

  void check(const Batch&, std::vector<std::string>&) override {}
  bool uses_runner() const override { return false; }
  std::vector<std::string> profiles() const override {
    return {"ocean-cont"};
  }
  std::uint64_t accesses() const override { return accesses_; }
  double issued_per_batch() const override {
    return issued_accesses(spec_) * 2.0 * static_cast<double>(seeds_.size());
  }
  double generated_per_batch() const override { return issued_per_batch(); }

 private:
  Knobs knobs_;
  std::uint64_t accesses_ = 0;
  SystemConfig config_;
  workload::WorkloadSpec spec_;
  std::vector<std::uint64_t> seeds_;
};

// ---------------------------------------------------------------------------

class RegionReplay final : public SweepWorkload {
 public:
  explicit RegionReplay(const Knobs& knobs) : SweepWorkload(knobs) {}

  /// Builds the region grid's region-mode column and captures one trace
  /// per job; the capture run's report is the replay's reference.
  SetupCost setup() override {
    SetupCost cost;
    const double t0 = now_s();
    runner::GridKnobs grid;
    grid.base_seed = knobs_.seed;
    grid.accesses = knobs_.accesses > 0 ? knobs_.accesses : kRegionAccesses;
    spec_ = runner::make_builtin_grid("region", grid);
    spec_.modes = {DirectoryMode::kRegion};
    cost.build_s = build_workloads();

    const std::string traces = knobs_.work_dir + "/traces";
    remove_tree(traces);
    make_dirs(traces);
    runner::SweepSpec capture = spec_;
    capture.capture_dir = traces;
    const Batch captured = stream(capture, "capture");
    for (const std::string& p : captured.problems) {
      setup_problems_.push_back("capture: " + p);
    }
    if (captured.failed > 0) {
      setup_problems_.push_back("capture: " +
                                std::to_string(captured.failed) +
                                " simulations failed");
    }
    if (capture_digest_ != 0 && captured.digest != capture_digest_) {
      setup_problems_.push_back(
          "capture: report differs between set-up repetitions");
    }
    capture_digest_ = captured.digest;
    replay_ = spec_;
    replay_.replay_dir = traces;
    cost.seconds = now_s() - t0;
    return cost;
  }
  std::uint32_t setup_reps() const override { return 3; }

  Batch run_batch(std::uint32_t index) override {
    if (index == 0 && knobs_.tamper == "trace") corrupt_one_trace();
    return stream(replay_, "replay-" + std::to_string(index));
  }

  void check(const Batch& first, std::vector<std::string>& problems) override {
    problems.insert(problems.end(), setup_problems_.begin(),
                    setup_problems_.end());
    if (first.digest != capture_digest_) {
      problems.push_back("region-replay: replayed report " +
                         hex64(first.digest) + " differs from the capture "
                         "run's report " + hex64(capture_digest_));
    }
  }

  double generated_per_batch() const override { return 0.0; }
  std::vector<std::string> trace_files() const override {
    std::vector<std::string> files;
    for (std::uint64_t i = 0; i < replay_.job_count(); ++i) {
      files.push_back(replay_.replay_dir + "/job-" + std::to_string(i) +
                      ".altr");
    }
    return files;
  }

 private:
  /// Flips one byte in the middle of the first trace (inside a record
  /// block, whose CRC must then reject it).
  void corrupt_one_trace() {
    const std::string path = trace_files().front();
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(0, std::ios::end);
    const std::streamoff middle = f.tellg() / 2;
    char byte = 0;
    f.seekg(middle);
    f.get(byte);
    f.seekp(middle);
    f.put(static_cast<char>(byte ^ 0x5a));
    if (!f) throw std::runtime_error("cannot tamper with " + path);
  }

  runner::SweepSpec replay_;
  std::uint64_t capture_digest_ = 0;
  std::vector<std::string> setup_problems_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"fig3-grid", "ocean-solo",
                                                 "region-replay"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Knobs& knobs) {
  if (name == "fig3-grid") return std::make_unique<Fig3Grid>(knobs);
  if (name == "ocean-solo") return std::make_unique<OceanSolo>(knobs);
  if (name == "region-replay") return std::make_unique<RegionReplay>(knobs);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace allarm::perfbench
