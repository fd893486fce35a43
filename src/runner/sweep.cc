#include "runner/sweep.hh"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>

#include <sys/stat.h>

#include "common/checksum.hh"
#include "common/failpoint.hh"
#include "common/rng.hh"
#include "obs/timeline.hh"
#include "runner/journal.hh"
#include "runner/sink.hh"
#include "runner/thread_pool.hh"
#include "workload/profiles.hh"

namespace allarm::runner {

namespace {

bool file_exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

void validate_axes(const SweepSpec& spec) {
  if (spec.workloads.empty() || spec.configs.empty() || spec.modes.empty() ||
      spec.replicates == 0) {
    throw std::invalid_argument("sweep '" + spec.name + "' has an empty axis");
  }
}

// Drift guard: fold_config() below enumerates every SystemConfig field by
// hand.  A new results-affecting field that is not folded would let two
// different configurations share a spec hash — the silent mix-up the hash
// exists to refuse — so growing the struct must fail loudly here until
// fold_config() is updated (the size is stable on the LP64 targets this
// simulator supports).
static_assert(sizeof(SystemConfig) == 176,
              "SystemConfig changed: update fold_config() to hash the new "
              "field, then update this assert");

void fold_config(Fnv1a64& h, const SystemConfig& c) {
  const auto fold_cache = [&h](const CacheConfig& cache) {
    h.update_u32(cache.size_bytes);
    h.update_u32(cache.ways);
    h.update_u64(static_cast<std::uint64_t>(cache.latency));
  };
  h.update_u32(c.num_cores);
  h.update_double(c.core_freq_ghz);
  fold_cache(c.l1i);
  fold_cache(c.l1d);
  fold_cache(c.l2);
  h.update_u32(static_cast<std::uint32_t>(c.cache_replacement));
  h.update_u32(c.probe_filter_coverage_bytes);
  h.update_u32(c.probe_filter_ways);
  h.update_u64(static_cast<std::uint64_t>(c.probe_filter_latency));
  h.update_u32(static_cast<std::uint32_t>(c.probe_filter_replacement));
  h.update_u32(static_cast<std::uint32_t>(c.directory_mode));
  h.update_u32(c.allarm_parallel_local_probe ? 1 : 0);
  h.update_u32(c.eviction_gates_reply ? 1 : 0);
  h.update_u32(c.region_size_bytes);
  h.update_u64(c.dram_total_bytes);
  h.update_u64(static_cast<std::uint64_t>(c.dram_latency));
  h.update_u64(static_cast<std::uint64_t>(c.dram_cycle));
  h.update_u32(c.mesh_width);
  h.update_u32(c.mesh_height);
  h.update_u32(c.flit_bytes);
  h.update_u32(c.control_msg_bytes);
  h.update_u32(c.data_msg_bytes);
  h.update_double(c.link_bandwidth_gbps);
  h.update_u64(static_cast<std::uint64_t>(c.link_latency));
  h.update_u64(static_cast<std::uint64_t>(c.router_latency));
  h.update_u64(static_cast<std::uint64_t>(c.local_hop_latency));
}

/// What one job contributed: a result, or (quarantine path) a structured
/// failure that the cell reports instead of a replicate's samples.
struct JobOutcome {
  core::RunResult result;
  bool failed = false;
  std::uint32_t attempts = 1;
  std::string error;
};

/// The grid-order streaming fold shared by live runs and journal merges:
/// pulls job results through `result_of`, assembles each cell, hands it to
/// `sink`, drops it.  `job_indices` must be a grid-ordered subset of whole
/// cells (replicates never split).
class CellFolder {
 public:
  CellFolder(const SweepSpec& spec, const std::vector<Job>& jobs,
             ResultSink& sink)
      : spec_(spec), jobs_(jobs), sink_(sink) {}

  /// Folds one outcome; must be called in grid order.  A failed outcome
  /// contributes a CellFailure instead of runtime/stat samples (the seed is
  /// still recorded — it is what the replicate would have run with).
  void fold(std::uint64_t job_index, JobOutcome&& outcome) {
    const Job& job = jobs_[job_index];
    if (fill_ == 0) {
      cell_ = CellResult{};
      cell_.workload = spec_.workloads[job.coord.workload];
      cell_.config_label = spec_.configs[job.coord.config].label;
      cell_.mode = spec_.modes[job.coord.mode];
    }
    cell_.seeds.push_back(job.request.seed);
    if (outcome.failed) {
      CellFailure failure;
      failure.replicate = job.coord.replicate;
      failure.attempts = outcome.attempts;
      failure.error = std::move(outcome.error);
      cell_.failures.push_back(std::move(failure));
    } else {
      core::RunResult result = std::move(outcome.result);
      cell_.runtime.add(static_cast<double>(result.runtime));
      if (result.wall_ns != 0) {
        cell_.wall_ns.add(static_cast<double>(result.wall_ns));
      }
      for (const auto& [stat, value] : result.stats.values()) {
        cell_.stats[stat].add(value);
      }
      // Histogram merge is commutative, but fold() runs in grid order
      // anyway, so cell profiles are bit-identical at any --jobs.
      for (const auto& [metric, hist] : result.profile) {
        cell_.profile[metric].merge(hist);
      }
      cell_.runs.push_back(std::move(result));
    }
    if (++fill_ == spec_.replicates) {
      if (!cell_.failures.empty()) ++cells_failed_;
      {
        OBS_SPAN_N("sink.cell", "sink", cells_emitted_);
        sink_.cell(std::move(cell_));
      }
      cell_ = CellResult{};
      fill_ = 0;
      ++cells_emitted_;
    }
  }

  std::uint32_t partial_fill() const { return fill_; }
  std::uint64_t cells_emitted() const { return cells_emitted_; }
  std::uint64_t cells_failed() const { return cells_failed_; }

 private:
  const SweepSpec& spec_;
  const std::vector<Job>& jobs_;
  ResultSink& sink_;
  CellResult cell_;
  std::uint32_t fill_ = 0;
  std::uint64_t cells_emitted_ = 0;
  std::uint64_t cells_failed_ = 0;
};

/// Global job indices owned by `shard`, in grid order (whole cells).
std::vector<std::uint64_t> owned_job_indices(const SweepSpec& spec,
                                             const ShardSpec& shard) {
  std::vector<std::uint64_t> owned;
  const std::uint64_t cells = spec.cell_count();
  for (std::uint64_t cell = 0; cell < cells; ++cell) {
    if (!shard.owns_cell(cell)) continue;
    for (std::uint32_t r = 0; r < spec.replicates; ++r) {
      owned.push_back(cell * spec.replicates + r);
    }
  }
  return owned;
}

void check_entry_seed(const std::string& path, const JournalEntry& entry,
                      const std::vector<Job>& jobs) {
  if (entry.seed != jobs[entry.job_index].request.seed) {
    throw std::runtime_error(
        "journal " + path + ": job " + std::to_string(entry.job_index) +
        " was journaled with seed " + std::to_string(entry.seed) +
        " but the spec derives " +
        std::to_string(jobs[entry.job_index].request.seed) +
        " — seed derivation mismatch, refusing to resume");
  }
}

}  // namespace

// ----------------------------------------------------------- spec identity ----

SweepMeta meta_of(const SweepSpec& spec) {
  SweepMeta meta;
  meta.name = spec.name;
  meta.base_seed = spec.base_seed;
  meta.replicates = spec.replicates;
  meta.accesses_per_thread = spec.accesses_per_thread;
  return meta;
}

std::uint64_t spec_hash(const SweepSpec& spec) {
  Fnv1a64 h;
  h.update(std::string("allarm-sweep-v1"));
  h.update(spec.name);
  h.update_u64(spec.workloads.size());
  for (const auto& w : spec.workloads) h.update(w);
  h.update_u64(spec.configs.size());
  for (const auto& point : spec.configs) {
    h.update(point.label);
    h.update_u32(static_cast<std::uint32_t>(point.policy));
    fold_config(h, point.config);
  }
  h.update_u64(spec.modes.size());
  for (const DirectoryMode mode : spec.modes) {
    h.update_u32(static_cast<std::uint32_t>(mode));
  }
  h.update_u32(spec.replicates);
  h.update_u64(spec.base_seed);
  h.update_u64(spec.accesses_per_thread);
  // A custom factory is code — unhashable.  Folding its presence at least
  // separates custom-factory journals from default-factory ones.
  h.update_u32(spec.make_workload ? 1 : 0);
  // Trace replay changes every job's workload source; fold it so a
  // replayed sweep's journal can never resume a synthetic one (or vice
  // versa).  Capture is a pure side effect and is deliberately NOT folded.
  if (!spec.replay_dir.empty()) {
    h.update(std::string("replay"));
    h.update(spec.replay_dir);
  }
  // Fold every per-job seed: a change to the derivation scheme (or the
  // base seed) changes the hash even when the axes look identical.
  for (std::uint32_t w = 0; w < spec.workloads.size(); ++w) {
    for (std::uint32_t r = 0; r < spec.replicates; ++r) {
      h.update_u64(job_seed(spec.base_seed, w, r));
    }
  }
  return h.digest();
}

std::uint64_t cell_hash(const SweepSpec& spec, std::uint64_t cell_index) {
  validate_axes(spec);
  if (cell_index >= spec.cell_count()) {
    throw std::out_of_range("cell_hash: cell " + std::to_string(cell_index) +
                            " outside grid of " +
                            std::to_string(spec.cell_count()));
  }
  // Invert the grid enumeration: cell = (w * |configs| + c) * |modes| + m.
  const std::uint64_t m = cell_index % spec.modes.size();
  const std::uint64_t c = (cell_index / spec.modes.size()) % spec.configs.size();
  const std::uint64_t w = cell_index / (spec.modes.size() * spec.configs.size());

  Fnv1a64 h;
  h.update(std::string("allarm-cell-v1"));
  // The position is part of the identity: journals bind results to grid
  // indices, so the same (workload, config, mode) at a different index is
  // a different binding.
  h.update_u64(cell_index);
  h.update(spec.workloads[w]);
  const ConfigPoint& point = spec.configs[c];
  h.update(point.label);
  h.update_u32(static_cast<std::uint32_t>(point.policy));
  fold_config(h, point.config);
  h.update_u32(static_cast<std::uint32_t>(spec.modes[m]));
  h.update_u32(spec.replicates);
  h.update_u64(spec.accesses_per_thread);
  // Same workload-source folds as spec_hash, same caveats (a custom
  // factory hashes by presence; capture is a pure side effect).
  h.update_u32(spec.make_workload ? 1 : 0);
  if (!spec.replay_dir.empty()) {
    h.update(std::string("replay"));
    h.update(spec.replay_dir);
  }
  // The cell's own seeds: replicate seeds depend on (base_seed, workload
  // index), so a base-seed or derivation change invalidates every cell.
  for (std::uint32_t r = 0; r < spec.replicates; ++r) {
    h.update_u64(job_seed(spec.base_seed, static_cast<std::uint32_t>(w), r));
  }
  return h.digest();
}

void ShardSpec::validate() const {
  if (count == 0 || index == 0 || index > count) {
    throw std::invalid_argument("invalid shard " + std::to_string(index) +
                                "/" + std::to_string(count) +
                                " (want 1 <= K <= N)");
  }
  for (const std::uint32_t owner : assignment) {
    if (owner == 0 || owner > count) {
      throw std::invalid_argument(
          "shard assignment names shard " + std::to_string(owner) +
          " outside 1.." + std::to_string(count));
    }
  }
}

std::vector<std::uint32_t> plan_shards(const std::vector<double>& cell_costs,
                                       std::uint32_t shard_count) {
  if (cell_costs.empty()) {
    throw std::invalid_argument("plan_shards: no cells to assign");
  }
  if (shard_count == 0) {
    throw std::invalid_argument("plan_shards: shard count must be positive");
  }
  // Greedy LPT: visit cells heaviest-first (ties by index, so the plan is a
  // pure function of the cost vector), give each to the least-loaded shard
  // (ties to the lowest shard index).
  std::vector<std::uint64_t> order(cell_costs.size());
  for (std::uint64_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::uint64_t a, std::uint64_t b) {
              if (cell_costs[a] != cell_costs[b]) {
                return cell_costs[a] > cell_costs[b];
              }
              return a < b;
            });
  std::vector<double> load(shard_count, 0.0);
  std::vector<std::uint32_t> owner(cell_costs.size(), 0);
  for (const std::uint64_t cell : order) {
    std::uint32_t best = 0;
    for (std::uint32_t s = 1; s < shard_count; ++s) {
      if (load[s] < load[best]) best = s;
    }
    owner[cell] = best + 1;  // 1-based, the --shard K/N notation.
    load[best] += std::max(cell_costs[cell], 0.0);
  }
  return owner;
}

std::vector<double> cell_costs_from_journal(const SweepSpec& spec,
                                            const std::string& journal_path) {
  validate_axes(spec);
  const std::uint64_t job_count = spec.job_count();
  Journal journal = Journal::open_read(journal_path);
  if (journal.meta().job_count != job_count) {
    throw std::runtime_error(
        "journal " + journal_path + ": records " +
        std::to_string(journal.meta().job_count) + " jobs but the spec has " +
        std::to_string(job_count) + " — cost model needs the same grid shape");
  }
  // Last record wins, like resume; failures and damaged payloads leave the
  // job unmeasured (they carry no wall clock).
  std::vector<std::optional<JournalEntry>> last(job_count);
  for (const JournalEntry& entry : journal.index().entries) {
    if (entry.job_index >= job_count) continue;
    last[entry.job_index] = entry;
  }
  std::vector<double> job_cost(job_count, -1.0);
  double total = 0.0;
  std::uint64_t measured = 0;
  for (std::uint64_t j = 0; j < job_count; ++j) {
    if (!last[j] || !last[j]->payload_ok || last[j]->failed) continue;
    core::RunResult result;
    try {
      result = journal.read_payload(*last[j]);
    } catch (const std::exception&) {
      continue;  // Corrupt payload: job is unmeasured, not fatal.
    }
    if (result.wall_ns == 0) continue;  // Journaled before timing existed.
    job_cost[j] = static_cast<double>(result.wall_ns);
    total += job_cost[j];
    ++measured;
  }
  // Holes take the mean measured job cost so a missing job never zeroes its
  // cell (and a journal with no timing at all degrades to uniform costs).
  const double mean = measured > 0 ? total / static_cast<double>(measured) : 1.0;
  std::vector<double> costs(spec.cell_count(), 0.0);
  for (std::uint64_t j = 0; j < job_count; ++j) {
    costs[j / spec.replicates] += job_cost[j] >= 0.0 ? job_cost[j] : mean;
  }
  return costs;
}

std::uint64_t retry_backoff_ms(std::uint32_t base_ms, std::uint32_t attempt,
                               std::uint64_t job_index) {
  if (base_ms == 0 || attempt == 0) return 0;
  const std::uint64_t base = static_cast<std::uint64_t>(base_ms)
                             << (attempt - 1);
  // Deterministic jitter from the job coordinate: simultaneous failures
  // across jobs (or service requests) spread instead of retrying in
  // lockstep, while the same run reproduces the same schedule.
  SplitMix64 rng(job_index * 0x9e3779b97f4a7c15ull + attempt);
  return base + rng.next() % (base_ms / 2 + 1);
}

// ------------------------------------------------------------- SweepResult ----

const CellResult* SweepResult::find(const std::string& workload,
                                    const std::string& config_label,
                                    DirectoryMode mode) const {
  for (const auto& cell : cells) {
    if (cell.workload == workload && cell.config_label == config_label &&
        cell.mode == mode) {
      return &cell;
    }
  }
  return nullptr;
}

core::PairResult SweepResult::pair(const std::string& workload,
                                   const std::string& config_label,
                                   std::uint32_t replicate) const {
  const CellResult* base = find(workload, config_label, DirectoryMode::kBaseline);
  const CellResult* allarm = find(workload, config_label, DirectoryMode::kAllarm);
  if (base == nullptr || allarm == nullptr) {
    throw std::out_of_range("sweep has no baseline/ALLARM pair for " +
                            workload + "/" + config_label);
  }
  core::PairResult pair;
  pair.baseline = base->runs.at(replicate);
  pair.allarm = allarm->runs.at(replicate);
  return pair;
}

std::vector<Job> expand_jobs(const SweepSpec& spec) {
  const WorkloadFactory factory =
      spec.make_workload
          ? spec.make_workload
          : [](const std::string& name, const SystemConfig& config,
               std::uint64_t accesses) {
              return workload::make_benchmark(name, config, accesses);
            };
  std::vector<Job> jobs;
  jobs.reserve(spec.job_count());
  for (std::uint32_t w = 0; w < spec.workloads.size(); ++w) {
    for (std::uint32_t c = 0; c < spec.configs.size(); ++c) {
      const ConfigPoint& point = spec.configs[c];
      // The workload layout depends only on the machine geometry, which is
      // identical for both directory modes — build it once per (w, c).
      const workload::WorkloadSpec workload_spec = factory(
          spec.workloads[w], point.config, spec.accesses_per_thread);
      for (std::uint32_t m = 0; m < spec.modes.size(); ++m) {
        for (std::uint32_t r = 0; r < spec.replicates; ++r) {
          Job job;
          job.coord = JobCoord{w, c, m, r};
          job.request.config = point.config;
          job.request.mode = spec.modes[m];
          job.request.spec = workload_spec;
          job.request.seed = job_seed(spec.base_seed, w, r);
          job.request.policy = point.policy;
          job.request.profile = spec.profile;
          // Traces pair with jobs by grid index (== jobs.size() here:
          // the loops enumerate the grid in order), so a capture run's
          // directory replays positionally under the same spec.
          if (!spec.capture_dir.empty()) {
            job.request.capture_trace = spec.capture_dir + "/job-" +
                                        std::to_string(jobs.size()) + ".altr";
          }
          if (!spec.replay_dir.empty()) {
            job.request.replay_trace = spec.replay_dir + "/job-" +
                                       std::to_string(jobs.size()) + ".altr";
          }
          jobs.push_back(std::move(job));
        }
      }
    }
  }
  return jobs;
}

// -------------------------------------------------------------- SweepRunner ----

SweepRunner::SweepRunner(std::uint32_t jobs)
    : jobs_(jobs > 0 ? jobs : core::bench_jobs()) {}

SweepResult SweepRunner::run(const SweepSpec& spec) const {
  SweepResult out;
  CollectSink sink(out);
  const StreamStats stats = run_streaming(spec, sink);
  out.jobs_used = stats.jobs_used;
  out.tasks_stolen = stats.tasks_stolen;
  out.wall_seconds = stats.wall_seconds;
  return out;
}

StreamStats SweepRunner::run_streaming(const SweepSpec& spec, ResultSink& sink,
                                       const StreamOptions& options) const {
  validate_axes(spec);
  options.shard.validate();
  if ((options.resume || options.resume_cells) &&
      options.journal_path.empty()) {
    throw std::invalid_argument("resume requires a journal path");
  }
  if (options.resume_cells && options.shard.count != 1) {
    // A spec edit can change any cell, and stale records would be stranded
    // in whichever shard's journal round-robin (or a cost plan) previously
    // assigned them — per-cell resume is a single-journal operation.
    throw std::invalid_argument(
        "per-cell incremental resume requires an unsharded sweep");
  }
  if (options.stop != nullptr && options.journal_path.empty()) {
    throw std::invalid_argument(
        "a drainable run requires a journal (drain checkpoints into it)");
  }
  const auto start = std::chrono::steady_clock::now();

  const std::vector<Job> jobs = expand_jobs(spec);
  const std::vector<std::uint64_t> owned =
      owned_job_indices(spec, options.shard);

  StreamStats stats;
  stats.jobs_total = owned.size();

  // The journal, and the already-done jobs a resume replays from it.
  std::optional<Journal> journal;
  std::unordered_map<std::uint64_t, JournalEntry> resumed;
  // Per-cell identity hashes, stamped into every journaled payload so a
  // later per-cell resume can tell live records from stale ones.
  std::vector<std::uint64_t> cell_hashes;
  if (!options.journal_path.empty()) {
    cell_hashes.resize(spec.cell_count());
    for (std::uint64_t cell = 0; cell < cell_hashes.size(); ++cell) {
      cell_hashes[cell] = cell_hash(spec, cell);
    }
    JournalMeta meta;
    meta.spec_hash = spec_hash(spec);
    meta.job_count = jobs.size();
    meta.base_seed = spec.base_seed;
    meta.shard_index = options.shard.index;
    meta.shard_count = options.shard.count;
    const bool exists = file_exists(options.journal_path);
    if (!options.resume && !options.resume_cells && exists) {
      // Never silently truncate journaled work — it is exactly the data
      // the journal exists to protect.
      throw std::runtime_error(
          "journal " + options.journal_path +
          " already exists; resume it (--resume) or delete it to start "
          "fresh");
    }
    if (options.resume_cells && exists) {
      // Incremental re-sweep: rebind the journal to this spec's identity
      // and keep exactly the records whose cell definition is unchanged.
      // Stale records (edited cell, changed seed, broken payload) are
      // simply not-done — the re-run appends supersede them.
      journal.emplace(Journal::open_rebind(options.journal_path, meta));
      for (const JournalEntry& entry : journal->index().entries) {
        if (entry.job_index >= jobs.size()) continue;
        if (!entry.payload_ok) continue;
        if (entry.failed) {
          resumed.erase(entry.job_index);
          continue;
        }
        if (entry.seed != jobs[entry.job_index].request.seed) {
          resumed.erase(entry.job_index);
          continue;
        }
        std::uint64_t recorded = 0;
        try {
          journal->read_payload(entry, &recorded);
        } catch (const std::exception&) {
          resumed.erase(entry.job_index);
          continue;
        }
        if (recorded != cell_hashes[entry.job_index / spec.replicates]) {
          resumed.erase(entry.job_index);  // Pre-stamping (0) is also stale.
          continue;
        }
        resumed[entry.job_index] = entry;  // Last wins.
      }
    } else if (options.resume && exists) {
      journal.emplace(Journal::open_resume(options.journal_path, meta));
      for (const JournalEntry& entry : journal->index().entries) {
        check_entry_seed(options.journal_path, entry, jobs);
        if (!options.shard.owns_cell(entry.job_index / spec.replicates)) {
          throw std::runtime_error("journal " + options.journal_path +
                                   ": records job " +
                                   std::to_string(entry.job_index) +
                                   " outside this shard");
        }
        if (!entry.payload_ok) continue;
        if (entry.failed) {
          // A quarantined job is not done — the resume re-runs it (and a
          // success it journals supersedes the failure, last-record-wins).
          resumed.erase(entry.job_index);
        } else {
          resumed[entry.job_index] = entry;  // Last wins.
        }
      }
    } else {
      journal.emplace(Journal::create(options.journal_path, meta));
    }
  }

  // Completion plumbing must outlive the pool: if a sink throws mid-sweep,
  // the pool's destructor still drains in-flight jobs, which push here.
  // A job that throws (e.g. a missing/corrupt --replay trace) parks its
  // exception instead of a result — letting it escape on a pool worker
  // would std::terminate the process instead of the documented
  // std::runtime_error -> nonzero-exit error path.
  struct Completion {
    std::uint64_t job_index = 0;
    core::RunResult result;
    std::uint32_t attempts = 1;  ///< Execution attempts, including retries.
    bool failed = false;         ///< Every attempt threw.
    std::string error_text;      ///< what() of the last attempt's exception.
    std::exception_ptr error;    ///< Same exception, for the rethrow path.
  };
  std::mutex mutex;
  std::condition_variable done_cv;
  std::vector<Completion> completed;
  // Pool tasks whose lambda has not yet finished.  With a shared pool the
  // pool outlives this call, so returning (or unwinding) while a task still
  // references these stack locals would be use-after-return — the guard
  // below waits for live == 0 on every exit path.  Tasks decrement and
  // notify UNDER the mutex, so the guard cannot miss the last wakeup.
  std::size_t live = 0;

  // A shared pool (the sweep service multiplexing requests) overrides the
  // private one; it only schedules — the fold below is grid-ordered either
  // way.
  std::optional<ThreadPool> owned_pool;
  if (options.pool == nullptr) owned_pool.emplace(jobs_);
  ThreadPool& pool = options.pool != nullptr ? *options.pool : *owned_pool;

  struct LiveGuard {
    std::mutex& mutex;
    std::condition_variable& cv;
    const std::size_t& live;
    ~LiveGuard() {
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [&] { return live == 0; });
    }
  } live_guard{mutex, done_cv, live};

  const std::size_t window =
      options.max_outstanding > 0
          ? options.max_outstanding
          : std::max<std::size_t>(16, std::size_t{4} * pool.worker_count());

  sink.begin(meta_of(spec));
  CellFolder folder(spec, jobs, sink);

  // In-flight bookkeeping, all owned by this (the folding) thread.
  std::map<std::uint64_t, JobOutcome> resident;  // Done, not yet folded.
  std::size_t next = 0;          // Next owned[] position to issue.
  std::size_t fold_pos = 0;      // Next owned[] position to fold.
  std::size_t outstanding = 0;   // Issued but not yet folded.
  std::size_t inflight = 0;      // On the pool, completion not yet processed.
  // Drain mode (StreamOptions::stop): stop issuing, journal what was
  // already issued, leave the rest for a resume.
  bool draining = false;

  const auto note_peak = [&] {
    const std::size_t now = resident.size() + folder.partial_fill();
    if (now > stats.peak_resident_results) stats.peak_resident_results = now;
  };

  while (fold_pos < owned.size()) {
    if (!draining && options.stop != nullptr &&
        options.stop->load(std::memory_order_relaxed)) {
      draining = true;
    }
    // Issue jobs while the outstanding window has room.  Journaled jobs
    // replay straight into `resident`; fresh jobs go to the pool.
    while (!draining && next < owned.size() && outstanding < window) {
      const std::uint64_t job_index = owned[next];
      ++next;
      ++outstanding;
      const auto it = resumed.find(job_index);
      if (it != resumed.end()) {
        JobOutcome outcome;
        outcome.result = journal->read_payload(it->second);
        resident.emplace(job_index, std::move(outcome));
        ++stats.jobs_resumed;
        note_peak();
      } else {
        const Job& job = jobs[job_index];
        // Self-healing execution: a job that throws is retried with
        // bounded exponential backoff.  Retries are safe to the byte —
        // jobs are pure functions of their RunRequest, so a retried job
        // reproduces exactly what the failed attempt would have produced.
        // Two failpoints make faults schedulable under any worker count:
        // `cell.attempt` counts attempts process-wide (transient faults
        // that heal on retry); `cell.job` matches the grid-order job index
        // (permanent faults pinned to a cell regardless of scheduling).
        const std::uint32_t max_attempts = options.cell_retries + 1;
        const std::uint32_t backoff_ms = options.retry_backoff_ms;
        const std::uint64_t deadline_ns = options.cell_timeout_ns;
        {
          std::lock_guard<std::mutex> lock(mutex);
          ++live;  // Paired with the task's decrement; see LiveGuard.
        }
        try {
          pool.submit([&job, job_index, max_attempts, backoff_ms, deadline_ns,
                       &mutex, &done_cv, &completed, &live] {
            Completion done;
            done.job_index = job_index;
            for (std::uint32_t attempt = 1;; ++attempt) {
              done.attempts = attempt;
              try {
                if (attempt > 1 && backoff_ms > 0) {
                  std::this_thread::sleep_for(std::chrono::milliseconds(
                      retry_backoff_ms(backoff_ms, attempt - 1, job_index)));
                }
                if (const auto hit =
                        failpoint::check_indexed("cell.job", job_index)) {
                  if (hit.action == failpoint::Action::kDelay) {
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(hit.arg));
                  } else {
                    throw std::runtime_error(
                        "job " + std::to_string(job_index) +
                        ": injected fault (failpoint cell.job)");
                  }
                }
                if (const auto hit = failpoint::check("cell.attempt")) {
                  if (hit.action == failpoint::Action::kDelay) {
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(hit.arg));
                  } else {
                    throw std::runtime_error(
                        "job " + std::to_string(job_index) +
                        ": injected fault (failpoint cell.attempt)");
                  }
                }
                {
                  OBS_SPAN_N("sweep.job", "sweep", job_index);
                  done.result = core::run_request(job.request, deadline_ns);
                }
                done.failed = false;
                break;
              } catch (const std::exception& e) {
                done.failed = true;
                done.error_text = e.what();
                done.error = std::current_exception();
              } catch (...) {
                done.failed = true;
                done.error_text = "unknown exception";
                done.error = std::current_exception();
              }
              if (attempt >= max_attempts) break;
            }
            {
              // Push, decrement and notify under one lock: once `live` hits
              // zero with the mutex released, this task touches no capture
              // again, so the LiveGuard's wakeup cannot race destruction.
              std::lock_guard<std::mutex> lock(mutex);
              completed.push_back(std::move(done));
              --live;
              done_cv.notify_all();
            }
          });
        } catch (...) {
          std::lock_guard<std::mutex> lock(mutex);
          --live;
          throw;
        }
        ++stats.jobs_executed;
        ++inflight;
      }
    }

    // Draining and nothing left on the pool: every issued job has been
    // collected and journaled — checkpoint and leave.
    if (draining && inflight == 0) break;

    // Collect finished jobs.  Block only when neither issuing nor folding
    // can make progress — then some pool job is still running and its
    // completion is the only possible next event.
    std::vector<Completion> batch;
    {
      std::unique_lock<std::mutex> lock(mutex);
      if (completed.empty()) {
        const bool can_issue =
            !draining && next < owned.size() && outstanding < window;
        const bool can_fold =
            fold_pos < owned.size() && resident.count(owned[fold_pos]) > 0;
        if (!can_issue && !can_fold) {
          done_cv.wait(lock, [&] { return !completed.empty(); });
        }
      }
      batch.swap(completed);
    }
    for (Completion& done : batch) {
      --inflight;
      stats.jobs_retried += done.attempts - 1;
      const std::uint64_t seed = jobs[done.job_index].request.seed;
      const std::uint64_t done_cell_hash =
          journal ? cell_hashes[done.job_index / spec.replicates] : 0;
      if (done.failed) {
        // Out of retries.  Without quarantine, rethrow on this (the
        // folding) thread, where callers expect sweep errors to surface —
        // in-flight jobs drain through the pool destructor and their
        // completions are simply dropped.  While draining, a failure is
        // not an error: the job simply stays not-done and the resume
        // re-runs it.  With quarantine, the failure becomes data:
        // journaled (so a resume re-runs the job) and folded into the
        // cell's `failed` section so the rest of the sweep completes.
        if (!options.quarantine) {
          if (draining) continue;
          std::rethrow_exception(done.error);
        }
        ++stats.jobs_failed;
        FailureRecord failure;
        failure.attempts = done.attempts;
        failure.error = done.error_text;
        if (journal) journal->append_failed(done.job_index, seed, failure);
        JobOutcome outcome;
        outcome.failed = true;
        outcome.attempts = done.attempts;
        outcome.error = std::move(done.error_text);
        resident.emplace(done.job_index, std::move(outcome));
      } else {
        if (journal) {
          journal->append(done.job_index, seed, done.result, done_cell_hash);
        }
        JobOutcome outcome;
        outcome.result = std::move(done.result);
        outcome.attempts = done.attempts;
        resident.emplace(done.job_index, std::move(outcome));
      }
    }
    note_peak();

    // Fold the contiguous completed prefix, in grid order.
    while (fold_pos < owned.size()) {
      const auto it = resident.find(owned[fold_pos]);
      if (it == resident.end()) break;
      JobOutcome outcome = std::move(it->second);
      resident.erase(it);
      folder.fold(owned[fold_pos], std::move(outcome));
      ++fold_pos;
      --outstanding;
    }
    if (options.progress != nullptr) {
      options.progress->store(static_cast<std::uint64_t>(fold_pos),
                              std::memory_order_relaxed);
    }
  }

  if (draining) {
    // Checkpoint: every issued completion is journaled; make it durable.
    // The sink never sees end-of-stream — its output is torn by design
    // (the caller discards it and resumes the journal later).
    journal->sync();
    journal->close();
    stats.drained = true;
    stats.jobs_used = pool.worker_count();
    stats.tasks_stolen = pool.steal_count();
    stats.cells_emitted = folder.cells_emitted();
    stats.cells_failed = folder.cells_failed();
    stats.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    return stats;
  }

  if (owned_pool) {
    owned_pool->wait_idle();  // All owned jobs folded: returns immediately.
  }
  sink.end();
  if (journal) journal->close();

  stats.jobs_used = pool.worker_count();
  stats.tasks_stolen = pool.steal_count();
  stats.cells_emitted = folder.cells_emitted();
  stats.cells_failed = folder.cells_failed();
  stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return stats;
}

// ----------------------------------------------------------- journal merge ----

StreamStats merge_journals(const SweepSpec& spec,
                           const std::vector<std::string>& journal_paths,
                           ResultSink& sink) {
  validate_axes(spec);
  if (journal_paths.empty()) {
    throw std::invalid_argument("merge needs at least one journal");
  }
  const auto start = std::chrono::steady_clock::now();

  const std::vector<Job> jobs = expand_jobs(spec);
  const std::uint64_t expected_hash = spec_hash(spec);

  std::vector<Journal> journals;
  journals.reserve(journal_paths.size());
  // where[job] = (journal position, entry) of the winning record.
  std::vector<std::optional<std::pair<std::size_t, JournalEntry>>> where(
      jobs.size());

  for (std::size_t j = 0; j < journal_paths.size(); ++j) {
    const std::string& path = journal_paths[j];
    Journal journal = Journal::open_read(path);
    const JournalMeta& meta = journal.meta();
    if (meta.spec_hash != expected_hash) {
      throw std::runtime_error("journal " + path +
                               ": spec hash mismatch — it records a "
                               "different sweep than the one being merged");
    }
    if (meta.job_count != jobs.size() || meta.base_seed != spec.base_seed) {
      throw std::runtime_error("journal " + path +
                               ": grid shape or base seed mismatch");
    }
    for (const JournalEntry& entry : journal.index().entries) {
      if (!entry.payload_ok) continue;  // Damaged payload: job is missing.
      // Quarantine records participate like results: an unsuperseded
      // failure folds into the report's `failed` section below (it is a
      // recorded outcome, not a missing job), and a later success record
      // in the same journal supersedes it via last-record-wins.
      check_entry_seed(path, entry, jobs);
      auto& slot = where[entry.job_index];
      if (slot && slot->first != j) {
        throw std::runtime_error(
            "journals " + journal_paths[slot->first] + " and " + path +
            " overlap at job " + std::to_string(entry.job_index) +
            " — shards must partition the grid");
      }
      slot = std::make_pair(j, entry);  // Within one journal, last wins.
    }
    journals.push_back(std::move(journal));
  }

  std::uint64_t missing = 0;
  for (const auto& slot : where) {
    if (!slot) ++missing;
  }
  if (missing > 0) {
    throw std::runtime_error(
        "merge is incomplete: " + std::to_string(missing) + " of " +
        std::to_string(jobs.size()) +
        " jobs appear in no journal (did every shard finish?)");
  }

  StreamStats stats;
  stats.jobs_total = jobs.size();
  stats.jobs_resumed = jobs.size();

  sink.begin(meta_of(spec));
  CellFolder folder(spec, jobs, sink);
  for (std::uint64_t job_index = 0; job_index < jobs.size(); ++job_index) {
    const auto& [journal_pos, entry] = *where[job_index];
    JobOutcome outcome;
    if (entry.failed) {
      FailureRecord failure = journals[journal_pos].read_failure(entry);
      outcome.failed = true;
      outcome.attempts = failure.attempts;
      outcome.error = std::move(failure.error);
      ++stats.jobs_failed;
    } else {
      outcome.result = journals[journal_pos].read_payload(entry);
    }
    folder.fold(job_index, std::move(outcome));
    const std::size_t now = folder.partial_fill();
    if (now > stats.peak_resident_results) stats.peak_resident_results = now;
  }
  sink.end();

  stats.cells_emitted = folder.cells_emitted();
  stats.cells_failed = folder.cells_failed();
  stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return stats;
}

}  // namespace allarm::runner
