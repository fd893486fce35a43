#include "layers.hh"

#include <array>
#include <memory>
#include <unordered_map>

#include "cache/hierarchy.hh"
#include "coherence/probe_filter.hh"
#include "common/config.hh"
#include "common/rng.hh"
#include "noc/mesh.hh"
#include "obs/timeline.hh"
#include "region/region.hh"
#include "sim/event_queue.hh"
#include "trace/reader.hh"
#include "util.hh"
#include "workload/profiles.hh"

namespace allarm::perfbench {
namespace {

/// Accesses drawn per profile across all its threads.  Enough that each
/// drive runs for tens of milliseconds; the stream starts, as every
/// simulation does, with the profile's warm-up prefix.
constexpr std::uint64_t kAccessesPerProfile = 1u << 18;
/// Events per queue drive and the pending population it keeps (16 cores
/// with a few requests in flight each).
constexpr std::uint64_t kQueueEvents = 1u << 21;
constexpr std::uint32_t kQueuePopulation = 64;

/// One generated access, placed on the machine.
struct Item {
  LineAddr line = 0;
  NodeId node = 0;  ///< Issuing core (thread t runs on node t).
  NodeId home = 0;  ///< First-touch home of the line's page.
  AccessType type = AccessType::kLoad;
};

/// Host time and operation count of one drive.
struct Tally {
  double seconds = 0.0;
  std::uint64_t ops = 0;
  double ns_per_op() const {
    return ops == 0 ? 0.0 : seconds * 1e9 / static_cast<double>(ops);
  }
};

/// Draws the profile's access stream the way core::System seeds it: one
/// generator per thread, per-thread rngs from a seeder, threads
/// interleaved round robin with simulated time advancing by the think time.
std::vector<Item> draw_stream(const std::string& profile,
                              std::uint64_t accesses, std::uint64_t seed,
                              const SystemConfig& config, Tally& generator) {
  const workload::WorkloadSpec spec =
      workload::make_benchmark(profile, config, accesses);
  const std::size_t threads = spec.threads.size();
  std::vector<std::unique_ptr<workload::AccessGenerator>> gens;
  std::vector<Rng> rngs;
  std::vector<NodeId> nodes;
  Rng seeder(seed);
  for (const workload::ThreadSpec& ts : spec.threads) {
    gens.push_back(ts.make_generator());
    rngs.emplace_back(seeder.next() ^ (ts.id * 0x9e3779b9ull));
    nodes.push_back(ts.node);
  }
  const std::uint64_t rounds = kAccessesPerProfile / threads;
  std::vector<workload::Access> raw(rounds * threads);
  Tick now = 0;
  const Tick think = spec.threads.front().think;
  {
    OBS_SPAN("drive.workload", "drive");
    const double t0 = now_s();
    for (std::uint64_t r = 0; r < rounds; ++r) {
      for (std::size_t t = 0; t < threads; ++t) {
        raw[r * threads + t] = gens[t]->next(rngs[t], now);
      }
      now += think;
    }
    generator.seconds += now_s() - t0;
    generator.ops += raw.size();
  }
  std::vector<Item> items(raw.size());
  std::unordered_map<std::uint64_t, NodeId> first_touch;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    const NodeId node = nodes[i % threads];
    const auto page = first_touch.emplace(raw[i].vaddr / kPageBytes, node);
    items[i] = {line_of(raw[i].vaddr), node, page.first->second, raw[i].type};
  }
  return items;
}

/// Per-access cache work of a core: locate, then hit bookkeeping, L2
/// promotion or fill; afterwards one invalidate per access on the issuing
/// node, the removal a probe or directory eviction performs.
void drive_cache(const std::vector<Item>& items, const SystemConfig& config,
                 Tally& lookup, Tally& invalidate) {
  std::vector<std::unique_ptr<cache::Hierarchy>> nodes;
  for (std::uint32_t n = 0; n < config.num_cores; ++n) {
    nodes.push_back(std::make_unique<cache::Hierarchy>(
        config, n + 1, "bench" + std::to_string(n)));
  }
  {
    OBS_SPAN("drive.cache.lookup", "drive");
    const double t0 = now_s();
    for (const Item& it : items) {
      cache::Hierarchy& h = *nodes[it.node];
      const cache::Array target = it.type == AccessType::kInstFetch
                                      ? cache::Array::kL1I
                                      : cache::Array::kL1D;
      const cache::Location loc = h.locate(it.line);
      if (loc.array == cache::Array::kL2) {
        h.promote(target, it.line);
      } else if (loc.present()) {
        h.touch(it.line);
      } else {
        h.fill(target, it.line,
               it.type == AccessType::kStore ? cache::LineState::kModified
                                             : cache::LineState::kExclusive);
      }
    }
    lookup.seconds += now_s() - t0;
    lookup.ops += items.size();
  }
  {
    OBS_SPAN("drive.cache.invalidate", "drive");
    const double t0 = now_s();
    for (const Item& it : items) nodes[it.node]->invalidate(it.line);
    invalidate.seconds += now_s() - t0;
    invalidate.ops += items.size();
  }
}

/// Baseline directory bookkeeping at each line's home probe filter:
/// lookup, then touch/ownership update on a hit or victim displacement
/// plus insert on a miss; one line in eight is later erased (a PutM).
void drive_pf(const std::vector<Item>& items, const SystemConfig& config,
              Tally& tally) {
  std::vector<std::unique_ptr<coherence::ProbeFilter>> pfs;
  for (std::uint32_t n = 0; n < config.num_cores; ++n) {
    pfs.push_back(std::make_unique<coherence::ProbeFilter>(
        config.probe_filter_coverage_bytes, config.probe_filter_ways,
        config.probe_filter_replacement, n + 1));
  }
  const auto never_pinned = [](LineAddr) { return false; };
  OBS_SPAN("drive.pf", "drive");
  const double t0 = now_s();
  std::uint64_t ops = 0;
  for (const Item& it : items) {
    coherence::ProbeFilter& pf = *pfs[it.home];
    coherence::PfEntry* e = pf.lookup(it.line);
    ++ops;
    if (e != nullptr) {
      if (it.type == AccessType::kStore && e->owner != it.node) {
        pf.update_entry(e, coherence::PfState::kEM, it.node);
      } else {
        pf.touch_entry(e);
      }
      ++ops;
    } else {
      if (!pf.has_free_way(it.line)) {
        pf.displace_victim(it.line, never_pinned);
        ++ops;
      }
      pf.insert(it.line,
                it.type == AccessType::kStore ? coherence::PfState::kEM
                                              : coherence::PfState::kShared,
                it.node);
      ++ops;
    }
  }
  for (std::size_t i = 0; i < items.size(); i += 8) {
    pfs[items[i].home]->erase(items[i].line);
    ++ops;
  }
  tally.seconds += now_s() - t0;
  tally.ops += ops;
}

/// Region classification at each home: one RTracker touch per access,
/// one region in eight forgotten afterwards.
void drive_region(const std::vector<Item>& items, const SystemConfig& config,
                  Tally& tally) {
  const region::RegionDirectory geometry(config.region_size_bytes);
  std::vector<region::RTracker> trackers(config.num_cores);
  OBS_SPAN("drive.region", "drive");
  const double t0 = now_s();
  for (const Item& it : items) {
    trackers[it.home].touch(geometry.region_of(it.line), it.node);
  }
  for (std::size_t i = 0; i < items.size(); i += 8) {
    trackers[items[i].home].erase(geometry.region_of(items[i].line));
  }
  tally.seconds += now_s() - t0;
  tally.ops += items.size() + (items.size() + 7) / 8;
}

/// Request to the home and data reply back, per access.
void drive_mesh(const std::vector<Item>& items, const SystemConfig& config,
                Tally& tally) {
  noc::Mesh mesh(config);
  OBS_SPAN("drive.noc", "drive");
  const double t0 = now_s();
  Tick now = 0;
  for (const Item& it : items) {
    const Tick at = mesh.send(it.node, it.home, config.control_msg_bytes, now,
                              noc::TrafficCause::kRequest);
    mesh.send(it.home, it.node, config.data_msg_bytes, at,
              noc::TrafficCause::kResponse);
    now += ticks_from_ns(2.0);
  }
  tally.seconds += now_s() - t0;
  tally.ops += 2 * items.size();
}

/// Self-rescheduling events keep a fixed pending population; each event's
/// delay is drawn from the machine's latency mix (cache, directory, local
/// hop, DRAM, and mesh transfers of 1-6 hops).
class QueueDrive {
 public:
  QueueDrive(const SystemConfig& config, std::uint64_t seed) {
    const Tick hop = config.link_latency + config.router_latency;
    const std::vector<Tick> mix = {
        config.l1d.latency,      config.l2.latency,
        config.probe_filter_latency, config.local_hop_latency,
        config.dram_latency,     config.dram_cycle,
        hop,     2 * hop, 3 * hop, 4 * hop, 5 * hop, 6 * hop};
    Rng rng(seed);
    for (Tick& d : delays_) d = mix[rng.below(mix.size())];
  }

  Tally run() {
    remaining_ = kQueueEvents;
    for (std::uint32_t p = 0; p < kQueuePopulation; ++p) {
      queue_.schedule_at(delays_[p], [this] { fire(); });
    }
    OBS_SPAN("drive.sim", "drive");
    const double t0 = now_s();
    while (queue_.run_one()) {
    }
    return {now_s() - t0, queue_.events_executed()};
  }

 private:
  void fire() {
    if (remaining_ == 0) return;
    --remaining_;
    queue_.schedule_at(queue_.now() + delays_[next_++ % delays_.size()],
                       [this] { fire(); });
  }

  sim::EventQueue queue_;
  std::array<Tick, 4096> delays_{};
  std::uint64_t next_ = 0;
  std::uint64_t remaining_ = 0;
};

/// Decodes every record of every trace once.
Tally drive_trace(const std::vector<std::string>& traces) {
  Tally tally;
  trace::Record record;
  for (const std::string& path : traces) {
    const trace::TraceReader reader(path);
    for (std::uint32_t slot = 0; slot < reader.thread_count(); ++slot) {
      trace::TraceCursor cursor(reader, slot);
      OBS_SPAN("drive.trace", "drive");
      const double t0 = now_s();
      while (cursor.next(record)) ++tally.ops;
      tally.seconds += now_s() - t0;
    }
  }
  return tally;
}

}  // namespace

LayerCosts drive_layers(const DriveInputs& inputs, int reps) {
  const SystemConfig config;
  std::vector<double> queue, generator, lookup, invalidate, pf, region, mesh,
      decode;
  for (int rep = 0; rep < reps; ++rep) {
    queue.push_back(QueueDrive(config, inputs.seed).run().ns_per_op());
    Tally gen, look, inval, dir, reg, noc;
    for (const std::string& profile : inputs.profiles) {
      const std::vector<Item> items =
          draw_stream(profile, inputs.accesses, inputs.seed, config, gen);
      drive_cache(items, config, look, inval);
      drive_pf(items, config, dir);
      drive_region(items, config, reg);
      drive_mesh(items, config, noc);
    }
    generator.push_back(gen.ns_per_op());
    lookup.push_back(look.ns_per_op());
    invalidate.push_back(inval.ns_per_op());
    pf.push_back(dir.ns_per_op());
    region.push_back(reg.ns_per_op());
    mesh.push_back(noc.ns_per_op());
    decode.push_back(drive_trace(inputs.traces).ns_per_op());
  }
  LayerCosts costs;
  costs.queue_ns = median(queue);
  costs.generator_ns = median(generator);
  costs.cache_lookup_ns = median(lookup);
  costs.cache_invalidate_ns = median(invalidate);
  costs.pf_ns = median(pf);
  costs.region_ns = median(region);
  costs.mesh_ns = median(mesh);
  costs.trace_ns = median(decode);
  return costs;
}

}  // namespace allarm::perfbench
