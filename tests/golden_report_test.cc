// Golden identity pins for one small, fixed sweep: the journal's spec hash,
// every cell hash, and an FNV-1a digest of the JSON and CSV report bytes.
//
// The canonical sweep reports are this project's test oracle: a refactor
// or deletion that keeps them byte-identical is safe by construction, and
// a journal written by one version must resume under the next.  Other
// suites compare two runs of the CURRENT code against each other (--jobs,
// resume, shard/merge, replay); this one compares the current code against
// recorded constants, so a change that shifts every run the same way —
// event order, a stat's value or formatting, a hash fold — fails here.
//
// If a change alters these values on purpose, it changes report bytes and
// journal identity: say so loudly and re-pin all of them together.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>

#include "common/checksum.hh"
#include "common/config.hh"
#include "core/experiment.hh"
#include "runner/report.hh"
#include "runner/sweep.hh"
#include "workload/profiles.hh"

namespace allarm {
namespace {

/// 2 stock profiles x {baseline, allarm} x 2 seeds on the Table-I machine,
/// short enough for the sanitized Debug legs.
runner::SweepSpec golden_spec() {
  runner::SweepSpec spec;
  spec.name = "golden";
  spec.workloads = {"barnes", "ocean-cont"};
  spec.configs = {{"table1", SystemConfig{}}};
  spec.modes = {DirectoryMode::kBaseline, DirectoryMode::kAllarm};
  spec.replicates = 2;
  spec.base_seed = 42;
  spec.accesses_per_thread = 300;
  return spec;
}

std::uint64_t fnv1a(const std::string& bytes) {
  Fnv1a64 h;
  h.update(bytes.data(), bytes.size());
  return h.digest();
}

constexpr std::uint64_t kSpecHash = 0x211aaa563cfc2ff1ull;
constexpr std::uint64_t kCellHashes[] = {
    0x790d86e1ee44e292ull, 0xd55d66ee7e9cab4eull,
    0x2d3d2ac179089304ull, 0x5fd62bb5b1adcd20ull};
constexpr std::uint64_t kJsonDigest = 0xc35437ea27eaa4bbull;
constexpr std::uint64_t kCsvDigest = 0x0889c978f4a587aaull;

TEST(GoldenReport, SpecHashIsPinned) {
  EXPECT_EQ(runner::spec_hash(golden_spec()), kSpecHash);
}

TEST(GoldenReport, CellHashesArePinned) {
  const runner::SweepSpec spec = golden_spec();
  ASSERT_EQ(spec.cell_count(), std::size(kCellHashes));
  for (std::uint64_t cell = 0; cell < spec.cell_count(); ++cell) {
    EXPECT_EQ(runner::cell_hash(spec, cell), kCellHashes[cell])
        << "cell " << cell;
  }
}

TEST(GoldenReport, ReportBytesArePinned) {
  const runner::SweepResult result = runner::SweepRunner(2).run(golden_spec());
  EXPECT_EQ(fnv1a(runner::to_json(result)), kJsonDigest);
  EXPECT_EQ(fnv1a(runner::to_csv(result)), kCsvDigest);
}

/// Every stock profile uses think-jitter, so the sweep above never covers
/// jitter-free issue.  This pins ocean-cont (Mix, Phased warm-up and the
/// time-dependent CreepingShared) with `think_jitter = 0` through
/// core::run_request in both directory modes: an FNV-1a digest of the full
/// stat dump plus the executed event count.
struct JitterFreePin {
  DirectoryMode mode;
  std::uint64_t stats_digest;
  std::uint64_t events;
};

constexpr JitterFreePin kJitterFreePins[] = {
    {DirectoryMode::kBaseline, 0xe2efbb1fb621ce58ull, 2306041},
    {DirectoryMode::kAllarm, 0x8386ada52663cacdull, 1285988},
};

TEST(GoldenReport, JitterFreeOceanContIsPinned) {
  workload::ProfileParams params = workload::benchmark_params("ocean-cont");
  params.think_jitter = 0.0;
  core::RunRequest request;
  request.spec = workload::make_from_params(params, request.config,
                                            /*accesses_per_thread=*/300,
                                            request.config.num_cores);
  request.seed = 42;
  for (const JitterFreePin& pin : kJitterFreePins) {
    request.mode = pin.mode;
    const core::RunResult result = core::run_request(request);
    EXPECT_EQ(fnv1a(result.stats.to_string()), pin.stats_digest)
        << to_string(pin.mode);
    EXPECT_EQ(static_cast<std::uint64_t>(result.stats.get("sim.events")),
              pin.events)
        << to_string(pin.mode);
  }
}

}  // namespace
}  // namespace allarm
