// Unit tests for the common library: types, configuration, RNG,
// statistics, checksums, file I/O and numeric flag parsing.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/checksum.hh"
#include "common/config.hh"
#include "common/fileio.hh"
#include "common/log.hh"
#include "common/parse.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace allarm {
namespace {

// ----------------------------------------------------------------- types ----

TEST(Types, TickConversionRoundTrips) {
  EXPECT_EQ(ticks_from_ns(1.0), kTicksPerNs);
  EXPECT_EQ(ticks_from_ns(60.0), 60 * kTicksPerNs);
  EXPECT_DOUBLE_EQ(ns_from_ticks(ticks_from_ns(12.5)), 12.5);
}

TEST(Types, SubNanosecondQuantitiesAreExact) {
  // One 4-byte flit on an 8 GB/s link takes exactly 0.5 ns.
  EXPECT_EQ(ticks_from_ns(0.5), kTicksPerNs / 2);
}

TEST(Types, LineAndPageArithmetic) {
  const Addr a = 0x12345678;
  EXPECT_EQ(line_of(a), a >> 6);
  EXPECT_EQ(addr_of_line(line_of(a)), a & ~Addr{63});
  EXPECT_EQ(page_of(a), a >> 12);
  EXPECT_EQ(addr_of_page(page_of(a)), a & ~Addr{4095});
  EXPECT_EQ(kLinesPerPage, 64u);
}

TEST(Types, AccessTypeNames) {
  EXPECT_EQ(to_string(AccessType::kLoad), "load");
  EXPECT_EQ(to_string(AccessType::kStore), "store");
  EXPECT_EQ(to_string(AccessType::kInstFetch), "ifetch");
}

// ---------------------------------------------------------------- config ----

TEST(Config, TableIDefaultsValidate) {
  SystemConfig config;
  EXPECT_NO_THROW(config.validate());
}

TEST(Config, TableIDerivedQuantities) {
  SystemConfig config;
  EXPECT_EQ(config.num_nodes(), 16u);
  EXPECT_EQ(config.probe_filter_entries(), 512u * 1024 / 64);
  EXPECT_EQ(config.dram_bytes_per_node(), 128ull * 1024 * 1024);
  EXPECT_EQ(config.l2.lines(), 4096u);
  EXPECT_EQ(config.l1d.sets(), 128u);
  EXPECT_EQ(config.flit_serialization(), ticks_from_ns(0.5));
}

TEST(Config, RejectsMismatchedCoreCount) {
  SystemConfig config;
  config.num_cores = 8;  // 4x4 mesh still has 16 nodes.
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(Config, RejectsNonPowerOfTwoSets) {
  SystemConfig config;
  config.l1d.size_bytes = 48 * 1024;  // 192 sets at 4 ways: not a power of 2.
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(Config, RejectsBadProbeFilterGeometry) {
  SystemConfig config;
  config.probe_filter_coverage_bytes = 96 * 1024;  // 384 sets.
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(Config, ModeNames) {
  EXPECT_EQ(to_string(DirectoryMode::kBaseline), "baseline");
  EXPECT_EQ(to_string(DirectoryMode::kAllarm), "allarm");
  EXPECT_EQ(to_string(ReplacementKind::kLru), "lru");
}

// ------------------------------------------------------------------- rng ----

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.next() == b.next());
  EXPECT_LT(equal, 3);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, BelowCoversRange) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 200; ++i) {
    const auto v = rng.range(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(5);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ChanceMatchesProbability) {
  Rng rng(9);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.chance(0.3);
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, SplitProducesIndependentStreams) {
  Rng parent(42);
  Rng c1 = parent.split(1);
  Rng c2 = parent.split(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (c1.next() == c2.next());
  EXPECT_LT(equal, 3);
}

TEST(Zipf, SkewsTowardLowRanks) {
  ZipfDistribution zipf(100, 1.0);
  Rng rng(1);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 50000; ++i) ++counts[zipf(rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], 20 * counts[99] / 2);
}

TEST(Zipf, UniformWhenAlphaZero) {
  ZipfDistribution zipf(10, 0.0);
  Rng rng(2);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 50000; ++i) ++counts[zipf(rng)];
  for (int c : counts) EXPECT_NEAR(c, 5000, 500);
}

TEST(Zipf, RejectsEmptySupport) {
  EXPECT_THROW(ZipfDistribution(0, 1.0), std::invalid_argument);
}

// ----------------------------------------------------------------- stats ----

TEST(StatSet, SetAddGet) {
  StatSet s;
  s.set("a", 2.0);
  s.add("a", 3.0);
  s.add("b", 1.0);
  EXPECT_DOUBLE_EQ(s.get("a"), 5.0);
  EXPECT_DOUBLE_EQ(s.get("b"), 1.0);
  EXPECT_DOUBLE_EQ(s.get("missing", -1.0), -1.0);
  EXPECT_TRUE(s.contains("a"));
  EXPECT_FALSE(s.contains("c"));
}

TEST(StatSet, NormalizedTo) {
  StatSet base, other;
  base.set("x", 10.0);
  other.set("x", 7.0);
  EXPECT_DOUBLE_EQ(other.normalized_to(base, "x"), 0.7);
  EXPECT_DOUBLE_EQ(other.normalized_to(base, "y"), 1.0);  // Fallback.
}

TEST(StatSet, MergeWithPrefix) {
  StatSet a, b;
  b.set("x", 1.0);
  a.merge(b, "sub.");
  EXPECT_DOUBLE_EQ(a.get("sub.x"), 1.0);
}

TEST(StatSet, MergeEmptySetsAreNeutral) {
  StatSet a, empty;
  a.set("x", 3.0);
  a.merge(empty, "sub.");      // Merging an empty set changes nothing.
  EXPECT_EQ(a.values().size(), 1u);
  empty.merge(a);              // Merging into an empty set copies.
  EXPECT_DOUBLE_EQ(empty.get("x"), 3.0);
}

TEST(StatSet, MergePrefixCollisionOverwrites) {
  // merge() overwrites (it does not add): a prefixed name that collides
  // with an existing stat takes the incoming value.
  StatSet a, b;
  a.set("sub.x", 1.0);
  b.set("x", 9.0);
  a.merge(b, "sub.");
  EXPECT_DOUBLE_EQ(a.get("sub.x"), 9.0);
  // A second merge of the same set is idempotent, not additive.
  a.merge(b, "sub.");
  EXPECT_DOUBLE_EQ(a.get("sub.x"), 9.0);
}

TEST(StatSet, NormalizedToZeroDenominator) {
  StatSet base, other;
  base.set("x", 0.0);   // Present but zero: fallback, not inf/NaN.
  other.set("x", 5.0);
  EXPECT_DOUBLE_EQ(other.normalized_to(base, "x"), 1.0);
  EXPECT_DOUBLE_EQ(other.normalized_to(base, "x", -2.0), -2.0);
  // Numerator missing: fallback even when the denominator is fine.
  base.set("y", 4.0);
  EXPECT_DOUBLE_EQ(other.normalized_to(base, "y", 0.5), 0.5);
}

// ------------------------------------------------------------- histogram ----

TEST(Histogram, BucketBoundaries) {
  // Bucket 0 is exact zero; bucket b >= 1 spans [2^(b-1), 2^b - 1].
  EXPECT_EQ(Histogram::bucket_of(0), 0);
  EXPECT_EQ(Histogram::bucket_of(1), 1);
  EXPECT_EQ(Histogram::bucket_of(2), 2);
  EXPECT_EQ(Histogram::bucket_of(3), 2);
  EXPECT_EQ(Histogram::bucket_of(4), 3);
  EXPECT_EQ(Histogram::bucket_of(1023), 10);
  EXPECT_EQ(Histogram::bucket_of(1024), 11);
  // The last bucket saturates.
  EXPECT_EQ(Histogram::bucket_of(~std::uint64_t{0}), Histogram::kBuckets - 1);
  for (int b = 1; b < Histogram::kBuckets - 1; ++b) {
    EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_lo(b)), b);
    EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_hi(b)), b);
  }
}

TEST(Histogram, CountMaxAndZeros) {
  Histogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  h.record(0);
  h.record(0);
  h.record(17);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.max(), 17u);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);  // Rank 2 of 3 is a zero.
}

TEST(Histogram, QuantileKnownAnswers) {
  // A single repeated value: every quantile clamps to the observed max.
  Histogram h;
  for (int i = 0; i < 100; ++i) h.record(8);
  EXPECT_DOUBLE_EQ(h.quantile(0.50), 8.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 8.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.00), 8.0);

  // Bimodal: 50 samples of 1, 50 samples of 1000.  p50 names rank 50 (a 1);
  // p95 names rank 95, the 45th sample in bucket [512, 1023]:
  // 512 + 511 * 45/50 = 971.9, which is below the observed max of 1000.
  Histogram bi;
  for (int i = 0; i < 50; ++i) bi.record(1);
  for (int i = 0; i < 50; ++i) bi.record(1000);
  EXPECT_DOUBLE_EQ(bi.quantile(0.50), 1.0);
  EXPECT_DOUBLE_EQ(bi.quantile(0.95), 512.0 + 511.0 * 45.0 / 50.0);
  EXPECT_DOUBLE_EQ(bi.quantile(1.00), 1000.0);
}

TEST(Histogram, MergeIsAssociativeAndCommutative) {
  const auto fill = [](Histogram& h, std::uint64_t base, int n) {
    for (int i = 0; i < n; ++i) h.record(base + static_cast<std::uint64_t>(i));
  };
  Histogram a, b, c;
  fill(a, 1, 10);
  fill(b, 100, 20);
  fill(c, 10000, 5);

  Histogram ab_c = a;        // (a + b) + c
  ab_c.merge(b);
  ab_c.merge(c);
  Histogram bc = b;          // a + (b + c)
  bc.merge(c);
  Histogram a_bc = a;
  a_bc.merge(bc);
  Histogram cba = c;         // Reversed order.
  cba.merge(b);
  cba.merge(a);

  EXPECT_EQ(ab_c.buckets(), a_bc.buckets());
  EXPECT_EQ(ab_c.buckets(), cba.buckets());
  EXPECT_EQ(ab_c.count(), 35u);
  EXPECT_EQ(ab_c.max(), 10004u);
  EXPECT_EQ(cba.max(), 10004u);
  for (double q : {0.5, 0.95, 0.99}) {
    EXPECT_DOUBLE_EQ(ab_c.quantile(q), a_bc.quantile(q));
    EXPECT_DOUBLE_EQ(ab_c.quantile(q), cba.quantile(q));
  }
}

TEST(Histogram, ExportToStatSet) {
  Histogram h;
  for (int i = 0; i < 10; ++i) h.record(64);
  StatSet s;
  h.export_to(s, "hist.lat");
  EXPECT_DOUBLE_EQ(s.get("hist.lat.p50"), 64.0);
  EXPECT_DOUBLE_EQ(s.get("hist.lat.p95"), 64.0);
  EXPECT_DOUBLE_EQ(s.get("hist.lat.p99"), 64.0);
  EXPECT_DOUBLE_EQ(s.get("hist.lat.max"), 64.0);
  EXPECT_DOUBLE_EQ(s.get("hist.lat.count"), 10.0);
}

TEST(Histogram, RoundTripThroughRawBuckets) {
  Histogram h;
  for (std::uint64_t v : {0ull, 1ull, 7ull, 300ull, 300ull, 1ull << 20}) {
    h.record(v);
  }
  Histogram copy;
  for (int b = 0; b < Histogram::kBuckets; ++b) {
    if (h.buckets()[static_cast<std::size_t>(b)] != 0) {
      copy.add_bucket(b, h.buckets()[static_cast<std::size_t>(b)]);
    }
  }
  copy.note_max(h.max());
  EXPECT_EQ(copy.buckets(), h.buckets());
  EXPECT_EQ(copy.count(), h.count());
  EXPECT_EQ(copy.max(), h.max());
}

TEST(Stats, Geomean) {
  EXPECT_DOUBLE_EQ(geomean({4.0, 9.0}), 6.0);
  EXPECT_DOUBLE_EQ(geomean({}), 0.0);
  EXPECT_DOUBLE_EQ(geomean({2.0, 0.0}), 0.0);  // Non-positive entries.
  EXPECT_NEAR(geomean({1.1, 1.2, 1.3}), 1.1972, 1e-3);
}

TEST(Stats, Mean) {
  EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

// ------------------------------------------------------------------- log ----

TEST(Log, FormatLineIsPinned) {
  // The line format is part of the operational surface: scripts that
  // attribute interleaved worker output key on "[sec.usec] [thread] [lvl]".
  EXPECT_EQ(Log::format_line(LogLevel::kWarn, "msg", 1234567890ull,
                             "allarm-w0"),
            "[1.234567] [allarm-w0] [warn] msg");
  EXPECT_EQ(Log::format_line(LogLevel::kError, "disk on fire", 0ull, "-"),
            "[0.000000] [-] [error] disk on fire");
  // Sub-microsecond parts truncate, they do not round.
  EXPECT_EQ(Log::format_line(LogLevel::kInfo, "x", 999ull, "main"),
            "[0.000000] [main] [info] x");
}

// -------------------------------------------------------------- checksum ----

TEST(Checksum, Crc32cKnownAnswerVectors) {
  // The canonical CRC32C check value plus the RFC 3720 (iSCSI) vectors.
  EXPECT_EQ(crc32c(std::string("123456789")), 0xE3069283u);
  EXPECT_EQ(crc32c(std::string(32, '\0')), 0x8A9136AAu);
  EXPECT_EQ(crc32c(std::string(32, '\xFF')), 0x62A8AB43u);
  std::string ascending(32, '\0');
  std::iota(ascending.begin(), ascending.end(), 0);
  EXPECT_EQ(crc32c(ascending), 0x46DD794Eu);
  EXPECT_EQ(crc32c(std::string()), 0u);
}

TEST(Checksum, Crc32cSeedContinuesAcrossPieces) {
  // Checksumming in pieces through `seed` equals one pass over the whole.
  const std::string whole = "123456789";
  const std::uint32_t piecewise =
      crc32c(whole.data() + 5, 4, crc32c(whole.data(), 5));
  EXPECT_EQ(piecewise, crc32c(whole));
  EXPECT_EQ(piecewise, 0xE3069283u);
}

TEST(Checksum, Fnv1a64KnownAnswerVectors) {
  const auto fnv = [](const std::string& s) {
    Fnv1a64 h;
    h.update(s.data(), s.size());
    return h.digest();
  };
  EXPECT_EQ(fnv(""), 0xcbf29ce484222325ull);  // The offset basis.
  EXPECT_EQ(fnv("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv("foobar"), 0x85944171f73967e8ull);
  EXPECT_EQ(fnv("hello"), 0xa430d84680aabd0bull);
}

TEST(Checksum, Fnv1a64StringFoldIsLengthPrefixed) {
  // update(std::string) folds the length first, so "ab"+"c" and "a"+"bc"
  // hash apart — the property the sweep spec hash relies on.
  Fnv1a64 a, b;
  a.update(std::string("ab"));
  a.update(std::string("c"));
  b.update(std::string("a"));
  b.update(std::string("bc"));
  EXPECT_NE(a.digest(), b.digest());
}

// ---------------------------------------------------------------- fileio ----

namespace {

std::string test_file_path(const char* name) {
  return testing::TempDir() + "/allarm_fileio_" + name;
}

}  // namespace

TEST(FileIo, PositionalWritesAndReadsRoundTrip) {
  const std::string path = test_file_path("positional");
  {
    File file(path, File::Mode::kCreate);
    file.write_at(0, "aaaa", 4);
    file.write_at(8, "bbbb", 4);  // Extends past EOF; bytes 4-7 read as 0.
    file.write_at(2, "XY", 2);    // Overwrite mid-file.
    EXPECT_EQ(file.size(), 12u);

    char buf[12] = {};
    file.read_at(0, buf, sizeof(buf));
    EXPECT_EQ(std::string(buf, 12), std::string("aaXY\0\0\0\0bbbb", 12));
    char mid[4] = {};
    file.read_at(2, mid, sizeof(mid));
    EXPECT_EQ(std::string(mid, 4), std::string("XY\0\0", 4));
    file.sync();
    file.close();
  }
  {
    File file(path, File::Mode::kReadWrite);
    file.truncate(4);
    EXPECT_EQ(file.size(), 4u);
  }
  std::remove(path.c_str());
}

TEST(FileIo, ShortReadsAreDetected) {
  const std::string path = test_file_path("short");
  File file(path, File::Mode::kCreate);
  file.write_at(0, "12345678", 8);

  // read_at demands every byte; past-EOF extents throw.
  char buf[16] = {};
  EXPECT_THROW(file.read_at(0, buf, sizeof(buf)), std::runtime_error);
  EXPECT_THROW(file.read_at(8, buf, 1), std::runtime_error);

  // read_at_most reports the truncated count instead.
  EXPECT_EQ(file.read_at_most(4, buf, sizeof(buf)), 4u);
  EXPECT_EQ(std::string(buf, 4), "5678");
  EXPECT_EQ(file.read_at_most(100, buf, sizeof(buf)), 0u);
  file.close();
  std::remove(path.c_str());
}

TEST(FileIo, ClosedOrInvalidFdPropagatesErrors) {
  const std::string path = test_file_path("closed");
  File file(path, File::Mode::kCreate);
  file.write_at(0, "x", 1);
  file.close();
  EXPECT_FALSE(file.is_open());
  file.close();  // Idempotent.

  char byte = 0;
  EXPECT_THROW(file.read_at(0, &byte, 1), std::runtime_error);
  EXPECT_THROW(file.write_at(0, "y", 1), std::runtime_error);
  EXPECT_THROW(file.size(), std::runtime_error);
  EXPECT_THROW(file.sync(), std::runtime_error);
  EXPECT_THROW(file.truncate(0), std::runtime_error);
  std::remove(path.c_str());

  // Opening a missing file read-only fails loudly, with the path.
  const std::string missing = test_file_path("does_not_exist");
  try {
    File nope(missing, File::Mode::kRead);
    FAIL() << "open of a missing file did not throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(missing), std::string::npos);
  }
}

TEST(TextTable, AlignsColumns) {
  TextTable t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer-name", "2"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer-name"), std::string::npos);
  EXPECT_EQ(TextTable::fmt(1.23456, 2), "1.23");
}

// ----------------------------------------------------------------- parse ----

TEST(ParseU64, AcceptsPlainDecimal) {
  EXPECT_EQ(parse_u64("--n", "0"), 0u);
  EXPECT_EQ(parse_u64("--n", "30000"), 30000u);
  EXPECT_EQ(parse_u64("--n", "007"), 7u);
  EXPECT_EQ(parse_u64("--n", "18446744073709551615"), UINT64_MAX);
  EXPECT_EQ(parse_u64("--n", "4294967295", UINT32_MAX), UINT32_MAX);
  EXPECT_EQ(parse_u32("--n", "4294967295"), UINT32_MAX);
  EXPECT_EQ(parse_u64("--n", "5", 5), 5u);
}

TEST(ParseU64, RejectsAnythingElseWithTheFlagInTheMessage) {
  for (const char* bad : {"", "abc", "-1", "+1", " 1", "1 ", "1x", "0x10",
                          "1e3", "18446744073709551616"}) {
    EXPECT_THROW(parse_u64("--accesses", bad), std::invalid_argument) << bad;
  }
  EXPECT_THROW(parse_u64("--jobs", "4294967296", UINT32_MAX),
               std::invalid_argument);
  EXPECT_THROW(parse_u32("--jobs", "4294967296"), std::invalid_argument);
  EXPECT_THROW(parse_u64("--n", "9", 5), std::invalid_argument);
  EXPECT_THROW(parse_u64("--n", "60", 59), std::invalid_argument);
  try {
    parse_u64("--accesses", "abc");
    FAIL() << "accepted 'abc'";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "--accesses: expected a number, got 'abc'");
  }
}

}  // namespace
}  // namespace allarm
