#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <thread>
#include <utility>
#include <vector>

#include "support/buffer_pool.h"
#include "support/checksum.h"
#include "support/geo_units.h"
#include "support/histogram.h"
#include "support/seed.h"
#include "support/strings.h"
#include "support/varint.h"

namespace mobivine::support {
namespace {

// ---------------------------------------------------------------------------
// strings
// ---------------------------------------------------------------------------

TEST(Strings, TrimRemovesSurroundingWhitespace) {
  EXPECT_EQ(Trim("  hello \t\n"), "hello");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("x"), "x");
  EXPECT_EQ(Trim("a b"), "a b");
}

TEST(Strings, SplitPreservesEmptyFields) {
  EXPECT_EQ(Split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("abc", ','), (std::vector<std::string>{"abc"}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(Strings, SplitWhitespaceDropsEmpty) {
  EXPECT_EQ(SplitWhitespace("  a\t b \n c "),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(SplitWhitespace("   ").empty());
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("sms://+155", "sms://"));
  EXPECT_FALSE(StartsWith("sm", "sms://"));
  EXPECT_TRUE(EndsWith("proxy.jar", ".jar"));
  EXPECT_FALSE(EndsWith("jar", "proxy.jar"));
}

TEST(Strings, JoinRoundTripsSplit) {
  std::vector<std::string> parts{"a", "b", "c"};
  EXPECT_EQ(Join(parts, ","), "a,b,c");
  EXPECT_EQ(Split(Join(parts, ","), ','), parts);
  EXPECT_EQ(Join({}, ","), "");
}

TEST(Strings, EqualsIgnoreCase) {
  EXPECT_TRUE(EqualsIgnoreCase("Content-Type", "content-type"));
  EXPECT_FALSE(EqualsIgnoreCase("Content-Type", "content-typ"));
  EXPECT_TRUE(EqualsIgnoreCase("", ""));
}

TEST(Strings, ReplaceAll) {
  EXPECT_EQ(ReplaceAll("a.b.c", ".", "::"), "a::b::c");
  EXPECT_EQ(ReplaceAll("aaa", "aa", "b"), "ba");
  EXPECT_EQ(ReplaceAll("abc", "", "x"), "abc");
}

TEST(Strings, ParseInt) {
  long long out = 0;
  EXPECT_TRUE(ParseInt(" 42 ", out));
  EXPECT_EQ(out, 42);
  EXPECT_TRUE(ParseInt("-7", out));
  EXPECT_EQ(out, -7);
  EXPECT_FALSE(ParseInt("4.2", out));
  EXPECT_FALSE(ParseInt("", out));
  EXPECT_FALSE(ParseInt("abc", out));
}

TEST(Strings, ParseDouble) {
  double out = 0;
  EXPECT_TRUE(ParseDouble("3.5", out));
  EXPECT_DOUBLE_EQ(out, 3.5);
  EXPECT_TRUE(ParseDouble("-1e3", out));
  EXPECT_DOUBLE_EQ(out, -1000.0);
  EXPECT_FALSE(ParseDouble("12x", out));
  EXPECT_FALSE(ParseDouble("", out));
}

TEST(Strings, ParseBool) {
  bool out = false;
  EXPECT_TRUE(ParseBool("TRUE", out));
  EXPECT_TRUE(out);
  EXPECT_TRUE(ParseBool("false", out));
  EXPECT_FALSE(out);
  EXPECT_TRUE(ParseBool("1", out));
  EXPECT_TRUE(out);
  EXPECT_FALSE(ParseBool("yes", out));
}

TEST(Strings, CountNonBlankLines) {
  EXPECT_EQ(CountNonBlankLines("a\n\n  \nb\n"), 2);
  EXPECT_EQ(CountNonBlankLines(""), 0);
  EXPECT_EQ(CountNonBlankLines("one"), 1);
}

TEST(Strings, IndentPadsNonEmptyLines) {
  EXPECT_EQ(Indent("a\n\nb", 2), "  a\n\n  b");
  EXPECT_EQ(Indent("x", 0), "x");
}

// ---------------------------------------------------------------------------
// geo
// ---------------------------------------------------------------------------

TEST(Geo, DegreesRadiansRoundTrip) {
  EXPECT_NEAR(RadiansToDegrees(DegreesToRadians(77.1855)), 77.1855, 1e-12);
  EXPECT_NEAR(DegreesToRadians(180.0), kPi, 1e-12);
}

TEST(Geo, HaversineZeroForSamePoint) {
  EXPECT_NEAR(HaversineMeters(28.5, 77.1, 28.5, 77.1), 0.0, 1e-9);
}

TEST(Geo, HaversineKnownDistance) {
  // One degree of latitude is ~111.2 km.
  const double d = HaversineMeters(28.0, 77.0, 29.0, 77.0);
  EXPECT_NEAR(d, 111195, 100);
}

TEST(Geo, HaversineSymmetric) {
  const double ab = HaversineMeters(28.5, 77.1, 28.9, 77.4);
  const double ba = HaversineMeters(28.9, 77.4, 28.5, 77.1);
  EXPECT_NEAR(ab, ba, 1e-6);
}

TEST(Geo, MoveAlongBearingDistanceConsistent) {
  for (double bearing : {0.0, 45.0, 90.0, 135.0, 200.0, 315.0}) {
    auto moved = MoveAlongBearing(28.5245, 77.1855, bearing, 500.0);
    const double back = HaversineMeters(28.5245, 77.1855, moved.latitude_deg,
                                        moved.longitude_deg);
    EXPECT_NEAR(back, 500.0, 0.5) << "bearing " << bearing;
  }
}

TEST(Geo, InitialBearingCardinal) {
  EXPECT_NEAR(InitialBearingDeg(28.0, 77.0, 29.0, 77.0), 0.0, 0.01);   // north
  EXPECT_NEAR(InitialBearingDeg(29.0, 77.0, 28.0, 77.0), 180.0, 0.01); // south
  EXPECT_NEAR(InitialBearingDeg(28.0, 77.0, 28.0, 78.0), 90.0, 0.5);   // east
}

TEST(Geo, NormalizeLatLonWrapsLongitude) {
  auto p = NormalizeLatLon(95.0, 190.0);
  EXPECT_DOUBLE_EQ(p.latitude_deg, 90.0);
  EXPECT_NEAR(p.longitude_deg, -170.0, 1e-9);
  auto q = NormalizeLatLon(-95.0, -181.0);
  EXPECT_DOUBLE_EQ(q.latitude_deg, -90.0);
  EXPECT_NEAR(q.longitude_deg, 179.0, 1e-9);
}

// ---------------------------------------------------------------------------
// varint (support/varint.h)
// ---------------------------------------------------------------------------

TEST(Varint, RoundTripsEveryEncodedLengthBoundary) {
  // Probe both sides of every 7-bit group boundary plus the extremes:
  // each value must round-trip exactly and use the minimal byte count.
  struct Case {
    std::uint64_t value;
    std::size_t bytes;
  };
  const Case cases[] = {
      {0, 1},          {1, 1},          {127, 1},
      {128, 2},        {16383, 2},      {16384, 3},
      {2097151, 3},    {2097152, 4},    {268435455, 4},
      {268435456, 5},  {(1ull << 35) - 1, 5}, {1ull << 35, 6},
      {(1ull << 42) - 1, 6}, {1ull << 42, 7},
      {(1ull << 49) - 1, 7}, {1ull << 49, 8},
      {(1ull << 56) - 1, 8}, {1ull << 56, 9},
      {(1ull << 63) - 1, 9}, {1ull << 63, 10},
      {UINT64_MAX, 10},
  };
  for (const Case& c : cases) {
    std::vector<std::uint8_t> buf;
    PutVarint(buf, c.value);
    EXPECT_EQ(buf.size(), c.bytes) << c.value;
    std::uint64_t decoded = 0;
    std::size_t consumed = 0;
    EXPECT_EQ(GetVarint(buf.data(), buf.size(), &decoded, &consumed),
              VarintStatus::kOk);
    EXPECT_EQ(decoded, c.value);
    EXPECT_EQ(consumed, c.bytes);
  }
}

TEST(Varint, RoundTripsDenseSweepAndBitPatterns) {
  // Dense low range plus every single-bit and all-ones-below-bit pattern:
  // exhaustive over the encodings' structure, cheap to run.
  std::vector<std::uint64_t> values;
  for (std::uint64_t v = 0; v < 4096; ++v) values.push_back(v);
  for (int bit = 0; bit < 64; ++bit) {
    values.push_back(1ull << bit);
    values.push_back((1ull << bit) - 1);
    values.push_back((1ull << bit) | 1u);
  }
  for (std::uint64_t v : values) {
    std::vector<std::uint8_t> buf;
    PutVarint(buf, v);
    ASSERT_LE(buf.size(), kMaxVarintBytes);
    std::uint64_t decoded = 0;
    std::size_t consumed = 0;
    ASSERT_EQ(GetVarint(buf.data(), buf.size(), &decoded, &consumed),
              VarintStatus::kOk) << v;
    EXPECT_EQ(decoded, v);
    EXPECT_EQ(consumed, buf.size());
  }
}

TEST(Varint, EveryStrictPrefixIsTruncatedNotMalformed) {
  // A streaming decoder must report a short buffer as kTruncated (wait
  // for more bytes), never kOk with a wrong value or kMalformed.
  for (std::uint64_t v :
       {std::uint64_t{128}, std::uint64_t{16384}, (std::uint64_t{1} << 35),
        (std::uint64_t{1} << 56), UINT64_MAX}) {
    std::vector<std::uint8_t> buf;
    PutVarint(buf, v);
    for (std::size_t len = 0; len < buf.size(); ++len) {
      std::uint64_t decoded = 0;
      std::size_t consumed = 0;
      EXPECT_EQ(GetVarint(buf.data(), len, &decoded, &consumed),
                VarintStatus::kTruncated)
          << "value " << v << " prefix " << len;
    }
  }
}

TEST(Varint, OverlongAndOverflowingEncodingsAreMalformed) {
  // 10 continuation bytes: an 11th group can never exist.
  std::vector<std::uint8_t> overlong(kMaxVarintBytes, 0xff);
  std::uint64_t decoded = 0;
  std::size_t consumed = 0;
  EXPECT_EQ(GetVarint(overlong.data(), overlong.size(), &decoded, &consumed),
            VarintStatus::kMalformed);
  // Group 10 carrying bits beyond the 64th (anything over 0x01).
  std::vector<std::uint8_t> overflow(kMaxVarintBytes - 1, 0x80);
  overflow.push_back(0x02);
  EXPECT_EQ(GetVarint(overflow.data(), overflow.size(), &decoded, &consumed),
            VarintStatus::kMalformed);
  // The maximal valid 10-byte encoding still decodes.
  std::vector<std::uint8_t> max_enc(kMaxVarintBytes - 1, 0xff);
  max_enc.push_back(0x01);
  EXPECT_EQ(GetVarint(max_enc.data(), max_enc.size(), &decoded, &consumed),
            VarintStatus::kOk);
  EXPECT_EQ(decoded, UINT64_MAX);
}

TEST(Varint, ZigzagIsAnExactInvolutionOnProbes) {
  const std::int64_t probes[] = {0,  -1, 1,  -2, 2,  63,  -64,
                                 64, INT64_MAX, INT64_MIN, -123456789};
  for (std::int64_t v : probes) {
    EXPECT_EQ(ZigzagDecode(ZigzagEncode(v)), v);
  }
  // Small magnitudes map to small codes: |v| <= 63 fits one byte.
  EXPECT_LT(ZigzagEncode(-64), 128u);
  EXPECT_LT(ZigzagEncode(63), 128u);
}

// ---------------------------------------------------------------------------
// crc32 (support/checksum.h)
// ---------------------------------------------------------------------------

TEST(Checksum, MatchesKnownIeeeVectors) {
  // The classic check value for the IEEE 802.3 reflected polynomial.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
  EXPECT_EQ(Crc32("a", 1), 0xE8B7BE43u);
  EXPECT_EQ(Crc32("abc", 3), 0x352441C2u);
}

TEST(Checksum, ChainingEqualsOneShot) {
  const char data[] = "the quick brown fox jumps over the lazy dog";
  const std::size_t n = sizeof(data) - 1;
  const std::uint32_t whole = Crc32(data, n);
  for (std::size_t split = 0; split <= n; ++split) {
    const std::uint32_t first = Crc32(data, split);
    EXPECT_EQ(Crc32(data + split, n - split, first), whole) << split;
  }
}

TEST(Checksum, DetectsEverySingleBitFlipInShortPayload) {
  std::vector<std::uint8_t> payload = {0xde, 0xad, 0xbe, 0xef, 0x00, 0x42};
  const std::uint32_t good = Crc32(payload.data(), payload.size());
  for (std::size_t byte = 0; byte < payload.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      payload[byte] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_NE(Crc32(payload.data(), payload.size()), good)
          << "byte " << byte << " bit " << bit;
      payload[byte] ^= static_cast<std::uint8_t>(1u << bit);
    }
  }
  // And truncation by any amount.
  for (std::size_t len = 0; len < payload.size(); ++len) {
    EXPECT_NE(Crc32(payload.data(), len), good) << len;
  }
}

// ---------------------------------------------------------------------------
// HDR histogram (support/histogram.h) — extracted from the gateway so the
// wire client's latency shares its buckets; the bound tests moved here.
// ---------------------------------------------------------------------------

TEST(Histogram, BucketsAndPercentiles) {
  LatencyHistogram histogram;
  for (std::uint64_t v = 1; v <= 1000; ++v) histogram.Record(v);
  const HistogramSnapshot snap = histogram.Snapshot();
  EXPECT_EQ(snap.total(), 1000u);
  // ~12.5% relative bucket error at the reported quantile values.
  const std::uint64_t p50 = snap.Percentile(0.50);
  const std::uint64_t p99 = snap.Percentile(0.99);
  EXPECT_GE(p50, 450u);
  EXPECT_LE(p50, 600u);
  EXPECT_GE(p99, 900u);
  EXPECT_LE(p99, 1200u);
  EXPECT_LE(snap.Percentile(0.0), snap.Percentile(1.0));
}

TEST(Histogram, BucketBoundsAreExactBelowEightMicros) {
  // Values 0..7 get exact buckets: zero bucketing error.
  for (std::uint64_t v = 0; v < 8; ++v) {
    const std::size_t index = histogram_detail::BucketFor(v);
    EXPECT_EQ(index, v);
    EXPECT_EQ(histogram_detail::BucketUpperBound(index), v);
  }
}

TEST(Histogram, RelativeErrorBoundedAcrossAllOctaves) {
  // For every representable value the reported upper bound over-estimates
  // by at most one sub-bucket width: ub - v <= v / 8 (~12.5%). Probe each
  // octave at its boundaries and mid-band, where the bound is tightest
  // and loosest respectively.
  const auto check = [](std::uint64_t v) {
    const std::size_t index = histogram_detail::BucketFor(v);
    ASSERT_LT(index, histogram_detail::kBucketCount);
    const std::uint64_t ub = histogram_detail::BucketUpperBound(index);
    EXPECT_GE(ub, v) << "value " << v << " reported below itself";
    EXPECT_LE(ub - v, v / 8)
        << "value " << v << " bucket ub " << ub << " exceeds 12.5% error";
  };
  for (int octave = 3; octave < 64; ++octave) {
    const std::uint64_t base = 1ull << octave;
    check(base);          // octave entry
    check(base + 1);      // just inside
    check(base + base / 2);  // mid-band
    check(base + base - 1);  // last value of the octave (no overflow:
                             // 2*base - 1 <= UINT64_MAX for octave 63)
  }
}

TEST(Histogram, TopOctaveUpperBoundSaturatesAtMax) {
  using histogram_detail::BucketFor;
  using histogram_detail::BucketUpperBound;
  // The last occupied slot is octave 63, sub-bucket 7: (63-2)*8 + 7.
  constexpr std::size_t kTopIndex = 495;
  EXPECT_EQ(BucketFor(UINT64_MAX), kTopIndex);
  // base + 8*width - 1 = 2^63 + 2^63 - 1 saturates exactly at UINT64_MAX;
  // a naive "base * 2" would have overflowed to 0.
  EXPECT_EQ(BucketUpperBound(kTopIndex), UINT64_MAX);

  LatencyHistogram histogram;
  histogram.Record(UINT64_MAX);
  const HistogramSnapshot snap = histogram.Snapshot();
  EXPECT_EQ(snap.total(), 1u);
  EXPECT_EQ(snap.Percentile(1.0), UINT64_MAX);
}

TEST(Histogram, PercentileRankTakesPercentNotQuantile) {
  // Regression: the wire bench passed 50.0/95.0/99.0 into Percentile(),
  // whose argument is a quantile in [0, 1]. Everything above 1 clamps to
  // the max, so p50 == p95 == p99 == max — the degenerate flat
  // percentiles in early BENCH_wire.json runs. PercentileRank takes the
  // human-facing percent form and must agree with the quantile form.
  LatencyHistogram histogram;
  for (std::uint64_t v = 1; v <= 1000; ++v) histogram.Record(v);
  const HistogramSnapshot snap = histogram.Snapshot();
  EXPECT_EQ(snap.PercentileRank(50.0), snap.Percentile(0.50));
  EXPECT_EQ(snap.PercentileRank(95.0), snap.Percentile(0.95));
  EXPECT_EQ(snap.PercentileRank(99.0), snap.Percentile(0.99));
  // The spread distribution must report spread percentiles: the old bug
  // made these all equal.
  EXPECT_LT(snap.PercentileRank(50.0), snap.PercentileRank(95.0));
  EXPECT_LT(snap.PercentileRank(95.0), snap.PercentileRank(99.0));
  // And the misuse mode stays what it was: out-of-range quantiles clamp.
  EXPECT_EQ(snap.Percentile(50.0), snap.Percentile(1.0));
}

// ---------------------------------------------------------------------------
// BufferPool (support/buffer_pool.h) — the wire frame-buffer pool
// ---------------------------------------------------------------------------

TEST(BufferPool, AcquireReturnsClearedBufferWithClassCapacity) {
  BufferPool pool;
  PooledBuffer buf = pool.Acquire(100);
  EXPECT_TRUE(buf.bytes().empty());
  EXPECT_GE(buf.bytes().capacity(), 512u);  // smallest class >= 100
  EXPECT_EQ(pool.Stats().misses, 1u);
  EXPECT_EQ(pool.Stats().hits, 0u);
}

TEST(BufferPool, ReleasedBufferIsReusedAsAHit) {
  BufferPool pool;
  {
    PooledBuffer buf = pool.Acquire(1000);
    buf.bytes().assign(1000, 0xab);
  }  // destructor returns it
  EXPECT_EQ(pool.PooledCount(), 1u);
  PooledBuffer again = pool.Acquire(1000);
  EXPECT_TRUE(again.bytes().empty());  // cleared on reuse
  EXPECT_GE(again.bytes().capacity(), 1000u);
  const BufferPoolStats stats = pool.Stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.returns, 1u);
}

TEST(BufferPool, ExplicitReleaseIsIdempotentAndMoveSafe) {
  BufferPool pool;
  PooledBuffer buf = pool.Acquire(64);
  PooledBuffer moved = std::move(buf);
  buf.Release();  // moved-from: no-op
  EXPECT_EQ(pool.PooledCount(), 0u);
  moved.Release();
  moved.Release();  // second release: no-op
  EXPECT_EQ(pool.PooledCount(), 1u);
  EXPECT_EQ(pool.Stats().returns, 1u);
}

TEST(BufferPool, GrownBufferReturnsToTheLargerClass) {
  BufferPool pool;
  {
    PooledBuffer buf = pool.Acquire(512);
    buf.bytes().resize(5000);  // grew past its class
  }
  EXPECT_EQ(pool.PooledCount(), 1u);
  // The grown capacity now serves the larger class without a fresh alloc.
  PooledBuffer big = pool.Acquire(4096);
  EXPECT_EQ(pool.Stats().hits, 1u);
}

TEST(BufferPool, OversizeRequestsBypassThePool) {
  BufferPool pool;
  { PooledBuffer jumbo = pool.Acquire(4u << 20); }  // above largest class
  EXPECT_EQ(pool.PooledCount(), 0u);  // trimmed, not pooled
  const BufferPoolStats stats = pool.Stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.trims, 1u);
}

TEST(BufferPool, ShelfCapBoundsPooledBuffers) {
  BufferPool pool;
  std::vector<PooledBuffer> held;
  const int over_cap = static_cast<int>(BufferPool::kMaxGlobalPerClass) + 40;
  for (int i = 0; i < over_cap; ++i) held.push_back(pool.Acquire(256));
  held.clear();  // returns overflow the bounded global shelf
  EXPECT_LE(pool.PooledCount(), BufferPool::kMaxGlobalPerClass);
  EXPECT_GT(pool.Stats().trims, 0u);
}

TEST(BufferPool, LargeClassesParkAtMostOneMiB) {
  // A burst of 300 buffers of one class, all released at once, parks on
  // the shelf what the tier's depth and 1 MiB caps allow; the rest trim.
  const auto parked_after_burst = [](std::size_t size) {
    BufferPool pool;
    std::vector<PooledBuffer> held;
    for (int i = 0; i < 300; ++i) held.push_back(pool.Acquire(size));
    held.clear();
    const BufferPoolStats stats = pool.Stats();
    EXPECT_EQ(stats.returns, pool.PooledCount());
    EXPECT_EQ(stats.trims, 300u - pool.PooledCount());
    return pool.PooledCount();
  };
  EXPECT_EQ(parked_after_burst(512), BufferPool::kMaxGlobalPerClass);
  EXPECT_EQ(parked_after_burst(64u << 10), 16u);
  // One 1 MiB buffer fills its shelf, not 256 MB left parked.
  EXPECT_EQ(parked_after_burst(1u << 20), 1u);
}

TEST(BufferPool, GrownBuffersCountAtTheirCapacity) {
  // 256 buffers acquired at 4 KiB that grew to 60 KiB all file under the
  // 4 KiB class; counted by capacity, its 1 MiB bound parks 17 of them,
  // not 256 (15 MB).
  BufferPool pool;
  std::vector<PooledBuffer> held;
  for (int i = 0; i < 256; ++i) {
    held.push_back(pool.Acquire(4u << 10));
    held.back().bytes().resize(60u << 10);
  }
  held.clear();
  EXPECT_LE(pool.PooledCount(), 17u);
  EXPECT_EQ(pool.Stats().trims, 256u - pool.PooledCount());
}

TEST(BufferPool, BufferReleasedOnALiveThreadIsReusedByItsAcquirer) {
  // The wire's hand-off: a shard worker (A, this thread) encodes a frame
  // and the event loop (B) releases it after the writev, then keeps
  // running. A's next frame of that class must reuse that very buffer —
  // a hit, no new allocation — while B is still alive. The smallest
  // class is bounded by depth alone, so whatever earlier tests left on
  // the shared pool's shelf, handing one buffer back cannot be trimmed.
  BufferPool& pool = BufferPool::WirePool();
  constexpr std::size_t kSize = BufferPool::kClassSizes[0];
  PooledBuffer frame = pool.Acquire(kSize);
  const std::uint8_t* const storage = frame.bytes().data();
  std::promise<void> released;
  std::promise<void> reacquired;
  std::future<void> released_future = released.get_future();
  std::future<void> reacquired_future = reacquired.get_future();
  std::thread loop([&] {
    frame.Release();
    released.set_value();
    reacquired_future.wait();
  });
  released_future.wait();
  const BufferPoolStats before = pool.Stats();
  PooledBuffer next = pool.Acquire(kSize);
  const BufferPoolStats after = pool.Stats();
  reacquired.set_value();
  loop.join();
  EXPECT_EQ(after.hits - before.hits, 1u);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(next.bytes().data(), storage);
}

TEST(BufferPool, FloodFromEightLiveThreadsParksAtMostTheProcessBound) {
  // Eight threads each hold 300 buffers of every class, then release
  // them all and stay alive while the pool is read. Whatever thread a
  // buffer comes back on, the pool parks at most 256 x 512 B + 4 x 1 MiB
  // and 256 + 256 + 16 + 4 + 1 buffers.
  constexpr int kThreads = 8;
  constexpr int kPerClass = 300;
  BufferPool pool;
  std::promise<void> checked;
  std::shared_future<void> checked_future = checked.get_future().share();
  std::vector<std::promise<void>> released(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<PooledBuffer> held;
      for (const std::size_t size : BufferPool::kClassSizes) {
        for (int i = 0; i < kPerClass; ++i) held.push_back(pool.Acquire(size));
      }
      held.clear();
      released[t].set_value();
      checked_future.wait();
    });
  }
  for (std::promise<void>& done : released) done.get_future().wait();
  const std::size_t parked_bytes = pool.ParkedBytes();
  const std::size_t pooled = pool.PooledCount();
  checked.set_value();
  for (std::thread& thread : threads) thread.join();
  // Each thread still holds 300 of a class after that class's last
  // acquire, so every shelf ends full: the bound is met exactly.
  EXPECT_EQ(parked_bytes, 256u * 512u + 4u * (1u << 20));
  EXPECT_EQ(pooled, 533u);
  const BufferPoolStats stats = pool.Stats();
  EXPECT_EQ(stats.returns + stats.trims,
            kThreads * BufferPool::kClassCount * kPerClass);
}

TEST(Histogram, PercentileRanksTrackExactValuesWithinErrorBound) {
  // 1..1000 recorded once each: the exact q-quantile is rank
  // floor(q * 999) + 1, and the histogram's answer must sit within one
  // sub-bucket width above it.
  LatencyHistogram histogram;
  for (std::uint64_t v = 1; v <= 1000; ++v) histogram.Record(v);
  const HistogramSnapshot snap = histogram.Snapshot();
  for (const double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    const std::uint64_t exact =
        static_cast<std::uint64_t>(q * 999.0) + 1;
    const std::uint64_t reported = snap.Percentile(q);
    EXPECT_GE(reported, exact) << "q=" << q;
    EXPECT_LE(reported - exact, exact / 8 + 1) << "q=" << q;
  }
}

// ---------------------------------------------------------------------------
// seed
// ---------------------------------------------------------------------------

TEST(Seed, SameRootSameForkPathSameStream) {
  SplitMix64 a = SeedSequence(42).Fork("fleet").Fork(3).Fork(1).stream();
  SplitMix64 b = SeedSequence(42).Fork("fleet").Fork(3).Fork(1).stream();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Seed, ForkingNeverMutatesTheParent) {
  const SeedSequence parent = SeedSequence(7).Fork("traffic");
  const std::uint64_t before = parent.state();
  (void)parent.Fork("child");
  (void)parent.Fork(9);
  EXPECT_EQ(parent.state(), before);
  // Re-deriving the same child after other forks names the same stream.
  EXPECT_EQ(parent.Fork(9).state(), parent.Fork(9).state());
}

TEST(Seed, LabelsIndicesAndRootsAllSeparateStreams) {
  const SeedSequence root(1);
  // A label fork and an index fork that "spell the same thing" must not
  // collide — labels go through FNV-1a, indices through Mix64.
  EXPECT_NE(root.Fork("1").state(), root.Fork(1).state());
  EXPECT_NE(root.Fork("a").Fork(1).state(), root.Fork("a1").state());
  EXPECT_NE(root.Fork("traffic").state(), root.Fork("fleet").state());
  EXPECT_NE(SeedSequence(1).state(), SeedSequence(2).state());
  // Sibling indices are distinct, including 0 (seed 0 must be usable).
  EXPECT_NE(root.Fork(0).state(), root.Fork(1).state());
}

TEST(Seed, SplitMixUnitDrawsAreInRangeAndRoughlyUniform) {
  SplitMix64 rng(99);
  double sum = 0;
  constexpr int kDraws = 4096;
  for (int i = 0; i < kDraws; ++i) {
    const double u = rng.NextUnit();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / kDraws, 0.5, 0.02);
  // NextBelow stays in range and hits both halves of a small bound.
  SplitMix64 rng2(7);
  bool low = false, high = false;
  for (int i = 0; i < 256; ++i) {
    const std::uint64_t v = rng2.NextBelow(10);
    ASSERT_LT(v, 10u);
    (v < 5 ? low : high) = true;
  }
  EXPECT_TRUE(low);
  EXPECT_TRUE(high);
  EXPECT_EQ(rng2.NextBelow(0), 0u);
}

}  // namespace
}  // namespace mobivine::support
