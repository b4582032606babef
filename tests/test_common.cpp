// Unit tests for the common kernel: RNG, byte codecs, statistics, tables.
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "common/bytes.h"
#include "common/rng.h"
#include "common/shared_payload.h"
#include "common/stats.h"
#include "common/table.h"

namespace {

using namespace ga::common;

// ---------------------------------------------------------------- Rng

TEST(Rng, IsDeterministicForEqualSeeds)
{
    Rng a{42};
    Rng b{42};
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DiffersAcrossSeeds)
{
    Rng a{1};
    Rng b{2};
    int equal = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.next_u64() == b.next_u64()) ++equal;
    }
    EXPECT_LT(equal, 2);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng{7};
    for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(13), 13u);
}

TEST(Rng, BelowOneIsAlwaysZero)
{
    Rng rng{7};
    for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BelowZeroThrows)
{
    Rng rng{7};
    EXPECT_THROW(rng.below(0), Contract_error);
}

TEST(Rng, BelowIsRoughlyUniform)
{
    Rng rng{11};
    constexpr int buckets = 8;
    constexpr int draws = 80000;
    std::vector<std::size_t> counts(buckets, 0);
    for (int i = 0; i < draws; ++i) ++counts[rng.below(buckets)];
    const std::vector<double> expected(buckets, 1.0 / buckets);
    EXPECT_LT(chi_square_statistic(counts, expected), chi_square_critical_999(buckets - 1));
}

/// Rng::below's division path, drawn from a twin generator's raw stream:
/// reject draws at or above the largest multiple of bound, then reduce.
std::uint64_t below_by_division(Rng& raw, std::uint64_t bound)
{
    const std::uint64_t limit = Rng::max() - Rng::max() % bound;
    std::uint64_t draw = raw.next_u64();
    while (draw >= limit) draw = raw.next_u64();
    return draw % bound;
}

TEST(Rng, BelowMatchesTheDivisionPathDrawForDraw)
{
    // Power-of-two bounds (1 and 2^63 included) and others, 10k draws each:
    // same values and same consumption of the stream.
    for (const std::uint64_t bound : {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{4},
                                      std::uint64_t{256}, std::uint64_t{1} << 32,
                                      std::uint64_t{1} << 63, std::uint64_t{3}, std::uint64_t{255},
                                      (std::uint64_t{1} << 63) + 1}) {
        Rng rng{bound * 7 + 1};
        Rng raw{bound * 7 + 1};
        for (int i = 0; i < 10000; ++i) {
            ASSERT_EQ(rng.below(bound), below_by_division(raw, bound))
                << "bound " << bound << " draw " << i;
        }
        EXPECT_EQ(rng.next_u64(), raw.next_u64()) << "bound " << bound;
    }
}

TEST(Rng, BetweenCoversBothEndpoints)
{
    Rng rng{3};
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.between(-2, 2);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 2);
        saw_lo |= v == -2;
        saw_hi |= v == 2;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, Uniform01IsInHalfOpenUnitInterval)
{
    Rng rng{5};
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform01();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, ChanceHonorsDegenerateProbabilities)
{
    Rng rng{5};
    for (int i = 0; i < 50; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, WeightedNeverPicksZeroWeight)
{
    Rng rng{9};
    const std::vector<double> weights{0.0, 1.0, 0.0, 2.0};
    for (int i = 0; i < 500; ++i) {
        const std::size_t pick = rng.weighted(weights);
        EXPECT_TRUE(pick == 1 || pick == 3);
    }
}

TEST(Rng, WeightedMatchesProportions)
{
    Rng rng{13};
    const std::vector<double> weights{1.0, 3.0};
    int heavy = 0;
    constexpr int draws = 40000;
    for (int i = 0; i < draws; ++i) {
        if (rng.weighted(weights) == 1) ++heavy;
    }
    EXPECT_NEAR(static_cast<double>(heavy) / draws, 0.75, 0.02);
}

TEST(Rng, WeightedRejectsAllZero)
{
    Rng rng{1};
    EXPECT_THROW(rng.weighted({0.0, 0.0}), Contract_error);
}

TEST(Rng, ShuffleIsAPermutation)
{
    Rng rng{17};
    std::vector<int> items{1, 2, 3, 4, 5, 6, 7};
    auto shuffled = items;
    rng.shuffle(shuffled);
    std::multiset<int> a{items.begin(), items.end()};
    std::multiset<int> b{shuffled.begin(), shuffled.end()};
    EXPECT_EQ(a, b);
}

TEST(Rng, SplitStreamsAreDecorrelated)
{
    Rng parent{21};
    Rng child1 = parent.split(1);
    Rng child2 = parent.split(2);
    int equal = 0;
    for (int i = 0; i < 64; ++i) {
        if (child1.next_u64() == child2.next_u64()) ++equal;
    }
    EXPECT_LT(equal, 2);
}

// ---------------------------------------------------------------- Bytes

TEST(Bytes, U32RoundTrip)
{
    Bytes buffer;
    put_u32(buffer, 0xdeadbeef);
    put_u32(buffer, 0);
    put_u32(buffer, 0xffffffff);
    Byte_reader reader{buffer};
    EXPECT_EQ(reader.get_u32(), 0xdeadbeefu);
    EXPECT_EQ(reader.get_u32(), 0u);
    EXPECT_EQ(reader.get_u32(), 0xffffffffu);
    EXPECT_TRUE(reader.exhausted());
}

TEST(Bytes, U64AndI64RoundTrip)
{
    Bytes buffer;
    put_u64(buffer, 0x0123456789abcdefULL);
    put_i64(buffer, -42);
    Byte_reader reader{buffer};
    EXPECT_EQ(reader.get_u64(), 0x0123456789abcdefULL);
    EXPECT_EQ(reader.get_i64(), -42);
}

TEST(Bytes, LengthPrefixedBlobRoundTrip)
{
    Bytes buffer;
    put_bytes(buffer, bytes_of("hello"));
    put_bytes(buffer, {});
    Byte_reader reader{buffer};
    EXPECT_EQ(reader.get_bytes(), bytes_of("hello"));
    EXPECT_TRUE(reader.get_bytes().empty());
    EXPECT_TRUE(reader.exhausted());
}

TEST(Bytes, UnderrunThrowsDecodeError)
{
    Bytes buffer;
    put_u32(buffer, 5); // claims 5 payload bytes but has none
    Byte_reader reader{buffer};
    EXPECT_THROW(reader.get_bytes(), Decode_error);

    Bytes small{0x01};
    Byte_reader reader2{small};
    EXPECT_THROW(reader2.get_u32(), Decode_error);
}

TEST(Bytes, ViewsBorrowAndStayInsideTheirBuffer)
{
    Bytes buffer;
    put_bytes(buffer, bytes_of("inner"));
    put_u32(buffer, 7);
    const Shared_payload payload{buffer};
    Byte_reader reader{payload};
    const Byte_view inner = reader.get_view();
    EXPECT_EQ(inner.data(), payload.data() + 4); // borrowed, not copied
    EXPECT_EQ(Bytes(inner.begin(), inner.end()), bytes_of("inner"));

    // A reader over a sub-span ends where the span does, even when the
    // bytes after it would satisfy the length prefix.
    const Byte_view truncated = Byte_view{buffer}.first(6);
    Byte_reader bounded{truncated};
    EXPECT_THROW(bounded.get_view(), Decode_error);
    Byte_reader prefix_cut{Byte_view{buffer}.first(3)};
    EXPECT_THROW(prefix_cut.get_bytes(), Decode_error);
}

TEST(Bytes, TryGetViewReportsUnderrunWithoutMoving)
{
    Bytes buffer;
    put_bytes(buffer, bytes_of("ab"));
    put_bytes(buffer, bytes_of("cde"));
    Byte_reader reader{buffer};
    Byte_view blob;
    ASSERT_TRUE(reader.try_get_view(blob));
    EXPECT_EQ(blob.data(), buffer.data() + 4); // borrowed, not copied
    EXPECT_EQ(Bytes(blob.begin(), blob.end()), bytes_of("ab"));

    // The second blob's bytes are cut short: no throw, the reader stays put.
    Byte_reader cut{Byte_view{buffer}.first(buffer.size() - 1)};
    ASSERT_TRUE(cut.try_get_view(blob));
    const std::size_t before = cut.remaining();
    EXPECT_FALSE(cut.try_get_view(blob));
    EXPECT_EQ(cut.remaining(), before);
    EXPECT_EQ(Bytes(blob.begin(), blob.end()), bytes_of("ab")); // untouched on failure

    // Fewer than four bytes cannot even hold the length prefix.
    Byte_reader short_prefix{Byte_view{buffer}.first(3)};
    EXPECT_FALSE(short_prefix.try_get_view(blob));
    EXPECT_EQ(short_prefix.remaining(), 3U);

    // Exactly what get_view accepts.
    Byte_reader exact{buffer};
    ASSERT_TRUE(exact.try_get_view(blob));
    ASSERT_TRUE(exact.try_get_view(blob));
    EXPECT_EQ(Bytes(blob.begin(), blob.end()), bytes_of("cde"));
    EXPECT_TRUE(exact.exhausted());
}

TEST(Bytes, HexRoundTrip)
{
    const Bytes data{0xde, 0xad, 0x00, 0xff};
    EXPECT_EQ(to_hex(data), "dead00ff");
    EXPECT_EQ(from_hex("dead00ff"), data);
    EXPECT_EQ(from_hex("DEAD00FF"), data);
}

TEST(Bytes, FromHexRejectsMalformedInput)
{
    EXPECT_THROW(from_hex("abc"), Decode_error);
    EXPECT_THROW(from_hex("zz"), Decode_error);
}

// ---------------------------------------------------------------- Stats

TEST(Stats, RunningStatsMatchesClosedForm)
{
    Running_stats stats;
    for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(x);
    EXPECT_EQ(stats.count(), 8u);
    EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
    EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(stats.min(), 2.0);
    EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(Stats, RunningStatsEmptyThrows)
{
    Running_stats stats;
    EXPECT_THROW(static_cast<void>(stats.mean()), Contract_error);
    EXPECT_THROW(static_cast<void>(stats.min()), Contract_error);
}

TEST(Stats, PercentileInterpolates)
{
    const std::vector<double> data{1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(percentile(data, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(data, 1.0), 4.0);
    EXPECT_DOUBLE_EQ(percentile(data, 0.5), 2.5);
}

TEST(Stats, ChiSquareDetectsGrossBias)
{
    // 90/10 split claimed to be uniform: must exceed the 0.999 critical value.
    const std::vector<std::size_t> observed{900, 100};
    const std::vector<double> expected{0.5, 0.5};
    EXPECT_GT(chi_square_statistic(observed, expected), chi_square_critical_999(1));
}

TEST(Stats, ChiSquareAcceptsExactFit)
{
    const std::vector<std::size_t> observed{500, 500};
    const std::vector<double> expected{0.5, 0.5};
    EXPECT_LT(chi_square_statistic(observed, expected), chi_square_critical_999(1));
}

TEST(Stats, ChiSquareRejectsObservationInZeroCategory)
{
    const std::vector<std::size_t> observed{10, 1};
    const std::vector<double> expected{1.0, 0.0};
    EXPECT_THROW(chi_square_statistic(observed, expected), Contract_error);
}

TEST(Stats, ChiSquareCriticalGrowsWithDof)
{
    EXPECT_LT(chi_square_critical_999(1), chi_square_critical_999(2));
    EXPECT_LT(chi_square_critical_999(2), chi_square_critical_999(10));
    // Known value: chi2_{0.999, 1} ~ 10.83.
    EXPECT_NEAR(chi_square_critical_999(1), 10.83, 0.5);
}

// ---------------------------------------------------------------- Table

TEST(Table, PrintsAlignedColumnsWithRule)
{
    Table table{{"k", "ratio"}};
    table.add_row(std::vector<std::string>{"1", "3.0"});
    table.add_row(std::vector<std::string>{"1024", "1.01"});
    std::ostringstream out;
    table.print(out);
    const std::string text = out.str();
    EXPECT_NE(text.find("k"), std::string::npos);
    EXPECT_NE(text.find("1024"), std::string::npos);
    EXPECT_NE(text.find("-----"), std::string::npos);
}

TEST(Table, CsvOutput)
{
    Table table{{"a", "b"}};
    table.add_row(std::vector<std::string>{"1", "2"});
    std::ostringstream out;
    table.print_csv(out);
    EXPECT_EQ(out.str(), "a,b\n1,2\n");
}

TEST(Table, RowWidthMismatchThrows)
{
    Table table{{"a", "b"}};
    EXPECT_THROW(table.add_row(std::vector<std::string>{"only-one"}), Contract_error);
}

TEST(Table, FixedFormatsPrecision)
{
    EXPECT_EQ(fixed(1.23456, 2), "1.23");
    EXPECT_EQ(fixed(2.0, 0), "2");
}

} // namespace
