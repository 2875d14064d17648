// Unit tests for src/util: RNG determinism and distributions, hashing,
// statistics accumulators and table formatting.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "util/hash.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/stats.h"

namespace sp {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 4);
}

TEST(Rng, BelowIsInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(13), 13u);
}

TEST(Rng, BelowCoversAllValues)
{
    Rng rng(9);
    std::set<uint64_t> seen;
    for (int i = 0; i < 500; ++i)
        seen.insert(rng.below(7));
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, RangeInclusiveBounds)
{
    Rng rng(11);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        int64_t v = rng.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= (v == -3);
        saw_hi |= (v == 3);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(13);
    double sum = 0.0;
    const int n = 10000;
    for (int i = 0; i < n; ++i) {
        double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(17);
    for (int i = 0; i < 50; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, ChanceFrequencyMatchesProbability)
{
    Rng rng(19);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += rng.chance(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(23);
    RunningStat stat;
    for (int i = 0; i < 20000; ++i)
        stat.add(rng.gaussian());
    EXPECT_NEAR(stat.mean(), 0.0, 0.05);
    EXPECT_NEAR(stat.stddev(), 1.0, 0.05);
}

TEST(Rng, WeightedIndexRespectsWeights)
{
    Rng rng(29);
    std::vector<double> w = {1.0, 0.0, 3.0};
    int counts[3] = {0, 0, 0};
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        counts[rng.weightedIndex(w)]++;
    EXPECT_EQ(counts[1], 0);
    EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.25, 0.02);
    EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.02);
}

TEST(Rng, WeightedIndexAllZeroFallsBackToUniform)
{
    Rng rng(31);
    std::vector<double> w = {0.0, 0.0};
    std::set<size_t> seen;
    for (int i = 0; i < 100; ++i)
        seen.insert(rng.weightedIndex(w));
    EXPECT_EQ(seen.size(), 2u);
}

TEST(Rng, SampleIndicesDistinctAndComplete)
{
    Rng rng(37);
    auto picks = rng.sampleIndices(10, 4);
    EXPECT_EQ(picks.size(), 4u);
    std::set<size_t> unique(picks.begin(), picks.end());
    EXPECT_EQ(unique.size(), 4u);
    for (size_t p : picks)
        EXPECT_LT(p, 10u);

    auto all = rng.sampleIndices(5, 5);
    std::set<size_t> everything(all.begin(), all.end());
    EXPECT_EQ(everything.size(), 5u);
}

TEST(Rng, ForkProducesIndependentStream)
{
    Rng a(41);
    Rng child = a.fork();
    // Child stream should not replay the parent stream.
    Rng b(41);
    b.next();  // advance like the fork did
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (child.next() == b.next());
    EXPECT_LT(same, 4);
}

TEST(Hash, Fnv1aStableKnownValue)
{
    // FNV-1a of empty input is the offset basis.
    EXPECT_EQ(fnv1a(std::string_view("")), 0xcbf29ce484222325ULL);
    EXPECT_NE(fnv1a("abc"), fnv1a("abd"));
    EXPECT_EQ(fnv1a("snowplow"), fnv1a("snowplow"));
}

TEST(Hash, CombineOrderSensitive)
{
    EXPECT_NE(hashCombine(1, 2), hashCombine(2, 1));
}

TEST(Hash, U64AvalanchesLowBits)
{
    std::set<uint64_t> seen;
    for (uint64_t i = 0; i < 1000; ++i)
        seen.insert(hashU64(i));
    EXPECT_EQ(seen.size(), 1000u);
}

TEST(RunningStat, EmptyDefaults)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.stddev(), 0.0);
    EXPECT_TRUE(std::isinf(s.min()));
    EXPECT_TRUE(std::isinf(s.max()));
}

TEST(RunningStat, BasicMoments)
{
    RunningStat s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(v);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_NEAR(s.stddev(), 2.138, 1e-3);  // sample stddev
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStat, MergeMatchesSequentialFeed)
{
    // Feeding two shards then merging must equal one accumulator that
    // saw the whole stream (the parallel Welford identity).
    RunningStat a, b, whole;
    const std::vector<double> left = {1.0, 2.5, -3.0, 8.0};
    const std::vector<double> right = {0.5, 12.0, 7.25};
    for (double v : left) {
        a.add(v);
        whole.add(v);
    }
    for (double v : right) {
        b.add(v);
        whole.add(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), whole.count());
    EXPECT_NEAR(a.mean(), whole.mean(), 1e-12);
    EXPECT_NEAR(a.stddev(), whole.stddev(), 1e-12);
    EXPECT_DOUBLE_EQ(a.sum(), whole.sum());
    EXPECT_DOUBLE_EQ(a.min(), whole.min());
    EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(RunningStat, MergeWithEmptySides)
{
    RunningStat filled;
    filled.add(3.0);
    filled.add(5.0);

    RunningStat empty;
    RunningStat target = filled;
    target.merge(empty);  // no-op
    EXPECT_EQ(target.count(), 2u);
    EXPECT_DOUBLE_EQ(target.mean(), 4.0);

    RunningStat fresh;
    fresh.merge(filled);  // adopt
    EXPECT_EQ(fresh.count(), 2u);
    EXPECT_DOUBLE_EQ(fresh.mean(), 4.0);
    EXPECT_DOUBLE_EQ(fresh.min(), 3.0);
    EXPECT_DOUBLE_EQ(fresh.max(), 5.0);

    RunningStat both;
    both.merge(RunningStat{});
    EXPECT_EQ(both.count(), 0u);
    EXPECT_EQ(both.mean(), 0.0);
}

TEST(RunningStat, ClearResetsToEmpty)
{
    RunningStat s;
    s.add(9.0);
    s.clear();
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.sum(), 0.0);
    EXPECT_TRUE(std::isinf(s.min()));
}

TEST(Distribution, Percentiles)
{
    Distribution d;
    for (int i = 1; i <= 100; ++i)
        d.add(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(d.percentile(50), 50.0);
    EXPECT_DOUBLE_EQ(d.percentile(100), 100.0);
    EXPECT_DOUBLE_EQ(d.percentile(1), 1.0);
    EXPECT_DOUBLE_EQ(d.mean(), 50.5);
}

TEST(Distribution, EmptyPercentileIsZero)
{
    Distribution d;
    EXPECT_EQ(d.percentile(50), 0.0);
    EXPECT_EQ(d.mean(), 0.0);
}

TEST(Distribution, PercentileEdgeCases)
{
    Distribution single;
    single.add(42.0);
    EXPECT_DOUBLE_EQ(single.percentile(0), 42.0);
    EXPECT_DOUBLE_EQ(single.percentile(50), 42.0);
    EXPECT_DOUBLE_EQ(single.percentile(100), 42.0);

    Distribution d;
    for (int i = 10; i >= 1; --i)  // unsorted insertion order
        d.add(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(d.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(d.percentile(100), 10.0);
}

TEST(Distribution, RepeatedQueriesSeeLaterAdds)
{
    // The sort cache must be invalidated by add(): a query, a larger
    // sample, then the same query must reflect the new maximum.
    Distribution d;
    d.add(1.0);
    d.add(2.0);
    EXPECT_DOUBLE_EQ(d.percentile(100), 2.0);
    EXPECT_DOUBLE_EQ(d.percentile(100), 2.0);  // cached-sort path
    d.add(99.0);
    EXPECT_DOUBLE_EQ(d.percentile(100), 99.0);
    EXPECT_DOUBLE_EQ(d.percentile(0), 1.0);
}

TEST(Distribution, MergeAndClear)
{
    Distribution a, b;
    a.add(1.0);
    a.add(3.0);
    b.add(2.0);
    b.add(4.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 4u);
    EXPECT_DOUBLE_EQ(a.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(a.percentile(100), 4.0);
    EXPECT_DOUBLE_EQ(a.mean(), 2.5);

    a.clear();
    EXPECT_EQ(a.count(), 0u);
    EXPECT_EQ(a.percentile(50), 0.0);

    // Merging an empty distribution is a no-op.
    b.merge(Distribution{});
    EXPECT_EQ(b.count(), 2u);
}

TEST(FormatTable, AlignsColumns)
{
    auto text = formatTable({"name", "value"},
                            {{"alpha", "1"}, {"b", "22222"}});
    // Headers and both rows present, all lines equal width.
    EXPECT_NE(text.find("alpha"), std::string::npos);
    EXPECT_NE(text.find("22222"), std::string::npos);
    size_t first_nl = text.find('\n');
    ASSERT_NE(first_nl, std::string::npos);
    size_t width = first_nl;
    size_t pos = 0;
    while (pos < text.size()) {
        size_t nl = text.find('\n', pos);
        ASSERT_NE(nl, std::string::npos);
        EXPECT_EQ(nl - pos, width);
        pos = nl + 1;
    }
}

TEST(Json, ParsesScalarsWithExactIntegers)
{
    EXPECT_TRUE(json::parse("null").value.isNull());
    EXPECT_TRUE(json::parse("true").value.boolean());
    EXPECT_FALSE(json::parse("false").value.boolean(true));

    // Hit counts are uint64 and must survive without rounding through
    // the double payload.
    auto big = json::parse("18446744073709551615");
    ASSERT_TRUE(big.ok()) << big.error;
    EXPECT_EQ(big.value.asUint(), UINT64_MAX);
    auto neg = json::parse("-9223372036854775808");
    ASSERT_TRUE(neg.ok()) << neg.error;
    EXPECT_EQ(neg.value.asInt(), INT64_MIN);
    auto frac = json::parse("2.5e2");
    ASSERT_TRUE(frac.ok());
    EXPECT_DOUBLE_EQ(frac.value.number(), 250.0);
    EXPECT_EQ(frac.value.asInt(), 250);

    EXPECT_TRUE(big.value.isUint());
    EXPECT_FALSE(neg.value.isUint() || frac.value.isUint());

    // Doubles outside the integer range read as the fallback, not as
    // an undefined cast.
    for (const char *text : {"1e30", "-1e30", "1e400", "2e19"}) {
        EXPECT_EQ(json::parse(text).value.asUint(7), 7u) << text;
        EXPECT_EQ(json::parse(text).value.asInt(-7), -7) << text;
    }
}

TEST(Json, ParsesStringsWithEscapes)
{
    auto plain = json::parse("\"timeline_sample\"");
    ASSERT_TRUE(plain.ok());
    EXPECT_EQ(plain.value.str(), "timeline_sample");

    auto escaped = json::parse(R"("a\"b\\c\n\tA")");
    ASSERT_TRUE(escaped.ok()) << escaped.error;
    EXPECT_EQ(escaped.value.str(), "a\"b\\c\n\tA");

    // Surrogate pair -> 4-byte UTF-8.
    auto emoji = json::parse(R"("😀")");
    ASSERT_TRUE(emoji.ok()) << emoji.error;
    EXPECT_EQ(emoji.value.str(), "\xf0\x9f\x98\x80");
}

TEST(Json, ParsesArraysAndObjectsPreservingOrder)
{
    auto parsed = json::parse(
        R"({"type":"timeline_sample","deltas":[[3,2],[7,1]],"n":0})");
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    const json::Value &obj = parsed.value;
    ASSERT_TRUE(obj.isObject());
    ASSERT_EQ(obj.members().size(), 3u);
    // Emission order is preserved, not sorted.
    EXPECT_EQ(obj.members()[0].first, "type");
    EXPECT_EQ(obj.members()[1].first, "deltas");
    EXPECT_EQ(obj.find("type")->str(), "timeline_sample");

    const json::Value *deltas = obj.find("deltas");
    ASSERT_NE(deltas, nullptr);
    ASSERT_EQ(deltas->array().size(), 2u);
    EXPECT_EQ(deltas->at(0)->at(0)->asUint(), 3u);
    EXPECT_EQ(deltas->at(0)->at(1)->asUint(), 2u);
    EXPECT_EQ(deltas->at(1)->at(0)->asUint(), 7u);
    EXPECT_EQ(deltas->at(2), nullptr);
    EXPECT_EQ(obj.find("missing"), nullptr);
}

TEST(Json, RejectsMalformedInput)
{
    EXPECT_FALSE(json::parse("").ok());
    EXPECT_FALSE(json::parse("{").ok());
    EXPECT_FALSE(json::parse("[1,]").ok());
    EXPECT_FALSE(json::parse("{\"a\":}").ok());
    EXPECT_FALSE(json::parse("\"unterminated").ok());
    EXPECT_FALSE(json::parse("nul").ok());
    EXPECT_FALSE(json::parse("1 2").ok());  // trailing garbage
    EXPECT_FALSE(json::parse("-").ok());

    // Depth bomb stops at the recursion cap instead of overflowing.
    std::string deep(4096, '[');
    EXPECT_FALSE(json::parse(deep).ok());

    auto err = json::parse("[1, x]");
    EXPECT_FALSE(err.ok());
    EXPECT_FALSE(err.error.empty());
    EXPECT_GT(err.offset, 0u);
}

}  // namespace
}  // namespace sp
