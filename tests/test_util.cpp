// Tests for stats, table, CSV and RNG utilities.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace sia::util {
namespace {

TEST(RunningStat, MeanVarianceMinMax) {
    RunningStat s;
    for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
    EXPECT_EQ(s.count(), 8U);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 4.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStat, MergeEqualsSequential) {
    RunningStat a;
    RunningStat b;
    RunningStat all;
    for (int i = 0; i < 50; ++i) {
        const double x = 0.37 * i - 3.0;
        (i % 2 == 0 ? a : b).add(x);
        all.add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(RunningStat, EmptyIsZero) {
    const RunningStat s;
    EXPECT_EQ(s.count(), 0U);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
}

TEST(StreamingHistogram, QuantilesWithinBucketResolution) {
    StreamingHistogram h;  // defaults: [1, 1e9), 64 bins/decade (~3.7%)
    for (int i = 1; i <= 1000; ++i) h.add(static_cast<double>(i));
    EXPECT_EQ(h.count(), 1000U);
    // quantile() reports the upper bucket edge, so it never understates
    // the true quantile and overstates by at most one bucket (~3.7%).
    EXPECT_GE(h.p50(), 500.0);
    EXPECT_LE(h.p50(), 500.0 * 1.04);
    EXPECT_GE(h.p95(), 950.0);
    EXPECT_LE(h.p95(), 950.0 * 1.04);
    EXPECT_GE(h.p99(), 990.0);
    EXPECT_LE(h.p99(), 990.0 * 1.04);
    EXPECT_LE(h.p50(), h.p95());
    EXPECT_LE(h.p95(), h.p99());
    // Exact (non-bucketed) scalar summaries.
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), 1000.0);
    EXPECT_DOUBLE_EQ(h.mean(), 500.5);
}

TEST(StreamingHistogram, EmptyAndReset) {
    StreamingHistogram h;
    EXPECT_EQ(h.count(), 0U);
    EXPECT_EQ(h.quantile(0.5), 0.0);
    EXPECT_EQ(h.min(), 0.0);
    EXPECT_EQ(h.mean(), 0.0);
    h.add(42.0);
    EXPECT_EQ(h.count(), 1U);
    h.reset();
    EXPECT_EQ(h.count(), 0U);
    EXPECT_EQ(h.quantile(0.99), 0.0);
}

TEST(StreamingHistogram, ClampsOutOfRangeValues) {
    StreamingHistogram h(1.0, 1e3, 8);
    h.add(0.0);     // non-positive -> first bucket
    h.add(-5.0);    // non-positive -> first bucket
    h.add(1e9);     // beyond hi -> last bucket
    EXPECT_EQ(h.count(), 3U);
    // First bucket's upper edge is 10^(1/8); last bucket's is 1e3.
    EXPECT_LE(h.quantile(0.5), std::pow(10.0, 1.0 / 8.0) + 1e-12);
    EXPECT_NEAR(h.quantile(1.0), 1e3, 1e-9);
    EXPECT_DOUBLE_EQ(h.max(), 1e9);  // exact extremes are not clamped
}

TEST(StreamingHistogram, MergeEqualsCombinedStream) {
    StreamingHistogram a;
    StreamingHistogram b;
    StreamingHistogram all;
    Rng rng(7);
    for (int i = 0; i < 400; ++i) {
        const double x = std::exp(static_cast<double>(rng.uniform(0.0F, 12.0F)));
        ((i % 2 == 0) ? a : b).add(x);
        all.add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    for (const double q : {0.1, 0.5, 0.9, 0.95, 0.99}) {
        EXPECT_DOUBLE_EQ(a.quantile(q), all.quantile(q)) << "q=" << q;
    }
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
    // Mean sums in a different order (a's total + b's total), so allow
    // floating-point non-associativity.
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9 * all.mean());
}

TEST(StreamingHistogram, MergeRejectsMismatchedGeometry) {
    StreamingHistogram a(1.0, 1e6, 32);
    StreamingHistogram b(1.0, 1e6, 64);
    StreamingHistogram c(10.0, 1e6, 32);
    EXPECT_THROW(a.merge(b), std::invalid_argument);
    EXPECT_THROW(a.merge(c), std::invalid_argument);
}

TEST(StreamingHistogram, RejectsBadConstruction) {
    EXPECT_THROW(StreamingHistogram(0.0, 10.0), std::invalid_argument);
    EXPECT_THROW(StreamingHistogram(10.0, 10.0), std::invalid_argument);
    EXPECT_THROW(StreamingHistogram(1.0, 10.0, 0), std::invalid_argument);
}

TEST(Rng, Deterministic) {
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.integer(0, 1000), b.integer(0, 1000));
}

TEST(Rng, PermutationIsPermutation) {
    Rng rng(7);
    const auto p = rng.permutation(100);
    std::vector<bool> seen(100, false);
    for (const auto i : p) {
        ASSERT_LT(i, 100U);
        EXPECT_FALSE(seen[i]);
        seen[i] = true;
    }
}

TEST(Rng, UniformInRange) {
    Rng rng(3);
    for (int i = 0; i < 1000; ++i) {
        const float v = rng.uniform(-2.0F, 3.0F);
        EXPECT_GE(v, -2.0F);
        EXPECT_LT(v, 3.0F);
    }
}

TEST(Table, RendersAlignedRows) {
    Table t("Demo");
    t.header({"a", "long-column"});
    t.row({"1", "2"});
    t.separator();
    t.row({"333", "4"});
    const std::string s = t.to_string();
    EXPECT_NE(s.find("Demo"), std::string::npos);
    EXPECT_NE(s.find("long-column"), std::string::npos);
    EXPECT_NE(s.find("333"), std::string::npos);
    EXPECT_EQ(t.rows(), 3U);  // incl. separator sentinel
}

TEST(Table, CellFormatting) {
    EXPECT_EQ(cell(3.14159, 2), "3.14");
    EXPECT_EQ(cell(static_cast<long long>(42)), "42");
    EXPECT_EQ(cell_pct(22.434, 2), "22.43%");
}

TEST(Csv, WritesAndEscapes) {
    const std::string path = "/tmp/sia_test_csv.csv";
    {
        CsvWriter csv(path);
        csv.row({"a", "b,c", "d\"e"});
        csv.row({"1", "2", "3"});
    }
    std::ifstream in(path);
    std::string line1;
    std::string line2;
    std::getline(in, line1);
    std::getline(in, line2);
    EXPECT_EQ(line1, "a,\"b,c\",\"d\"\"e\"");
    EXPECT_EQ(line2, "1,2,3");
    std::remove(path.c_str());
}

TEST(Csv, ThrowsOnBadPath) {
    EXPECT_THROW(CsvWriter("/nonexistent-dir/x.csv"), std::runtime_error);
}

// ---- StreamingHistogram merge properties (randomized) ----
//
// The merge-exactness claim — "the merged histogram equals one that saw
// both input streams" — is asserted on the state merge() actually sums:
// bucket occupancies, count, and the exact min/max, plus every quantile
// (a pure function of that state). The mean is deliberately excluded
// from exactness: merge() adds partial float sums, and float addition
// is order-sensitive; it gets an epsilon bound instead.

/// Latency-shaped random draws: a lognormal-ish body with a uniform
/// heavy tail and occasional out-of-range values to exercise clamping.
std::vector<double> random_latencies(Rng& rng, std::size_t n) {
    std::vector<double> xs;
    xs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const double roll = rng.uniform();
        if (roll < 0.05) {
            xs.push_back(rng.uniform() * 2.0 - 1.0);  // below lo (clamps), incl. <= 0
        } else if (roll < 0.10) {
            xs.push_back(1e9 * (1.0 + rng.uniform()));  // at/above hi (clamps)
        } else {
            xs.push_back(std::exp(rng.uniform() * 14.0));  // ~[1, 1.2e6)
        }
    }
    return xs;
}

void expect_same_state(const StreamingHistogram& a, const StreamingHistogram& b) {
    ASSERT_TRUE(a.same_geometry(b));
    EXPECT_EQ(a.bucket_counts(), b.bucket_counts());
    EXPECT_EQ(a.count(), b.count());
    EXPECT_EQ(a.min(), b.min());
    EXPECT_EQ(a.max(), b.max());
    for (const double q : {0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99,
                           0.999, 1.0}) {
        EXPECT_EQ(a.quantile(q), b.quantile(q)) << "q=" << q;
    }
    if (a.count() > 0) {
        EXPECT_NEAR(a.mean(), b.mean(), 1e-9 * std::abs(a.mean()) + 1e-12);
    }
}

TEST(StreamingHistogramProperty, RandomSplitsMergeExactly) {
    Rng rng(2024);
    for (int trial = 0; trial < 20; ++trial) {
        const std::size_t n = 1 + static_cast<std::size_t>(rng.integer(0, 400));
        const auto xs = random_latencies(rng, n);

        // Split the stream at random into k shards, one histogram each.
        const std::size_t shards = 1 + static_cast<std::size_t>(rng.integer(0, 7));
        std::vector<StreamingHistogram> parts(shards);
        StreamingHistogram whole;
        for (const double x : xs) {
            parts[static_cast<std::size_t>(rng.integer(
                      0, static_cast<int>(shards) - 1))]
                .add(x);
            whole.add(x);
        }

        StreamingHistogram merged;
        for (const auto& part : parts) merged.merge(part);
        SCOPED_TRACE("trial=" + std::to_string(trial) + " n=" + std::to_string(n) +
                     " shards=" + std::to_string(shards));
        expect_same_state(merged, whole);
    }
}

TEST(StreamingHistogramProperty, MergeIsAssociativeAndCommutative) {
    Rng rng(7);
    StreamingHistogram a, b, c;
    for (const double x : random_latencies(rng, 120)) a.add(x);
    for (const double x : random_latencies(rng, 7)) b.add(x);
    for (const double x : random_latencies(rng, 55)) c.add(x);

    StreamingHistogram ab_c;  // (a + b) + c
    ab_c.merge(a);
    ab_c.merge(b);
    ab_c.merge(c);
    StreamingHistogram a_bc;  // a + (b + c)
    StreamingHistogram bc = b;
    bc.merge(c);
    a_bc.merge(a);
    a_bc.merge(bc);
    expect_same_state(ab_c, a_bc);

    StreamingHistogram cba;  // c + b + a
    cba.merge(c);
    cba.merge(b);
    cba.merge(a);
    expect_same_state(ab_c, cba);
}

TEST(StreamingHistogramProperty, MergeEdgeCases) {
    Rng rng(99);
    StreamingHistogram h;
    for (const double x : random_latencies(rng, 64)) h.add(x);
    const auto before = h.bucket_counts();

    // Merging an empty histogram is the identity, both ways.
    StreamingHistogram empty;
    h.merge(empty);
    EXPECT_EQ(h.bucket_counts(), before);
    StreamingHistogram onto_empty;
    onto_empty.merge(h);
    expect_same_state(onto_empty, h);

    // A single clamped sample keeps exact extremes, bucketed quantiles.
    StreamingHistogram one;
    one.add(-3.5);  // below lo: clamps into the first bucket
    EXPECT_EQ(one.count(), 1U);
    EXPECT_EQ(one.min(), -3.5);
    EXPECT_EQ(one.max(), -3.5);
    EXPECT_EQ(one.quantile(0.0), one.quantile(1.0));
    StreamingHistogram grown = one;
    grown.merge(h);
    EXPECT_EQ(grown.count(), h.count() + 1);
    EXPECT_EQ(grown.min(), -3.5);
    EXPECT_EQ(grown.max(), h.max());

    // Overflow clamping: everything at/above hi lands in the last
    // bucket and p100 reports that bucket's edge for both.
    StreamingHistogram top(1.0, 1e3, 8);
    top.add(1e3);
    top.add(1e12);
    EXPECT_EQ(top.count(), 2U);
    EXPECT_EQ(top.quantile(0.5), top.quantile(1.0));
    EXPECT_EQ(top.max(), 1e12);
}

// ---- SloBurnCounter ----

TEST(SloBurnCounter, CountsViolationsAboveThreshold) {
    SloBurnCounter slo(100.0);
    EXPECT_DOUBLE_EQ(slo.threshold(), 100.0);
    EXPECT_EQ(slo.total(), 0U);
    EXPECT_DOUBLE_EQ(slo.burn_rate(), 0.0);

    slo.add(50.0);
    slo.add(100.0);  // at the threshold: not a violation
    slo.add(100.5);
    slo.add(1e9);
    EXPECT_EQ(slo.total(), 4U);
    EXPECT_EQ(slo.burned(), 2U);
    EXPECT_DOUBLE_EQ(slo.burn_rate(), 0.5);

    slo.reset();
    EXPECT_EQ(slo.total(), 0U);
    EXPECT_EQ(slo.burned(), 0U);
    EXPECT_DOUBLE_EQ(slo.threshold(), 100.0);  // reset keeps the SLO
}

TEST(SloBurnCounter, MergeSumsCountersAndRejectsMismatchedThresholds) {
    Rng rng(17);
    SloBurnCounter a(250.0);
    SloBurnCounter b(250.0);
    SloBurnCounter whole(250.0);
    for (int i = 0; i < 200; ++i) {
        const double x = rng.uniform() * 500.0;
        (i % 3 == 0 ? a : b).add(x);
        whole.add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.total(), whole.total());
    EXPECT_EQ(a.burned(), whole.burned());
    EXPECT_DOUBLE_EQ(a.burn_rate(), whole.burn_rate());

    SloBurnCounter other(99.0);
    EXPECT_THROW(a.merge(other), std::invalid_argument);
    EXPECT_EQ(a.total(), whole.total());  // failed merge left it untouched
}

}  // namespace
}  // namespace sia::util
