// Streaming statistics helpers (Welford mean/variance, histograms,
// min/max tracking). Used for spike-rate instrumentation (Fig. 6 / Fig. 8),
// batch-norm running estimates, and bench reporting.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sia::util {

/// Numerically stable single-pass mean/variance accumulator (Welford).
class RunningStat {
public:
    void add(double x) noexcept;

    [[nodiscard]] std::size_t count() const noexcept { return n_; }
    [[nodiscard]] double mean() const noexcept { return n_ > 0 ? mean_ : 0.0; }
    /// Population variance (divides by n). Matches batch-norm semantics.
    [[nodiscard]] double variance() const noexcept;
    /// Sample variance (divides by n-1).
    [[nodiscard]] double sample_variance() const noexcept;
    [[nodiscard]] double stddev() const noexcept;
    [[nodiscard]] double min() const noexcept { return n_ > 0 ? min_ : 0.0; }
    [[nodiscard]] double max() const noexcept { return n_ > 0 ? max_ : 0.0; }

    /// Merge another accumulator into this one (parallel-friendly).
    void merge(const RunningStat& other) noexcept;

    void reset() noexcept { *this = RunningStat{}; }

private:
    std::size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/// Streaming quantile estimator over positive values, built for latency
/// tracking: geometrically spaced buckets (HdrHistogram-style) make
/// add() O(1) and lock-free-friendly, merge() a bucket-wise sum (so
/// per-worker histograms combine exactly), and quantile() accurate to
/// one bucket — with the default 64 buckets per decade that is a ~3.7%
/// relative error bound, far below the run-to-run noise of any latency
/// measurement. Values are unit-agnostic; core::Server records
/// microseconds. Inputs below `lo` (including non-positive values) clamp
/// into the first bucket, inputs at or above `hi` into the last.
class StreamingHistogram {
public:
    /// Buckets cover [lo, hi) with `bins_per_decade` buckets per power
    /// of ten. The defaults span 1 us .. 1000 s when fed microseconds.
    explicit StreamingHistogram(double lo = 1.0, double hi = 1e9,
                                int bins_per_decade = 64);

    void add(double x) noexcept;

    /// Bucket-wise sum; exact (the merged histogram equals one that saw
    /// both input streams). Throws std::invalid_argument when the bucket
    /// geometries differ.
    void merge(const StreamingHistogram& other);

    /// Smallest value v such that at least ceil(q * count) samples are
    /// <= v, reported as the upper edge of the containing bucket (so the
    /// estimate never understates the true quantile by more than one
    /// bucket width). q is clamped to [0, 1]; 0 when empty.
    [[nodiscard]] double quantile(double q) const noexcept;
    [[nodiscard]] double p50() const noexcept { return quantile(0.50); }
    [[nodiscard]] double p95() const noexcept { return quantile(0.95); }
    [[nodiscard]] double p99() const noexcept { return quantile(0.99); }

    [[nodiscard]] std::size_t count() const noexcept { return count_; }
    /// Exact (not bucket-resolution) extremes and mean of the added values.
    [[nodiscard]] double min() const noexcept { return count_ > 0 ? min_ : 0.0; }
    [[nodiscard]] double max() const noexcept { return count_ > 0 ? max_ : 0.0; }
    [[nodiscard]] double mean() const noexcept {
        return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
    }

    /// Raw bucket occupancies — the state merge() sums. Exposed so the
    /// merge-exactness property (splitting a stream across histograms
    /// and merging equals one histogram that saw everything) can be
    /// asserted bucket-wise, not just through quantiles. Note the mean
    /// is *not* part of that exactness claim: merge() adds the partial
    /// sums, and float addition is order-sensitive.
    [[nodiscard]] const std::vector<std::uint64_t>& bucket_counts() const noexcept {
        return counts_;
    }
    [[nodiscard]] bool same_geometry(const StreamingHistogram& other) const noexcept {
        return counts_.size() == other.counts_.size() && log_lo_ == other.log_lo_ &&
               bins_per_decade_ == other.bins_per_decade_;
    }

    void reset() noexcept;

private:
    [[nodiscard]] std::size_t bucket_of(double x) const noexcept;
    [[nodiscard]] double bucket_hi(std::size_t i) const noexcept;

    double log_lo_ = 0.0;          ///< log10(lo)
    double bins_per_decade_ = 64;  ///< bucket resolution
    std::vector<std::uint64_t> counts_;
    std::size_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/// SLO-burn accounting: counts how many observed values exceeded a
/// fixed service-level threshold. The burn rate (violations / total) is
/// the fraction of an error budget a tenant is consuming; core::Server
/// keeps one per tenant next to its latency histogram. merge() is exact
/// (plain counter sums) so per-lane counters combine like histograms.
class SloBurnCounter {
public:
    SloBurnCounter() = default;
    explicit SloBurnCounter(double threshold) : threshold_(threshold) {}

    void add(double x) noexcept {
        ++total_;
        if (x > threshold_) ++burned_;
    }

    /// Counter-wise sum. Throws std::invalid_argument when the
    /// thresholds differ — burn counts against different SLOs are not
    /// comparable.
    void merge(const SloBurnCounter& other);

    [[nodiscard]] double threshold() const noexcept { return threshold_; }
    [[nodiscard]] std::size_t total() const noexcept { return total_; }
    [[nodiscard]] std::size_t burned() const noexcept { return burned_; }
    /// Fraction of observations over the threshold; 0 when empty.
    [[nodiscard]] double burn_rate() const noexcept {
        return total_ > 0 ? static_cast<double>(burned_) / static_cast<double>(total_)
                          : 0.0;
    }

    void reset() noexcept {
        total_ = 0;
        burned_ = 0;
    }

private:
    double threshold_ = 0.0;
    std::size_t total_ = 0;
    std::size_t burned_ = 0;
};

}  // namespace sia::util
