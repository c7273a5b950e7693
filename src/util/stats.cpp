#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sia::util {

void RunningStat::add(double x) noexcept {
    if (n_ == 0) {
        min_ = x;
        max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
}

double RunningStat::variance() const noexcept {
    return n_ > 0 ? m2_ / static_cast<double>(n_) : 0.0;
}

double RunningStat::sample_variance() const noexcept {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStat::stddev() const noexcept { return std::sqrt(variance()); }

void RunningStat::merge(const RunningStat& other) noexcept {
    if (other.n_ == 0) return;
    if (n_ == 0) {
        *this = other;
        return;
    }
    const double delta = other.mean_ - mean_;
    const auto na = static_cast<double>(n_);
    const auto nb = static_cast<double>(other.n_);
    const double n = na + nb;
    mean_ += delta * nb / n;
    m2_ += other.m2_ + delta * delta * na * nb / n;
    n_ += other.n_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

StreamingHistogram::StreamingHistogram(double lo, double hi, int bins_per_decade) {
    if (!(lo > 0.0) || !(hi > lo)) {
        throw std::invalid_argument("StreamingHistogram: need 0 < lo < hi");
    }
    if (bins_per_decade <= 0) {
        throw std::invalid_argument("StreamingHistogram: bins_per_decade must be > 0");
    }
    log_lo_ = std::log10(lo);
    bins_per_decade_ = static_cast<double>(bins_per_decade);
    const double decades = std::log10(hi) - log_lo_;
    const auto buckets =
        static_cast<std::size_t>(std::ceil(decades * bins_per_decade_));
    counts_.assign(std::max<std::size_t>(buckets, 1), 0);
}

std::size_t StreamingHistogram::bucket_of(double x) const noexcept {
    if (!(x > 0.0)) return 0;
    const double t = (std::log10(x) - log_lo_) * bins_per_decade_;
    const auto idx = static_cast<std::int64_t>(std::floor(t));
    return static_cast<std::size_t>(std::clamp<std::int64_t>(
        idx, 0, static_cast<std::int64_t>(counts_.size()) - 1));
}

double StreamingHistogram::bucket_hi(std::size_t i) const noexcept {
    return std::pow(10.0, log_lo_ + static_cast<double>(i + 1) / bins_per_decade_);
}

void StreamingHistogram::add(double x) noexcept {
    ++counts_[bucket_of(x)];
    if (count_ == 0) {
        min_ = x;
        max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++count_;
    sum_ += x;
}

void StreamingHistogram::merge(const StreamingHistogram& other) {
    if (counts_.size() != other.counts_.size() || log_lo_ != other.log_lo_ ||
        bins_per_decade_ != other.bins_per_decade_) {
        throw std::invalid_argument("StreamingHistogram::merge: geometry mismatch");
    }
    if (other.count_ == 0) return;
    for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
    if (count_ == 0) {
        min_ = other.min_;
        max_ = other.max_;
    } else {
        min_ = std::min(min_, other.min_);
        max_ = std::max(max_, other.max_);
    }
    count_ += other.count_;
    sum_ += other.sum_;
}

double StreamingHistogram::quantile(double q) const noexcept {
    if (count_ == 0) return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    const auto rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count_))));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        seen += counts_[i];
        if (seen >= rank) return bucket_hi(i);
    }
    return bucket_hi(counts_.size() - 1);
}

void StreamingHistogram::reset() noexcept {
    std::fill(counts_.begin(), counts_.end(), 0);
    count_ = 0;
    sum_ = 0.0;
    min_ = 0.0;
    max_ = 0.0;
}

void SloBurnCounter::merge(const SloBurnCounter& other) {
    if (threshold_ != other.threshold_) {
        throw std::invalid_argument("SloBurnCounter::merge: threshold mismatch");
    }
    total_ += other.total_;
    burned_ += other.burned_;
}

}  // namespace sia::util
