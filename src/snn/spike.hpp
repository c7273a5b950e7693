// Binary spike maps: the signals exchanged between SNN layers.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

namespace sia::snn {

/// Dense binary spike map over a CHW volume for one timestep.
///
/// Storage is bit-packed into 64-bit words (flat CHW index `i` lives at
/// bit `i % 64` of word `i / 64`; bits past `size()` in the last word
/// are always zero), with a maintained set-bit count so `count()` is
/// O(1) — it is read per layer per timestep by both engines' counters
/// and cycle accounting. `for_each_spike` iterates set bits in
/// ascending flat order by skipping zero words and peeling bits with
/// count-trailing-zeros; that is the traversal the scatter-form linear
/// kernel in snn::compute is built on.
class SpikeMap {
public:
    static constexpr std::int64_t kWordBits = 64;

    SpikeMap() = default;
    SpikeMap(std::int64_t channels, std::int64_t height, std::int64_t width)
        : c_(channels), h_(height), w_(width),
          words_(static_cast<std::size_t>((channels * height * width + kWordBits - 1) /
                                          kWordBits),
                 0) {}

    [[nodiscard]] std::int64_t channels() const noexcept { return c_; }
    [[nodiscard]] std::int64_t height() const noexcept { return h_; }
    [[nodiscard]] std::int64_t width() const noexcept { return w_; }
    [[nodiscard]] std::int64_t size() const noexcept { return c_ * h_ * w_; }

    [[nodiscard]] bool get(std::int64_t c, std::int64_t y, std::int64_t x) const noexcept {
        return get_flat((c * h_ + y) * w_ + x);
    }
    void set(std::int64_t c, std::int64_t y, std::int64_t x, bool v) noexcept {
        set_flat((c * h_ + y) * w_ + x, v);
    }

    [[nodiscard]] bool get_flat(std::int64_t i) const noexcept {
        return (words_[static_cast<std::size_t>(i >> 6)] >>
                (static_cast<std::uint64_t>(i) & 63U)) &
               1U;
    }
    void set_flat(std::int64_t i, bool v) noexcept {
        std::uint64_t& word = words_[static_cast<std::size_t>(i >> 6)];
        const std::uint64_t mask = std::uint64_t{1} << (static_cast<std::uint64_t>(i) & 63U);
        if (((word & mask) != 0) == v) return;
        word ^= mask;
        count_ += v ? 1 : -1;
    }

    void clear() noexcept {
        std::fill(words_.begin(), words_.end(), 0);
        count_ = 0;
    }

    /// Number of set bits (spike count this timestep). O(1).
    [[nodiscard]] std::int64_t count() const noexcept { return count_; }

    /// Set bits in flat range [begin, end): masked popcount over the
    /// packed words, O(words in range). Used for per-channel counts
    /// (`count_range(c * plane, (c + 1) * plane)`).
    [[nodiscard]] std::int64_t count_range(std::int64_t begin,
                                           std::int64_t end) const noexcept {
        if (begin >= end) return 0;
        const std::int64_t first = begin >> 6;
        const std::int64_t last = (end - 1) >> 6;
        const std::uint64_t head =
            ~std::uint64_t{0} << (static_cast<std::uint64_t>(begin) & 63U);
        const std::uint64_t tail =
            ~std::uint64_t{0} >> (63U - (static_cast<std::uint64_t>(end - 1) & 63U));
        if (first == last) {
            return std::popcount(words_[static_cast<std::size_t>(first)] & head & tail);
        }
        std::int64_t n = std::popcount(words_[static_cast<std::size_t>(first)] & head);
        for (std::int64_t w = first + 1; w < last; ++w) {
            n += std::popcount(words_[static_cast<std::size_t>(w)]);
        }
        return n + std::popcount(words_[static_cast<std::size_t>(last)] & tail);
    }

    /// Visit every set bit in ascending flat-CHW order: word-skip over
    /// zero words, ctz + clear-lowest-bit within a word.
    template <typename Visit>
    void for_each_spike(Visit&& visit) const {
        for (std::size_t w = 0; w < words_.size(); ++w) {
            std::uint64_t bits = words_[w];
            while (bits != 0) {
                visit(static_cast<std::int64_t>(w) * kWordBits + std::countr_zero(bits));
                bits &= bits - 1;
            }
        }
    }

    /// Overwrite packed word `w` wholesale, maintaining the set-bit
    /// count (one word per 64-neuron block, no per-bit calls). Single
    /// writer only: concurrent writers use words() + set_count(). For
    /// the final word the caller must have masked bits past size()
    /// (the class invariant that trailing bits are zero is preserved,
    /// not re-enforced here).
    void set_word(std::int64_t w, std::uint64_t bits) noexcept {
        std::uint64_t& slot = words_[static_cast<std::size_t>(w)];
        count_ += std::popcount(bits) - std::popcount(slot);
        slot = bits;
    }

    /// Mutable packed words for bulk emission. The fused fire kernels
    /// write disjoint word ranges through it — from several threads
    /// when a layer-step is tiled — and return their spike counts
    /// instead of touching the shared count; the caller then publishes
    /// the map's total once with set_count(). Writers keep bits past
    /// size() zero.
    [[nodiscard]] std::uint64_t* words() noexcept { return words_.data(); }
    /// Set the maintained spike count after a bulk write through words().
    void set_count(std::int64_t count) noexcept { count_ = count; }

    /// Packed 64-bit words (the wire/serialization representation).
    /// Bits past size() are guaranteed zero, so equality of raw() is
    /// equality of the maps.
    [[nodiscard]] const std::vector<std::uint64_t>& raw() const noexcept { return words_; }

    /// Replace the packed words wholesale (deserialization). Must match
    /// the geometry's word count; trailing bits past size() are cleared
    /// and the maintained count is recomputed.
    void set_words(std::vector<std::uint64_t> words) {
        if (words.size() != words_.size()) {
            throw std::invalid_argument("SpikeMap::set_words: word count mismatch");
        }
        words_ = std::move(words);
        const std::int64_t tail_bits = size() & 63;
        if (tail_bits != 0 && !words_.empty()) {
            words_.back() &= ~std::uint64_t{0} >>
                             (64U - static_cast<std::uint64_t>(tail_bits));
        }
        count_ = 0;
        for (const std::uint64_t w : words_) count_ += std::popcount(w);
    }

    [[nodiscard]] bool operator==(const SpikeMap& other) const noexcept {
        return c_ == other.c_ && h_ == other.h_ && w_ == other.w_ &&
               words_ == other.words_;
    }

private:
    std::int64_t c_ = 0;
    std::int64_t h_ = 0;
    std::int64_t w_ = 0;
    std::vector<std::uint64_t> words_;
    std::int64_t count_ = 0;
};

/// A spike train: one SpikeMap per timestep (all same geometry).
using SpikeTrain = std::vector<SpikeMap>;

}  // namespace sia::snn
