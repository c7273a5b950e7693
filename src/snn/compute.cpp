#include "snn/compute.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>

#include "snn/simd.hpp"

namespace sia::snn::compute {

std::vector<std::int8_t> transpose_conv(const Branch& b) {
    const std::int64_t oc = b.out_channels;
    const std::int64_t patch = b.in_channels * b.kernel * b.kernel;
    std::vector<std::int8_t> wt(static_cast<std::size_t>(patch * oc), 0);
    for (std::int64_t o = 0; o < oc; ++o) {
        for (std::int64_t p = 0; p < patch; ++p) {
            wt[static_cast<std::size_t>(p * oc + o)] =
                b.weights[static_cast<std::size_t>(o * patch + p)];
        }
    }
    return wt;
}

std::vector<std::int8_t> transpose_linear(const Branch& b) {
    std::vector<std::int8_t> wt(static_cast<std::size_t>(b.in_features * b.out_features),
                                0);
    for (std::int64_t f = 0; f < b.out_features; ++f) {
        for (std::int64_t d = 0; d < b.in_features; ++d) {
            wt[static_cast<std::size_t>(d * b.out_features + f)] =
                b.weights[static_cast<std::size_t>(f * b.in_features + d)];
        }
    }
    return wt;
}

void SpikeIndex::reshape(const SpikeMap& in) {
    if (in.channels() > std::numeric_limits<std::uint16_t>::max()) {
        throw std::invalid_argument("SpikeIndex: more channels than a uint16 entry can name");
    }
    capacity_ = in.channels();
    height_ = in.height();
    width_ = in.width();
    // Grow only: engines index maps of every layer's geometry in turn,
    // and a shrink followed by a grow would re-zero the tail each time.
    const auto sites = static_cast<std::size_t>(height_ * width_);
    if (counts_.size() < sites) counts_.resize(sites);
    if (channels_.size() < sites * static_cast<std::size_t>(capacity_)) {
        channels_.resize(sites * static_cast<std::size_t>(capacity_));
    }
}

void SpikeIndex::fill(const SpikeMap& in, std::int64_t site_begin, std::int64_t site_end) {
    if (site_begin >= site_end) return;
    const std::int64_t plane = sites();
    const std::uint64_t* words = in.raw().data();
    std::uint16_t* counts = counts_.data();
    std::uint16_t* rows = channels_.data();
    std::fill(counts + site_begin, counts + site_end, std::uint16_t{0});
    // Channel-major over the packed CHW words, so each row fills in
    // ascending channel order; bits outside the site range are masked
    // off the first and last word of each channel's stretch.
    for (std::int64_t c = 0; c < capacity_; ++c) {
        const std::int64_t base = c * plane;
        const std::int64_t begin = base + site_begin;
        const std::int64_t end = base + site_end;
        const std::int64_t last = (end - 1) >> 6;
        std::int64_t w = begin >> 6;
        std::uint64_t bits = words[w] & (~std::uint64_t{0} << (begin & 63));
        while (true) {
            if (w == last) bits &= ~std::uint64_t{0} >> (63 - ((end - 1) & 63));
            while (bits != 0) {
                const std::int64_t site = w * 64 + std::countr_zero(bits) - base;
                rows[site * capacity_ + counts[site]++] = static_cast<std::uint16_t>(c);
                bits &= bits - 1;
            }
            if (w == last) break;
            bits = words[++w];
        }
    }
}

void SpikeIndex::build(const SpikeMap& in) {
    reshape(in);
    fill(in, 0, sites());
}

std::int64_t conv_event_blocks(std::int64_t out_channels) noexcept {
    return out_channels / 64 + (out_channels % 64 >= 8 ? 1 : 0) +
           (out_channels % 8 != 0 ? 1 : 0);
}

namespace {

/// Output channels [begin, begin + width) of event block `b`.
struct OcBlock {
    std::int64_t begin = 0;
    std::int64_t width = 0;
};

OcBlock oc_block(std::int64_t oc, std::int64_t b) noexcept {
    const std::int64_t full = oc / 64;
    if (b < full) return {b * 64, 64};
    const std::int64_t grouped = oc % 64 / 8 * 8;
    if (b == full && grouped > 0) return {full * 64, grouped};
    return {oc - oc % 8, oc % 8};
}

struct EventConv {
    const std::int8_t* wt = nullptr;  ///< block_conv layout
    const SpikeIndex* in = nullptr;
    std::int32_t* psum = nullptr;
    std::int64_t oc = 0;
    std::int64_t kernel = 0;
    std::int64_t stride = 0;
    std::int64_t padding = 0;
    std::int64_t out_w = 0;
    std::int64_t patch = 0;  ///< IC * k * k: weight rows per block
};

/// Call visit(channels, count, tap) for every in-bounds site of output
/// position (y, x)'s receptive field, where tap = ky * k + kx.
template <typename Visit>
inline void for_each_site(const EventConv& e, std::int64_t y, std::int64_t x,
                          Visit&& visit) {
    const std::int64_t iy0 = y * e.stride - e.padding;
    const std::int64_t ix0 = x * e.stride - e.padding;
    const std::int64_t ky1 = std::min(e.kernel, e.in->height() - iy0);
    const std::int64_t kx1 = std::min(e.kernel, e.in->width() - ix0);
    for (std::int64_t ky = std::max<std::int64_t>(0, -iy0); ky < ky1; ++ky) {
        for (std::int64_t kx = std::max<std::int64_t>(0, -ix0); kx < kx1; ++kx) {
            const std::int64_t site = (iy0 + ky) * e.in->width() + ix0 + kx;
            visit(e.in->channels(site), e.in->count(site), ky * e.kernel + kx);
        }
    }
}

/// G 8-lane groups of output channels from `o0`, at output positions
/// [pos_begin, pos_end): the psums live in G vector registers for the
/// whole receptive field and are stored once.
template <int G>
void event_block(const EventConv& e, std::int64_t o0, std::int64_t pos_begin,
                 std::int64_t pos_end) {
    constexpr std::int64_t kWidth = G * simd::kLanes;
    const std::int8_t* block = e.wt + o0 * e.patch;
    const std::int64_t ic_stride = e.kernel * e.kernel * kWidth;
    for (std::int64_t pos = pos_begin; pos < pos_end; ++pos) {
        const std::int64_t y = pos / e.out_w;
        simd::i32x8 acc[G];
        for (int g = 0; g < G; ++g) acc[g] = simd::broadcast(0);
        for_each_site(e, y, pos - y * e.out_w,
                      [&](const std::uint16_t* channels, std::int64_t n, std::int64_t tap) {
                          const std::int8_t* rows = block + tap * kWidth;
                          for (std::int64_t j = 0; j < n; ++j) {
                              const std::int8_t* w = rows + channels[j] * ic_stride;
                              for (int g = 0; g < G; ++g) {
                                  acc[g] = acc[g] + simd::load_i8(w + g * simd::kLanes);
                              }
                          }
                      });
        std::int32_t* out = e.psum + pos * e.oc + o0;
        for (int g = 0; g < G; ++g) simd::store(out + g * simd::kLanes, acc[g]);
    }
}

/// The scalar tail: fewer than 8 output channels from `o0`.
void event_tail(const EventConv& e, std::int64_t o0, std::int64_t width,
                std::int64_t pos_begin, std::int64_t pos_end) {
    const std::int8_t* block = e.wt + o0 * e.patch;
    const std::int64_t ic_stride = e.kernel * e.kernel * width;
    for (std::int64_t pos = pos_begin; pos < pos_end; ++pos) {
        const std::int64_t y = pos / e.out_w;
        std::int32_t acc[simd::kLanes] = {};
        for_each_site(e, y, pos - y * e.out_w,
                      [&](const std::uint16_t* channels, std::int64_t n, std::int64_t tap) {
                          const std::int8_t* rows = block + tap * width;
                          for (std::int64_t j = 0; j < n; ++j) {
                              const std::int8_t* w = rows + channels[j] * ic_stride;
                              for (std::int64_t o = 0; o < width; ++o) acc[o] += w[o];
                          }
                      });
        std::copy(acc, acc + width, e.psum + pos * e.oc + o0);
    }
}

}  // namespace

std::vector<std::int8_t> block_conv(const Branch& b) {
    const std::int64_t oc = b.out_channels;
    const std::int64_t patch = b.in_channels * b.kernel * b.kernel;
    std::vector<std::int8_t> wt(static_cast<std::size_t>(patch * oc), 0);
    for (std::int64_t block = 0; block < conv_event_blocks(oc); ++block) {
        const OcBlock blk = oc_block(oc, block);
        std::int8_t* dst = wt.data() + blk.begin * patch;
        for (std::int64_t p = 0; p < patch; ++p) {
            for (std::int64_t o = 0; o < blk.width; ++o) {
                dst[p * blk.width + o] =
                    b.weights[static_cast<std::size_t>((blk.begin + o) * patch + p)];
            }
        }
    }
    return wt;
}

void conv_psum_event(const Branch& b, const std::vector<std::int8_t>& wt,
                     const SpikeIndex& in, std::int64_t out_h, std::int64_t out_w,
                     std::int64_t unit_begin, std::int64_t unit_end,
                     std::span<std::int32_t> psum) {
    const EventConv e{.wt = wt.data(),
                      .in = &in,
                      .psum = psum.data(),
                      .oc = b.out_channels,
                      .kernel = b.kernel,
                      .stride = b.stride,
                      .padding = b.padding,
                      .out_w = out_w,
                      .patch = b.in_channels * b.kernel * b.kernel};
    const std::int64_t plane = out_h * out_w;
    for (std::int64_t u = unit_begin; u < unit_end;) {
        const std::int64_t block = u / plane;
        const std::int64_t pos_begin = u - block * plane;
        const std::int64_t pos_end = std::min(plane, pos_begin + (unit_end - u));
        const OcBlock blk = oc_block(e.oc, block);
        switch (blk.width / simd::kLanes) {
            case 8: event_block<8>(e, blk.begin, pos_begin, pos_end); break;
            case 7: event_block<7>(e, blk.begin, pos_begin, pos_end); break;
            case 6: event_block<6>(e, blk.begin, pos_begin, pos_end); break;
            case 5: event_block<5>(e, blk.begin, pos_begin, pos_end); break;
            case 4: event_block<4>(e, blk.begin, pos_begin, pos_end); break;
            case 3: event_block<3>(e, blk.begin, pos_begin, pos_end); break;
            case 2: event_block<2>(e, blk.begin, pos_begin, pos_end); break;
            case 1: event_block<1>(e, blk.begin, pos_begin, pos_end); break;
            default: event_tail(e, blk.begin, blk.width, pos_begin, pos_end); break;
        }
        u += pos_end - pos_begin;
    }
}

void conv_psum_chunk_oc(const Branch& b, const std::vector<std::int8_t>& wt,
                        const SpikeMap& in, std::int64_t out_h, std::int64_t out_w,
                        std::int64_t ic_begin, std::int64_t ic_end,
                        std::int64_t oc_begin, std::int64_t oc_end,
                        std::span<std::int32_t> psum) {
    const std::int64_t oc = b.out_channels;
    const std::int64_t in_h = in.height();
    const std::int64_t in_w = in.width();
    for (std::int64_t y = 0; y < out_h; ++y) {
        for (std::int64_t x = 0; x < out_w; ++x) {
            std::int32_t* prow = psum.data() + (y * out_w + x) * oc;
            for (std::int64_t ic = ic_begin; ic < ic_end; ++ic) {
                for (std::int64_t ky = 0; ky < b.kernel; ++ky) {
                    const std::int64_t iy = y * b.stride + ky - b.padding;
                    if (iy < 0 || iy >= in_h) continue;
                    for (std::int64_t kx = 0; kx < b.kernel; ++kx) {
                        const std::int64_t ix = x * b.stride + kx - b.padding;
                        if (ix < 0 || ix >= in_w) continue;
                        if (!in.get(ic, iy, ix)) continue;
                        const std::int8_t* wrow =
                            wt.data() + ((ic * b.kernel + ky) * b.kernel + kx) * oc;
                        for (std::int64_t o = oc_begin; o < oc_end; ++o) {
                            prow[o] += wrow[o];
                        }
                    }
                }
            }
        }
    }
}

void linear_psum_range(const Branch& b, const std::vector<std::int8_t>& wt,
                       const SpikeMap& in, std::int64_t f_begin, std::int64_t f_end,
                       std::span<std::int32_t> psum) {
    std::fill(psum.begin() + f_begin, psum.begin() + f_end, 0);
    for (std::int64_t d = 0; d < b.in_features; ++d) {
        if (!in.get_flat(d)) continue;
        const std::int8_t* wrow = wt.data() + d * b.out_features;
        for (std::int64_t f = f_begin; f < f_end; ++f) {
            psum[static_cast<std::size_t>(f)] += wrow[f];
        }
    }
}

void linear_psum_scatter(const Branch& b, const std::vector<std::int8_t>& wt,
                         const SpikeMap& in, std::span<std::int32_t> psum) {
    std::fill(psum.begin(), psum.end(), 0);
    const std::int64_t features = b.out_features;
    std::int32_t* p = psum.data();
    in.for_each_spike([&](std::int64_t d) {
        const std::int8_t* wrow = wt.data() + d * features;
        for (std::int64_t f = 0; f < features; ++f) p[f] += wrow[f];
    });
}

namespace {

/// Scalar tile transpose (the remainder path, and the whole path when
/// no shuffle support is compiled in): 16x16 int32 tiles keep both
/// faces in L1 while the writes stay sequential runs.
void transpose_tile_scalar(const std::int32_t* hwc, std::int32_t* chw, std::int64_t channels,
                           std::int64_t plane, std::int64_t p0, std::int64_t p_end,
                           std::int64_t c0, std::int64_t c_end) {
    constexpr std::int64_t kTile = 16;
    for (std::int64_t pt = p0; pt < p_end; pt += kTile) {
        const std::int64_t p1 = std::min(pt + kTile, p_end);
        for (std::int64_t ct = c0; ct < c_end; ct += kTile) {
            const std::int64_t c1 = std::min(ct + kTile, c_end);
            for (std::int64_t c = ct; c < c1; ++c) {
                std::int32_t* crow = chw + c * plane;
                for (std::int64_t p = pt; p < p1; ++p) crow[p] = hwc[p * channels + c];
            }
        }
    }
}

}  // namespace

void transpose_hwc_to_chw(const std::int32_t* hwc, std::int32_t* chw, std::int64_t channels,
                          std::int64_t plane, std::int64_t c_begin, std::int64_t c_end) {
#if defined(SIA_SIMD_SHUFFLE)
    // Bulk: 8x8 register-resident tiles through the shuffle network;
    // the ragged right/bottom edges fall back to the scalar tiles.
    // Channel-outer order keeps the 8 destination rows fixed while the
    // writes stream along the plane — plane is typically a power-of-two
    // number of KiB, so the plane-outer order would land every tile's 8
    // writes in one L1 set and thrash it.
    const std::int64_t c8 = c_begin + ((c_end - c_begin) & ~std::int64_t{7});
    const std::int64_t p8 = plane & ~std::int64_t{7};
    for (std::int64_t c0 = c_begin; c0 < c8; c0 += 8) {
        for (std::int64_t p0 = 0; p0 < p8; p0 += 8) {
            simd::i32x8 rows[8];
            simd::i32x8 cols[8];
            for (int k = 0; k < 8; ++k) rows[k] = simd::load(hwc + (p0 + k) * channels + c0);
            simd::transpose8x8(rows, cols);
            for (int j = 0; j < 8; ++j) {
                simd::store(chw + (c0 + j) * plane + p0, cols[j]);
            }
        }
    }
    if (c8 < c_end) transpose_tile_scalar(hwc, chw, channels, plane, 0, p8, c8, c_end);
    if (p8 < plane) transpose_tile_scalar(hwc, chw, channels, plane, p8, plane, c_begin, c_end);
#else
    transpose_tile_scalar(hwc, chw, channels, plane, 0, plane, c_begin, c_end);
#endif
}

FireArgs FireArgs::channel_slice(std::int64_t c_begin, std::int64_t c_end) const noexcept {
    const std::int64_t first = c_begin * plane;
    // Absent banks stay null (a null pointer may not be offset).
    const auto at = [](auto* p, std::int64_t offset) { return p != nullptr ? p + offset : p; };
    FireArgs s = *this;
    s.psum = at(psum, first);
    s.gain = at(gain, first);
    s.bias = at(bias, first);
    s.channel_gain = at(channel_gain, c_begin);
    s.channel_bias = at(channel_bias, c_begin);
    s.skip_psum = at(skip_psum, first);
    s.skip_gain = at(skip_gain, first);
    s.skip_bias = at(skip_bias, first);
    s.skip_channel_gain = at(skip_channel_gain, c_begin);
    s.skip_channel_bias = at(skip_channel_bias, c_begin);
    s.skip_words = at(skip_words, first / simd::kBlock);
    s.membrane = at(membrane, first);
    s.neurons = (c_end - c_begin) * plane;
    return s;
}

// ------------------------------------------------------------------------
// Fused aggregate+fire kernels. One pass over the SoA banks per layer
// per timestep: aggregate (main + optional skip), LIF decay, integrate,
// threshold, reset and spike emission — 8-lane int32 groups, 64 neurons
// (one packed spike word) per outer iteration, no per-neuron branches.
// Every lane op is the int32 recipe of util/fixed_point's *_lane
// helpers, i.e. exactly what aggregate()/update_neuron() compute — the
// bit-identity of the scalar and vector fire paths is by construction,
// and asserted across the equivalence matrix in
// tests/test_engine_dispatch.cpp.
// ------------------------------------------------------------------------

namespace {

enum class SkipKind { kNone, kIdentity, kConv };

/// m = sat16(fxp_mul_shift(sat16(psum), gain) + bias), 8 lanes; the
/// coefficient vectors come pre-loaded (streamed bank lanes or a
/// hoisted per-channel broadcast — same arithmetic either way).
inline simd::i32x8 aggregate8(const std::int32_t* psum, simd::i32x8 gain,
                              simd::i32x8 bias, int shift) noexcept {
    using simd::i32x8;
    const i32x8 p = simd::clamp16(simd::load(psum));
    const i32x8 prod = p * gain;
    i32x8 scaled;
    if (shift > 0) {
        const i32x8 rounding = simd::broadcast(std::int32_t{1} << (shift - 1));
        scaled = simd::clamp16((prod + rounding) >> shift);
    } else {
        scaled = simd::clamp16(prod);
    }
    return simd::clamp16(scaled + bias);
}

template <bool kLif, bool kSubtract, SkipKind kSkipKind, bool kUniform>
std::int64_t fused_fire(const FireArgs& a, std::uint64_t* out) {
    using simd::i32x8;
    const i32x8 thr = simd::broadcast(a.threshold);
    const i32x8 charge = simd::broadcast(a.identity_charge);
    alignas(32) static constexpr std::int32_t kLaneBit[simd::kLanes] = {1,  2,  4,  8,
                                                                       16, 32, 64, 128};
    const i32x8 lane_bit = simd::load(kLaneBit);
    const i32x8 one = simd::broadcast(1);
    // Channel-uniform path: whole words share one channel, so the
    // coefficient lookups hoist to per-word broadcasts, refreshed only
    // at channel boundaries (tracked incrementally — no division in
    // the word loop).
    [[maybe_unused]] const std::int64_t words_per_channel =
        kUniform ? a.plane / simd::kBlock : 0;
    [[maybe_unused]] std::int64_t channel = 0;
    [[maybe_unused]] std::int64_t channel_words_left = 0;
    i32x8 gain_u{};
    i32x8 bias_u{};
    [[maybe_unused]] i32x8 skip_gain_u{};
    [[maybe_unused]] i32x8 skip_bias_u{};

    const std::int64_t words = (a.neurons + simd::kBlock - 1) / simd::kBlock;
    std::int64_t spikes = 0;
    for (std::int64_t w = 0; w < words; ++w) {
        const std::int64_t base = w * simd::kBlock;
        [[maybe_unused]] std::uint64_t skip_word = 0;
        if constexpr (kSkipKind == SkipKind::kIdentity) skip_word = a.skip_words[w];
        if constexpr (kUniform) {
            if (channel_words_left == 0) {
                gain_u = simd::broadcast(a.channel_gain[channel]);
                bias_u = simd::broadcast(a.channel_bias[channel]);
                if constexpr (kSkipKind == SkipKind::kConv) {
                    skip_gain_u = simd::broadcast(a.skip_channel_gain[channel]);
                    skip_bias_u = simd::broadcast(a.skip_channel_bias[channel]);
                }
                ++channel;
                channel_words_left = words_per_channel;
            }
            --channel_words_left;
        }
        std::uint64_t fired = 0;
        for (int g = 0; g < simd::kBlock / simd::kLanes; ++g) {
            const std::int64_t i = base + g * simd::kLanes;
            const i32x8 gain = kUniform ? gain_u : simd::load_i16(a.gain + i);
            const i32x8 bias = kUniform ? bias_u : simd::load_i16(a.bias + i);
            i32x8 m = aggregate8(a.psum + i, gain, bias, a.gain_shift);
            if constexpr (kSkipKind == SkipKind::kConv) {
                const i32x8 sg = kUniform ? skip_gain_u : simd::load_i16(a.skip_gain + i);
                const i32x8 sb = kUniform ? skip_bias_u : simd::load_i16(a.skip_bias + i);
                const i32x8 ms = aggregate8(a.skip_psum + i, sg, sb, a.skip_gain_shift);
                m = simd::clamp16(m + ms);
            } else if constexpr (kSkipKind == SkipKind::kIdentity) {
                const i32x8 byte = simd::broadcast(
                    static_cast<std::int32_t>((skip_word >> (g * simd::kLanes)) & 0xFFU));
                const i32x8 has = (byte & lane_bit) >= one;  // all-ones/zero lanes
                m = simd::clamp16(m + (has & charge));
            }
            i32x8 u = simd::load_i16(a.membrane + i);
            if constexpr (kLif) u = simd::clamp16(u - (u >> a.leak_shift));
            u = simd::clamp16(u + m);
            const i32x8 fire = u >= thr;
            i32x8 reset;
            if constexpr (kSubtract) {
                reset = simd::clamp16(u - thr);
            } else {
                reset = simd::broadcast(0);
            }
            u = simd::select(fire, reset, u);
            simd::store_i16(a.membrane + i, u);
            fired |= simd::movemask(fire) << (g * simd::kLanes);
        }
        // Padding lanes aggregate zero current, but a non-positive
        // threshold could still fire them: mask the tail word so the
        // map's trailing-bits-zero invariant holds unconditionally.
        if (w == words - 1) {
            const std::uint64_t tail = static_cast<std::uint64_t>(a.neurons) & 63U;
            if (tail != 0) fired &= ~std::uint64_t{0} >> (64U - tail);
        }
        out[w] = fired;
        spikes += std::popcount(fired);
    }
    return spikes;
}

template <bool kLif, bool kSubtract, SkipKind kSkipKind>
std::int64_t fire_dispatch_uniform(const FireArgs& a, std::uint64_t* out) {
    const bool uniform = a.plane > 0 && a.plane % simd::kBlock == 0 &&
                         a.channel_gain != nullptr && a.channel_bias != nullptr;
    return uniform ? fused_fire<kLif, kSubtract, kSkipKind, true>(a, out)
                   : fused_fire<kLif, kSubtract, kSkipKind, false>(a, out);
}

template <bool kLif>
std::int64_t fire_dispatch(const FireArgs& a, std::uint64_t* out) {
    const SkipKind skip = a.skip_words != nullptr  ? SkipKind::kIdentity
                          : a.skip_psum != nullptr ? SkipKind::kConv
                                                   : SkipKind::kNone;
    const bool subtract = a.reset == ResetMode::kSubtract;
    switch (skip) {
        case SkipKind::kNone:
            return subtract ? fire_dispatch_uniform<kLif, true, SkipKind::kNone>(a, out)
                            : fire_dispatch_uniform<kLif, false, SkipKind::kNone>(a, out);
        case SkipKind::kIdentity:
            return subtract
                       ? fire_dispatch_uniform<kLif, true, SkipKind::kIdentity>(a, out)
                       : fire_dispatch_uniform<kLif, false, SkipKind::kIdentity>(a, out);
        case SkipKind::kConv:
            return subtract ? fire_dispatch_uniform<kLif, true, SkipKind::kConv>(a, out)
                            : fire_dispatch_uniform<kLif, false, SkipKind::kConv>(a, out);
    }
    return 0;
}

}  // namespace

std::int64_t aggregate_fire_dense(const FireArgs& a, std::uint64_t* out) {
    return fire_dispatch<false>(a, out);
}

std::int64_t aggregate_fire_lif(const FireArgs& a, std::uint64_t* out) {
    return fire_dispatch<true>(a, out);
}

}  // namespace sia::snn::compute
