// Shared integer compute primitives for SnnModel execution.
//
// Both the functional engine (snn::FunctionalEngine) and the
// cycle-accurate hardware simulator (sim::Sia) perform their numerics
// through these functions: the same psum kernels (the engine over whole
// layers, Sia over its channel slices), which compute exact int32 sums
// of int8 weights (the event kernel in int16 lanes that are flushed
// into int32 before they can wrap), and the same aggregate and
// neuron-update arithmetic below. That is what makes the bit-exact
// software/hardware co-verification a structural property rather than
// a testing aspiration. This is also the one module that knows the
// kernels' weight layouts: WeightImage holds a model's weights in them.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "snn/model.hpp"
#include "snn/spike.hpp"
#include "util/fixed_point.hpp"

namespace sia::snn::compute {

/// Transpose conv weights [OC][IC][k][k] -> [IC*k*k][OC] (conv_psum_chunk_oc's layout).
[[nodiscard]] std::vector<std::int8_t> transpose_conv(const Branch& b);

/// Event-kernel layout of conv weights: the output-channel blocks of
/// conv_event_blocks one after another, each [IC][k][k][block width],
/// so every block's weight slice is contiguous. (In the transpose_conv
/// layout a 64-lane block's rows sit one OC-wide row apart: at OC = 512
/// its 295 KB slice maps onto an eighth of the cache sets and no longer
/// fits a 2 MB, 16-way L2.)
[[nodiscard]] std::vector<std::int8_t> block_conv(const Branch& b);

/// Transpose linear weights [F][D] -> [D][F].
[[nodiscard]] std::vector<std::int8_t> transpose_linear(const Branch& b);

/// One model's int8 weights in the psum kernels' layouts: per layer, the
/// main branch and the conv skip (empty for layers without one); conv
/// branches are block_conv, linear ones [D][F]. A model's weights are
/// read-only once converted, so one image is built per model and shared
/// by every executor that runs it, across threads (the host-side analogue
/// of the kernels staying resident in weight BRAM).
struct WeightImage {
    std::vector<std::vector<std::int8_t>> main;
    std::vector<std::vector<std::int8_t>> skip;

    /// True when this image holds one branch of the right size for every
    /// branch of `model`: the bound the kernels rely on. Sizes cannot
    /// tell two models of equal shapes apart.
    [[nodiscard]] bool fits(const SnnModel& model) const noexcept;
};

/// `model`'s image, which FunctionalEngine and sim::Sia read. Validates
/// the model (std::invalid_argument) before it allocates anything.
[[nodiscard]] std::shared_ptr<const WeightImage> event_weights(const SnnModel& model);

/// Per-input-site index of a spike map's spiking channels: for every
/// site (y, x) of the map's plane, how many channels spike there and
/// which, in ascending order. This is the input side of the event conv
/// kernel, which visits only these channels inside each receptive
/// field. Storage is one fixed-capacity row per site ([site][channels],
/// uint16), so disjoint site ranges fill independently — a tiled
/// layer-step builds its index as one team job.
class SpikeIndex {
public:
    /// Size the index for `in`'s geometry (reallocating only to grow)
    /// without filling it. Throws std::invalid_argument when the map has
    /// more channels than a uint16 entry can name.
    void reshape(const SpikeMap& in);
    /// Fill the rows of sites [site_begin, site_end) from `in`'s packed
    /// words; reshape(in) must have run. Disjoint ranges may be filled
    /// concurrently.
    void fill(const SpikeMap& in, std::int64_t site_begin, std::int64_t site_end);
    /// reshape(in) + fill(in) over every site.
    void build(const SpikeMap& in);

    [[nodiscard]] std::int64_t sites() const noexcept { return height_ * width_; }
    [[nodiscard]] std::int64_t height() const noexcept { return height_; }
    [[nodiscard]] std::int64_t width() const noexcept { return width_; }
    /// Spiking channels at `site`, and the first of them.
    [[nodiscard]] std::int64_t count(std::int64_t site) const noexcept {
        return counts_[static_cast<std::size_t>(site)];
    }
    [[nodiscard]] const std::uint16_t* channels(std::int64_t site) const noexcept {
        return channels_.data() + site * capacity_;
    }

private:
    std::int64_t capacity_ = 0;  ///< the map's channels: one row's length
    std::int64_t height_ = 0;
    std::int64_t width_ = 0;
    std::vector<std::uint16_t> counts_;
    std::vector<std::uint16_t> channels_;
};

/// Work units of the event conv kernel for a layer with `out_channels`
/// outputs: the output channels fall into blocks of 64 lanes, then one
/// block of the remaining whole 8-lane groups, then a scalar tail when
/// out_channels is not a multiple of 8. A unit is one block at one
/// output position; units are numbered block-major, unit = block *
/// out_plane + position, so a contiguous unit range walks one block's
/// weight slice across the output plane before moving to the next.
[[nodiscard]] std::int64_t conv_event_blocks(std::int64_t out_channels) noexcept;

/// Units [begin, end) of the event blocks that hold output channels
/// [c0, c1) of a layer with `out_channels` outputs over `plane` output
/// positions (empty when c0 >= c1). A block the slice cuts is run whole,
/// so the units also write its channels outside the slice.
[[nodiscard]] std::pair<std::int64_t, std::int64_t> conv_event_units(
    std::int64_t out_channels, std::int64_t plane, std::int64_t c0, std::int64_t c1) noexcept;

/// Output-stationary event-driven convolution partial sums over units
/// [unit_begin, unit_end) (see conv_event_blocks). Each unit keeps its
/// block's int32 psums in registers, visits only the spiking input
/// channels of each in-bounds receptive-field site (`in` indexes the
/// input map), adds each one's int8 weight row (`wt` in the block_conv
/// layout), and stores the block once into `psum` (HWC,
/// [out_h][out_w][OC], full-OC stride): no zero-fill, no read-back. The
/// rows are summed in int16 lanes, 16 per widening load (an odd last
/// 8-lane group and the scalar tail add in int32), and the unit widens
/// them into its int32 psums before a lane would sum a 257th row, and
/// before the store.
/// 256 rows of [-128, 127] span [-32768, 32512], so no lane wraps and
/// every psum is the exact int32 sum. Every psum entry of a unit is
/// written by that unit alone, so disjoint unit ranges can run
/// concurrently, and the sums are bit-identical to conv_psum_chunk_oc's
/// over the same channels on a zeroed bank.
void conv_psum_event(const Branch& b, const std::vector<std::int8_t>& wt,
                     const SpikeIndex& in, std::int64_t out_h, std::int64_t out_w,
                     std::int64_t unit_begin, std::int64_t unit_end,
                     std::span<std::int32_t> psum);

/// Dense-gather convolution partial sums over every input channel,
/// restricted to output channels [oc_begin, oc_end), accumulating into
/// `psum` without clearing: scans every output pixel x input tap and
/// accumulates where the input bit is set (`wt` in the transpose_conv
/// layout). No executor runs it: it is the independent dense reference
/// the event kernel is tested and benchmarked against. `psum` keeps the
/// full-OC HWC stride; only the slice's entries are touched.
void conv_psum_chunk_oc(const Branch& b, const std::vector<std::int8_t>& wt,
                        const SpikeMap& in, std::int64_t out_h, std::int64_t out_w,
                        std::int64_t oc_begin, std::int64_t oc_end,
                        std::span<std::int32_t> psum);

/// Fully-connected partial sums restricted to output features
/// [f_begin, f_end): clears the slice, then word-skips the packed input
/// to add each spike's [F] weight row over it. `psum` keeps the full-F
/// layout; only the slice's entries are written, with the adds one full
/// pass makes to them, in the same order.
void linear_psum_range(const Branch& b, const std::vector<std::int8_t>& wt,
                       const SpikeMap& in, std::int64_t f_begin, std::int64_t f_end,
                       std::span<std::int32_t> psum);

/// Cache-blocked [plane][channels] -> [channels][plane] int32 transpose:
/// reorders an HWC psum accumulation bank into the CHW order the fused
/// fire kernels (and the packed SpikeMap bit layout) use. Only channels
/// [c_begin, c_end) of `chw` are written, so disjoint channel ranges can
/// be transposed concurrently; `chw` may be padded past channels *
/// plane.
void transpose_hwc_to_chw(const std::int32_t* hwc, std::int32_t* chw, std::int64_t channels,
                          std::int64_t plane, std::int64_t c_begin, std::int64_t c_end);

/// Inputs of the fused aggregate+fire kernels. All banks are flat CHW,
/// 64-byte aligned, padded to a 64-neuron multiple with zero psum and
/// zero gain/bias in the padding lanes (snn::LayerState's layout);
/// gain/bias are the per-output-channel coefficients broadcast per
/// neuron, so the kernels read contiguous streams only.
struct FireArgs {
    const std::int32_t* psum = nullptr;  ///< main-branch aggregated current
    /// Per-neuron broadcast coefficient banks (any layer geometry).
    const std::int16_t* gain = nullptr;
    const std::int16_t* bias = nullptr;
    /// Channel-uniform fast path: when `plane` is a whole number of
    /// 64-neuron words, every word lies inside one channel, so the
    /// kernels hoist the coefficients to two broadcast scalars per word
    /// from these per-channel arrays instead of streaming the banks
    /// (saves a third of the pass's memory traffic on conv shapes).
    /// Set both `plane` (% 64 == 0) and these pointers to take it; the
    /// banks are then ignored and may be null.
    const std::int16_t* channel_gain = nullptr;
    const std::int16_t* channel_bias = nullptr;
    std::int64_t plane = 0;  ///< OH * OW (used by the uniform path only)
    int gain_shift = util::kBnGainShift;

    /// Residual downsample branch (fused two-psum aggregate); ignored
    /// unless the layer has a non-identity skip. Same bank/uniform
    /// split as the main branch.
    const std::int32_t* skip_psum = nullptr;
    const std::int16_t* skip_gain = nullptr;
    const std::int16_t* skip_bias = nullptr;
    const std::int16_t* skip_channel_gain = nullptr;
    const std::int16_t* skip_channel_bias = nullptr;
    int skip_gain_shift = util::kBnGainShift;

    /// Identity-skip source spikes as packed words (same CHW geometry
    /// as the output map); null unless the layer has an identity skip.
    const std::uint64_t* skip_words = nullptr;
    std::int16_t identity_charge = 0;

    std::int16_t* membrane = nullptr;  ///< read-modify-write potentials
    std::int16_t threshold = 0;
    ResetMode reset = ResetMode::kSubtract;
    int leak_shift = 0;  ///< LIF kernel only
    std::int64_t neurons = 0;

    /// These arguments restricted to output channels [c_begin, c_end)
    /// of a CHW layer whose `plane` is set: per-neuron pointers advance
    /// by c_begin * plane, per-channel pointers by c_begin and the
    /// identity-skip words by c_begin * plane / 64. c_begin * plane
    /// must be a multiple of 64, so the slice starts on a packed spike
    /// word and its output words are disjoint from every other slice's.
    [[nodiscard]] FireArgs channel_slice(std::int64_t c_begin,
                                         std::int64_t c_end) const noexcept;
};

/// Fused fire stage for IF neurons: one dense sweep over the SoA banks
/// that aggregates (main + optional skip), thresholds, resets
/// (subtract/zero) and emits spikes — 64 neurons per iteration as
/// 8-lane int32 groups with no per-neuron branches, the fire mask
/// assembled from lane compares and written word-wise into `out`
/// (ceil(neurons / 64) packed words, every one overwritten, tail bits
/// masked). Returns the number of spikes emitted; the caller owns the
/// map's count (SpikeMap::set_count). Bit-identical to the scalar
/// aggregate()/update_neuron() loop: each lane performs the same
/// util/fixed_point lane ops in the same order.
[[nodiscard]] std::int64_t aggregate_fire_dense(const FireArgs& a, std::uint64_t* out);

/// As aggregate_fire_dense with the LIF leak (U -= U >> leak_shift,
/// saturating) fused in front of the integration.
[[nodiscard]] std::int64_t aggregate_fire_lif(const FireArgs& a, std::uint64_t* out);

/// Aggregation-core arithmetic (batch-norm unit of Eq. 2): 16-bit
/// saturating psum, fixed-point gain multiply, bias add. Written in the
/// int32 lane ops of util/fixed_point.hpp — the exact per-lane recipe
/// the vectorized fire kernels execute 8 lanes at a time, so the scalar
/// and SIMD fire paths share one arithmetic definition.
[[nodiscard]] inline std::int16_t aggregate(std::int32_t psum, std::int16_t gain,
                                            std::int16_t bias, int shift) noexcept {
    const std::int32_t p16 = util::clamp16_lane(psum);
    const std::int32_t scaled = util::fxp_mul_shift_lane(p16, gain, shift);
    return static_cast<std::int16_t>(util::clamp16_lane(scaled + bias));
}

/// Activation-unit update: leak (LIF mode), integrate, threshold
/// compare, reset. Returns the new potential; sets `spike`. Same
/// int32-lane spelling as `aggregate` (see there).
[[nodiscard]] inline std::int16_t update_neuron(std::int16_t membrane, std::int16_t current,
                                                const SnnLayer& layer,
                                                bool& spike) noexcept {
    std::int32_t u = membrane;
    if (layer.neuron == NeuronKind::kLif) {
        u = util::clamp16_lane(u - (u >> layer.leak_shift));
    }
    u = util::clamp16_lane(u + current);
    spike = u >= layer.threshold;
    if (spike) {
        u = layer.reset == ResetMode::kSubtract ? util::clamp16_lane(u - layer.threshold)
                                                : 0;
    }
    return static_cast<std::int16_t>(u);
}

}  // namespace sia::snn::compute
