// Structure-of-arrays per-layer runtime state of the functional engine.
//
// One LayerState owns every mutable bank the fire stage touches, laid
// out flat, 64-byte aligned and padded to whole 64-neuron blocks so the
// fused aggregate+fire kernels (snn::compute::aggregate_fire_*) can
// stream them 64 lanes per iteration and write the fire mask directly
// into the packed SpikeMap words:
//
//   psum      int32  CHW   aggregated synaptic current (kernel input)
//   membrane  int16  CHW   potentials (read-modify-write in the pass)
//   gain/bias int16  CHW   per-output-channel aggregation coefficients
//                          broadcast per neuron, so the channel-major
//                          lookup is a contiguous stream with no
//                          per-lane channel indexing (and channel
//                          boundaries inside a 64-block need no care)
//
// The psum kernels (compute::conv_psum_event, linear_psum_range)
// produce HWC order — the event kernel stores each unit's block of
// output channels contiguously — while the fire stage wants CHW, the
// SpikeMap bit order.
// When the two orders differ (channels > 1 and a spatial plane > 1) the
// layer carries a separate HWC accumulation bank and the engine runs a
// cache-blocked transpose (compute::transpose_hwc_to_chw) between the
// stages; when they coincide (linear layers, 1x1 spatial) the kernels
// accumulate straight into the CHW bank. Padding lanes hold zero psum
// and zero gain/bias, so they aggregate to zero current; the kernels
// additionally mask the final word's tail bits so a padding lane can
// never emit a spike.
#pragma once

#include <cstdint>
#include <span>

#include "snn/model.hpp"
#include "snn/simd.hpp"

namespace sia::snn {

struct LayerState {
    std::int64_t neurons = 0;  ///< OC * OH * OW
    std::int64_t padded = 0;   ///< neurons rounded up to a 64 multiple
    std::int64_t channels = 0;
    std::int64_t plane = 0;    ///< OH * OW
    /// True when the accumulation order (HWC) differs from the fire
    /// order (CHW): the psum kernels then target `psum_hwc` and the
    /// engine transposes into `psum` before firing.
    bool interleaved = false;

    simd::AlignedVec<std::int32_t> psum;      ///< CHW fire bank (padded)
    simd::AlignedVec<std::int32_t> psum_hwc;  ///< HWC accumulation bank (interleaved only)
    simd::AlignedVec<std::int16_t> membrane;  ///< CHW potentials (padded; spiking only)
    simd::AlignedVec<std::int16_t> gain;      ///< main-branch G_q broadcast per neuron
    simd::AlignedVec<std::int16_t> bias;      ///< main-branch H_q broadcast per neuron

    // Residual downsample branch (conv skip): same treatment as main.
    simd::AlignedVec<std::int32_t> skip_psum;
    simd::AlignedVec<std::int32_t> skip_psum_hwc;
    simd::AlignedVec<std::int16_t> skip_gain;
    simd::AlignedVec<std::int16_t> skip_bias;

    /// Size and zero every bank for `layer`; broadcasts the per-channel
    /// gain/bias coefficients into per-neuron streams.
    void init(const SnnLayer& layer);

    /// Reset mutable state between runs: membranes to `initial` (real
    /// lanes; padding lanes stay zero), psum banks untouched (they are
    /// overwritten every step).
    void reset_membrane(std::int16_t initial);

    /// The main-branch accumulation target the psum kernels write
    /// (exactly `neurons` elements; HWC when interleaved, CHW else).
    [[nodiscard]] std::span<std::int32_t> accum() noexcept {
        return {interleaved ? psum_hwc.data() : psum.data(),
                static_cast<std::size_t>(neurons)};
    }
    [[nodiscard]] std::span<std::int32_t> skip_accum() noexcept {
        return {interleaved ? skip_psum_hwc.data() : skip_psum.data(),
                static_cast<std::size_t>(neurons)};
    }
    /// Read-only view of the accumulation bank (the scalar fire path
    /// indexes it in HWC order, matching what the kernels produced).
    [[nodiscard]] const std::int32_t* accum_data() const noexcept {
        return interleaved ? psum_hwc.data() : psum.data();
    }
    [[nodiscard]] const std::int32_t* skip_accum_data() const noexcept {
        return interleaved ? skip_psum_hwc.data() : skip_psum.data();
    }
};

}  // namespace sia::snn
