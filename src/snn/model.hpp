// The quantized spiking network model — the artefact produced by
// core::AnnToSnnConverter and executed by BOTH the functional engine
// (snn::FunctionalEngine, the semantic reference) and the cycle-accurate
// hardware simulator (sim::Sia). The two must agree bit-exactly; that
// cross-check is the repo's "hardware-software co-optimisation" contract.
//
// All arithmetic is integer / fixed-point, matching the paper's §III:
// INT8 weights, 16-bit partial sums, 16-bit membrane potentials,
// thresholds and batch-norm coefficients (G, H of Eq. 2).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/fixed_point.hpp"

namespace sia::snn {

enum class NeuronKind : std::uint8_t {
    kIf,   ///< integrate-and-fire (paper's conversion target; mode bit 0)
    kLif,  ///< leaky integrate-and-fire (mode bit 1): U -= U >> leak_shift per step
};

enum class ResetMode : std::uint8_t {
    kSubtract,  ///< reset-by-subtraction (paper default, better accuracy)
    kZero,      ///< hard reset to zero (ablation)
};

enum class LayerOp : std::uint8_t { kConv, kLinear };

/// One synaptic branch: quantized weights plus the per-output-channel
/// aggregation coefficients that map its 16-bit partial sum into the
/// membrane domain: m = ((psum * gain) >> gain_shift) + bias.
struct Branch {
    std::vector<std::int8_t> weights;  ///< conv: [OC][IC][k][k]; linear: [F][D]
    float weight_scale = 1.0F;         ///< q_w (kept for documentation / round-trip)
    /// Bytes actually streamed to the accelerator. 0 = weights.size().
    /// The converter sets this for pool-unrolled FC layers, whose
    /// physical weights (pre-unroll) are pool_area x smaller than the
    /// expanded matrix the engines index, so validate() bounds a linear
    /// branch's value by weights.size().
    std::int64_t stream_weight_bytes = 0;

    std::vector<std::int16_t> gain;    ///< G_q per output channel
    std::vector<std::int16_t> bias;    ///< H_q per output channel (membrane units/step)
    int gain_shift = util::kBnGainShift;

    // Conv geometry (ignored for linear branches).
    std::int64_t in_channels = 0;
    std::int64_t out_channels = 0;
    std::int64_t kernel = 3;
    std::int64_t stride = 1;
    std::int64_t padding = 1;

    // Linear geometry.
    std::int64_t in_features = 0;
    std::int64_t out_features = 0;

    [[nodiscard]] std::int8_t w_conv(std::int64_t oc, std::int64_t ic, std::int64_t ky,
                                     std::int64_t kx) const noexcept {
        return weights[static_cast<std::size_t>(((oc * in_channels + ic) * kernel + ky) *
                                                kernel + kx)];
    }
    [[nodiscard]] std::int8_t w_lin(std::int64_t f, std::int64_t d) const noexcept {
        return weights[static_cast<std::size_t>(f * in_features + d)];
    }
};

/// Identity residual connection: each source spike injects a fixed
/// membrane-domain charge (the source layer's threshold re-expressed in
/// this layer's membrane units).
struct IdentitySkip {
    std::int16_t charge = 0;  ///< membrane units added per skip spike
};

struct SnnLayer {
    LayerOp op = LayerOp::kConv;
    std::string label;

    /// Index of the layer supplying input spikes; -1 = network input.
    int input = -1;

    Branch main;

    // Residual routing (conv layers of ResNet blocks).
    int skip_src = -2;               ///< -2 = none, -1 = network input, else layer index
    bool skip_is_identity = false;
    IdentitySkip identity_skip;
    Branch skip;                     ///< 1x1 conv + BN downsample when not identity

    // Neuron / activation configuration.
    bool spiking = true;             ///< false = readout (accumulate, never fire)
    NeuronKind neuron = NeuronKind::kIf;
    ResetMode reset = ResetMode::kSubtract;
    std::int16_t threshold = std::int16_t{1} << util::kThetaFracBits;
    std::int16_t initial_potential = std::int16_t{1} << (util::kThetaFracBits - 1);
    int leak_shift = 4;              ///< LIF leak: U -= U >> leak_shift

    float step_size = 1.0F;          ///< s_l, real units (for documentation/GOPS calc)

    // Output geometry.
    std::int64_t out_channels = 0;
    std::int64_t out_h = 1;
    std::int64_t out_w = 1;
    // Input geometry (spatial; conv only).
    std::int64_t in_h = 1;
    std::int64_t in_w = 1;

    [[nodiscard]] std::int64_t neurons() const noexcept {
        return out_channels * out_h * out_w;
    }

    [[nodiscard]] bool has_skip() const noexcept { return skip_src != -2; }
};

struct SnnModel {
    std::vector<SnnLayer> layers;
    std::int64_t input_channels = 0;
    std::int64_t input_h = 0;
    std::int64_t input_w = 0;
    std::int64_t classes = 10;
    std::string name;

    /// Validate internal consistency (shapes, indices, coefficient
    /// vector sizes). Throws std::invalid_argument on violation.
    void validate() const;

    /// Synaptic operations (accumulate ops) of one full-activity forward
    /// pass — the denominator convention of the paper's GOPS numbers
    /// (2 ops per MAC-equivalent: select + add).
    [[nodiscard]] std::uint64_t ops_per_timestep() const noexcept;
};

}  // namespace sia::snn
