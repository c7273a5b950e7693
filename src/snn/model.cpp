#include "snn/model.hpp"

#include <stdexcept>
#include <string>

namespace sia::snn {

namespace {

/// Largest value validate accepts for any conv-geometry field (channels,
/// spatial size, kernel, stride, padding) and for `classes`. Every field
/// is bounded before it enters a product, so no product below can
/// overflow whatever a hostile file holds: OC * IC * k * k < 2^60.
constexpr std::int64_t kMaxExtent = std::int64_t{1} << 15;
/// Largest linear feature count: F * D < 2^62.
constexpr std::int64_t kMaxFeatures = std::int64_t{1} << 31;

void require(bool cond, const std::string& what) {
    if (!cond) throw std::invalid_argument("SnnModel::validate: " + what);
}

bool in_range(std::int64_t v, std::int64_t lo, std::int64_t hi) noexcept {
    return v >= lo && v <= hi;
}

/// The spike map a layer reads: the network input (index -1) or an
/// earlier layer's output.
struct MapGeometry {
    std::int64_t channels = 0;
    std::int64_t h = 0;
    std::int64_t w = 0;
};

MapGeometry source_map(const SnnModel& model, int index) {
    if (index == -1) return {model.input_channels, model.input_h, model.input_w};
    const SnnLayer& src = model.layers[static_cast<std::size_t>(index)];
    return {src.out_channels, src.out_h, src.out_w};
}

/// A conv branch reading `src` and producing an out_h x out_w plane.
void validate_conv_branch(const Branch& b, const MapGeometry& src, std::int64_t out_h,
                          std::int64_t out_w, const std::string& label) {
    require(in_range(b.in_channels, 1, kMaxExtent) && in_range(b.out_channels, 1, kMaxExtent),
            label + ": bad channels");
    require(in_range(b.kernel, 1, kMaxExtent) && in_range(b.stride, 1, kMaxExtent) &&
                in_range(b.padding, 0, kMaxExtent),
            label + ": bad geometry");
    require(b.in_channels == src.channels, label + ": input channel mismatch");
    const auto produces = [&](std::int64_t in, std::int64_t out) {
        const std::int64_t span = in + 2 * b.padding - b.kernel;
        return span >= 0 && span / b.stride + 1 == out;
    };
    require(produces(src.h, out_h) && produces(src.w, out_w),
            label + ": output size is not (in + 2 * padding - kernel) / stride + 1");
    require(static_cast<std::int64_t>(b.weights.size()) ==
                b.out_channels * b.in_channels * b.kernel * b.kernel,
            label + ": weight size mismatch");
    require(static_cast<std::int64_t>(b.gain.size()) == b.out_channels,
            label + ": gain size mismatch");
    require(static_cast<std::int64_t>(b.bias.size()) == b.out_channels,
            label + ": bias size mismatch");
    require(b.gain_shift >= 0 && b.gain_shift <= 15, label + ": bad gain shift");
}

void validate_linear_branch(const Branch& b, const std::string& label) {
    require(in_range(b.in_features, 1, kMaxFeatures) && in_range(b.out_features, 1, kMaxFeatures),
            label + ": bad features");
    require(static_cast<std::int64_t>(b.weights.size()) == b.out_features * b.in_features,
            label + ": weight size mismatch");
    // Sia streams these bytes every step and prices them per word, so a
    // hostile count overflows the cycle model; the physical matrix the
    // converter records is never larger than the one held here.
    require(in_range(b.stream_weight_bytes, 0, static_cast<std::int64_t>(b.weights.size())),
            label + ": streamed weight bytes exceed the weights");
    require(static_cast<std::int64_t>(b.gain.size()) == b.out_features,
            label + ": gain size mismatch");
    require(static_cast<std::int64_t>(b.bias.size()) == b.out_features,
            label + ": bias size mismatch");
    // Same bound as conv branches; the fire-stage lane arithmetic
    // (util::fxp_mul_shift_lane) relies on it to keep the rounded
    // product inside int32.
    require(b.gain_shift >= 0 && b.gain_shift <= 15, label + ": bad gain shift");
}

}  // namespace

void SnnModel::validate() const {
    require(in_range(input_channels, 1, kMaxExtent) && in_range(input_h, 1, kMaxExtent) &&
                in_range(input_w, 1, kMaxExtent),
            "bad input geometry");
    require(in_range(classes, 1, kMaxExtent), "bad class count");
    require(!layers.empty(), "no layers");
    for (std::size_t i = 0; i < layers.size(); ++i) {
        const SnnLayer& layer = layers[i];
        const std::string label = layer.label.empty() ? ("layer" + std::to_string(i))
                                                      : layer.label;
        require(layer.input >= -1 && layer.input < static_cast<int>(i),
                label + ": input must reference an earlier layer");
        // load_model casts these bytes straight into the enums; an
        // unknown value would run as some other op, neuron or reset.
        require(layer.op == LayerOp::kConv || layer.op == LayerOp::kLinear,
                label + ": unknown op");
        require(layer.neuron == NeuronKind::kIf || layer.neuron == NeuronKind::kLif,
                label + ": unknown neuron kind");
        require(layer.reset == ResetMode::kSubtract || layer.reset == ResetMode::kZero,
                label + ": unknown reset mode");
        require(layer.spiking || layer.op == LayerOp::kLinear,
                label + ": readout (non-spiking) layers must be linear");
        require(in_range(layer.out_h, 1, kMaxExtent) && in_range(layer.out_w, 1, kMaxExtent),
                label + ": bad output geometry");
        const MapGeometry src = source_map(*this, layer.input);
        if (layer.op == LayerOp::kConv) {
            require(layer.in_h == src.h && layer.in_w == src.w,
                    label + ": input size does not match the source's output size");
            validate_conv_branch(layer.main, src, layer.out_h, layer.out_w, label + ".main");
            require(layer.out_channels == layer.main.out_channels,
                    label + ": out_channels mismatch");
        } else {
            validate_linear_branch(layer.main, label + ".main");
            require(layer.out_channels == layer.main.out_features,
                    label + ": out_features mismatch");
            require(layer.main.in_features == src.channels * src.h * src.w,
                    label + ": in_features does not match source layer size");
        }
        if (!layer.spiking) {
            require(layer.out_channels == classes, label + ": readout width is not classes");
        }
        if (layer.has_skip()) {
            require(layer.op == LayerOp::kConv, label + ": skip only on conv layers");
            require(layer.skip_src >= -1 && layer.skip_src < static_cast<int>(i),
                    label + ": skip must reference an earlier layer");
            const MapGeometry skip_src = source_map(*this, layer.skip_src);
            if (!layer.skip_is_identity) {
                validate_conv_branch(layer.skip, skip_src, layer.out_h, layer.out_w,
                                     label + ".skip");
                require(layer.skip.out_channels == layer.out_channels,
                        label + ": skip out_channels mismatch");
            } else {
                // Identity skips inject the source map verbatim, and
                // the fused fire kernels alias its packed words, so
                // the full CHW geometry must match — not just the
                // channel count.
                require(skip_src.channels == layer.out_channels,
                        label + ": identity skip channel mismatch");
                require(skip_src.h == layer.out_h && skip_src.w == layer.out_w,
                        label + ": identity skip spatial mismatch");
            }
        }
        require(layer.threshold > 0, label + ": non-positive threshold");
        require(layer.leak_shift >= 0 && layer.leak_shift <= 15,
                label + ": bad leak shift");
    }
}

std::uint64_t SnnModel::ops_per_timestep() const noexcept {
    std::uint64_t ops = 0;
    for (const SnnLayer& layer : layers) {
        if (layer.op == LayerOp::kConv) {
            const auto& b = layer.main;
            ops += static_cast<std::uint64_t>(layer.out_h * layer.out_w * b.out_channels *
                                              b.in_channels * b.kernel * b.kernel) *
                   2ULL;
            if (layer.has_skip() && !layer.skip_is_identity) {
                const auto& s = layer.skip;
                ops += static_cast<std::uint64_t>(layer.out_h * layer.out_w *
                                                  s.out_channels * s.in_channels) *
                       2ULL;
            }
        } else {
            ops += static_cast<std::uint64_t>(layer.main.in_features *
                                              layer.main.out_features) *
                   2ULL;
        }
    }
    return ops;
}

}  // namespace sia::snn
