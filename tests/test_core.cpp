// Core pipeline tests: weight quantization, gain-shift selection,
// ANN->SNN conversion correctness on hand-built IR, compiler plans.
#include <gtest/gtest.h>

#include <cmath>

#include "core/compiler.hpp"
#include "core/convert.hpp"
#include "core/quantize.hpp"
#include "nn/activation.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv.hpp"
#include "nn/linear.hpp"
#include "snn/encoding.hpp"
#include "snn/engine.hpp"

namespace sia::core {
namespace {

TEST(Quantize, RoundTripErrorBounded) {
    util::Rng rng(1);
    std::vector<float> w(256);
    for (auto& v : w) v = rng.normal(0.0F, 0.1F);
    const auto q = quantize_weights(w, 8);
    const auto back = dequantize(q);
    for (std::size_t i = 0; i < w.size(); ++i) {
        EXPECT_LE(std::abs(back[i] - w[i]), q.scale * 0.5F + 1e-7F);
    }
    EXPECT_LE(q.max_abs_error, q.scale * 0.5F + 1e-7F);
}

TEST(Quantize, FewerBitsLargerError) {
    util::Rng rng(2);
    std::vector<float> w(512);
    for (auto& v : w) v = rng.normal(0.0F, 0.1F);
    const auto q8 = quantize_weights(w, 8);
    const auto q4 = quantize_weights(w, 4);
    EXPECT_LT(q8.mse, q4.mse);
}

TEST(Quantize, ClipPercentileTightensScale) {
    std::vector<float> w(100, 0.01F);
    w[0] = 10.0F;  // outlier
    const auto full = quantize_weights(w, 8, 1.0F);
    const auto clipped = quantize_weights(w, 8, 0.95F);
    EXPECT_LT(clipped.scale, full.scale);
}

TEST(Quantize, RejectsBadArgs) {
    const std::vector<float> w = {1.0F};
    EXPECT_THROW(quantize_weights(w, 1), std::invalid_argument);
    EXPECT_THROW(quantize_weights(w, 9), std::invalid_argument);
    EXPECT_THROW(quantize_weights(w, 8, 0.0F), std::invalid_argument);
}

TEST(GainShift, PicksMaximalPrecision) {
    EXPECT_EQ(select_gain_shift(1.0), 14);       // 16384 fits
    EXPECT_EQ(select_gain_shift(2.1), 13);
    EXPECT_EQ(select_gain_shift(1000.0), 5);     // 32000 fits
    EXPECT_EQ(select_gain_shift(1e9), 0);        // saturates, warned
}

/// Hand-built single-conv IR for conversion tests.
struct ProbeNet {
    ProbeNet()
        : rng(3),
          conv({1, 2, 3, 1, 1}, rng, "c"),
          bn(2, "b"),
          act("a") {
        // Give BN non-trivial folded coefficients.
        bn.gamma().value.flat(0) = 1.5F;
        bn.gamma().value.flat(1) = 0.5F;
        bn.beta().value.flat(0) = 0.2F;
        bn.beta().value.flat(1) = -0.1F;
        // Warm running stats.
        tensor::Tensor x(tensor::Shape{4, 1, 6, 6});
        for (std::int64_t i = 0; i < x.numel(); ++i) x.flat(i) = rng.uniform(0.0F, 1.0F);
        for (int rep = 0; rep < 10; ++rep) (void)bn.forward(conv.forward(x, true), true);
        act.set_step(1.0F);
        act.enable_quant(4);
        act.set_step(1.0F);
    }

    nn::NetworkIR ir() {
        nn::NetworkIR net;
        net.model_name = "probe";
        net.input_channels = 1;
        net.input_h = 6;
        net.input_w = 6;
        nn::IrNode in;
        in.op = nn::IrOp::kInput;
        in.out_channels = 1;
        in.out_h = 6;
        in.out_w = 6;
        net.nodes.push_back(in);
        nn::IrNode c;
        c.op = nn::IrOp::kConv;
        c.label = "conv";
        c.input = 0;
        c.conv = &conv;
        c.bn = &bn;
        c.act = &act;
        c.out_channels = 2;
        c.out_h = 6;
        c.out_w = 6;
        net.nodes.push_back(c);
        return net;
    }

    util::Rng rng;
    nn::Conv2d conv;
    nn::BatchNorm2d bn;
    nn::Activation act;
};

TEST(Convert, ThresholdAndInitialPotential) {
    ProbeNet probe;
    const auto model = AnnToSnnConverter().convert(probe.ir());
    ASSERT_EQ(model.layers.size(), 1U);
    EXPECT_EQ(model.layers[0].threshold, 256);
    EXPECT_EQ(model.layers[0].initial_potential, 128);
    EXPECT_FLOAT_EQ(model.layers[0].step_size, 1.0F);
    EXPECT_EQ(model.layers[0].neuron, snn::NeuronKind::kIf);
    EXPECT_EQ(model.layers[0].reset, snn::ResetMode::kSubtract);
}

TEST(Convert, GainEncodesFoldedBn) {
    ProbeNet probe;
    const auto model = AnnToSnnConverter().convert(probe.ir());
    const auto& branch = model.layers[0].main;
    // Reconstruct G_real for channel 0 and compare against the encoded
    // fixed-point gain.
    const double g0 = 1.5 / std::sqrt(probe.bn.running_var()[0] + probe.bn.eps());
    const double expected =
        g0 * branch.weight_scale * 1.0 * 256.0 / 1.0;  // theta_in=1, s=1
    const double encoded = static_cast<double>(branch.gain[0]) /
                           static_cast<double>(1 << branch.gain_shift);
    EXPECT_NEAR(encoded, expected, std::abs(expected) * 0.01 + 1e-3);
}

TEST(Convert, BiasEncodesFoldedBeta) {
    ProbeNet probe;
    const auto model = AnnToSnnConverter().convert(probe.ir());
    const auto& branch = model.layers[0].main;
    const double g1 = 0.5 / std::sqrt(probe.bn.running_var()[1] + probe.bn.eps());
    const double h1 = -0.1 - probe.bn.running_mean()[1] * g1;
    EXPECT_NEAR(branch.bias[1], std::lround(h1 * 256.0), 1.0);
}

TEST(Convert, RequiresPositiveStep) {
    ProbeNet probe;
    probe.act.set_step(0.0F);
    EXPECT_THROW(AnnToSnnConverter().convert(probe.ir()), std::invalid_argument);
}

TEST(Convert, NeuronOptionsPropagate) {
    ProbeNet probe;
    ConvertOptions opts;
    opts.neuron = snn::NeuronKind::kLif;
    opts.reset = snn::ResetMode::kZero;
    opts.leak_shift = 3;
    const auto model = AnnToSnnConverter(opts).convert(probe.ir());
    EXPECT_EQ(model.layers[0].neuron, snn::NeuronKind::kLif);
    EXPECT_EQ(model.layers[0].reset, snn::ResetMode::kZero);
    EXPECT_EQ(model.layers[0].leak_shift, 3);
}

TEST(Convert, SingleLayerRateApproximatesQann) {
    // The structural equivalence check: SNN rate*s tracks the clipped
    // pre-activation within the coding tolerance at large T.
    ProbeNet probe;
    const auto model = AnnToSnnConverter().convert(probe.ir());
    tensor::Tensor x(tensor::Shape{1, 1, 6, 6});
    for (std::int64_t i = 0; i < x.numel(); ++i) x.flat(i) = probe.rng.uniform(0.0F, 1.0F);
    const tensor::Tensor z = probe.bn.forward(probe.conv.forward(x, false), false);

    const std::int64_t timesteps = 64;
    const auto train = snn::encode_thermometer(x, timesteps);
    snn::FunctionalEngine engine(model);
    std::vector<int> counts(static_cast<std::size_t>(z.numel()), 0);
    engine.reset();
    for (const auto& frame : train) {
        engine.step(frame);
        const auto& s = engine.layer_spikes(0);
        for (std::int64_t i = 0; i < s.size(); ++i) {
            if (s.get_flat(i)) ++counts[static_cast<std::size_t>(i)];
        }
    }
    double mae = 0.0;
    for (std::int64_t i = 0; i < z.numel(); ++i) {
        const double clip = std::clamp(z.flat(i), 0.0F, 1.0F);
        const double snn_val =
            static_cast<double>(counts[static_cast<std::size_t>(i)]) / timesteps;
        mae += std::abs(snn_val - clip);
    }
    mae /= static_cast<double>(z.numel());
    EXPECT_LT(mae, 0.06);  // coding + unevenness tolerance at T=64
}

// ---- Compiler ----

snn::SnnModel unit_conv_model(std::int64_t in_c, std::int64_t out_c, std::int64_t hw,
                              std::int64_t k = 3) {
    snn::SnnModel model;
    model.input_channels = in_c;
    model.input_h = hw;
    model.input_w = hw;
    model.classes = out_c;
    snn::SnnLayer layer;
    layer.op = snn::LayerOp::kConv;
    layer.label = "c";
    layer.input = -1;
    layer.main.in_channels = in_c;
    layer.main.out_channels = out_c;
    layer.main.kernel = k;
    layer.main.stride = 1;
    layer.main.padding = k / 2;
    layer.main.weights.assign(static_cast<std::size_t>(out_c * in_c * k * k), 1);
    layer.main.gain.assign(static_cast<std::size_t>(out_c), 256);
    layer.main.bias.assign(static_cast<std::size_t>(out_c), 0);
    layer.out_channels = out_c;
    layer.out_h = hw;
    layer.out_w = hw;
    layer.in_h = hw;
    layer.in_w = hw;
    model.layers.push_back(layer);
    return model;
}

TEST(Compiler, SmallLayerSingleTile) {
    const auto model = unit_conv_model(3, 16, 8);
    const auto program = SiaCompiler().compile(model);
    ASSERT_EQ(program.layers.size(), 1U);
    EXPECT_EQ(program.layers[0].oc_tiles, 1);
    EXPECT_EQ(program.layers[0].ic_passes, 1);
    EXPECT_FALSE(program.layers[0].mmio);
}

TEST(Compiler, TilesWideLayers) {
    const auto model = unit_conv_model(3, 200, 8);
    const auto program = SiaCompiler().compile(model);
    EXPECT_EQ(program.layers[0].oc_tiles, 4);  // ceil(200/64)
}

TEST(Compiler, ChunksDeepKernels) {
    // 8 kB / 64 PEs = 128 B per kernel slot; a 3x3 kernel over 512 input
    // channels needs 4608 B -> 36 passes of 14 channels.
    const auto model = unit_conv_model(512, 64, 4);
    const auto program = SiaCompiler().compile(model);
    EXPECT_EQ(program.layers[0].ic_chunk, 14);
    EXPECT_EQ(program.layers[0].ic_passes, (512 + 13) / 14);
}

TEST(Compiler, SpatialTilesLargeMembranes) {
    // 64 channels x 32x32 = 65536 neurons x 2 B = 128 kB -> 4 slices of
    // the 32 kB ping-pong bank; no DDR spill.
    const auto model = unit_conv_model(3, 64, 32);
    const auto program = SiaCompiler().compile(model);
    EXPECT_EQ(program.layers[0].spatial_tiles, 4);
}

TEST(Compiler, NoTilingWhenMembranesFit) {
    const auto model = unit_conv_model(3, 16, 8);  // 1024 neurons = 2 kB
    const auto program = SiaCompiler().compile(model);
    EXPECT_EQ(program.layers[0].spatial_tiles, 1);
}

TEST(Compiler, LinearGoesMmio) {
    snn::SnnModel model;
    model.input_channels = 1;
    model.input_h = 4;
    model.input_w = 4;
    model.classes = 10;
    snn::SnnLayer fc;
    fc.op = snn::LayerOp::kLinear;
    fc.label = "fc";
    fc.input = -1;
    fc.spiking = false;
    fc.main.in_features = 16;
    fc.main.out_features = 10;
    fc.main.weights.assign(160, 1);
    fc.main.gain.assign(10, 256);
    fc.main.bias.assign(10, 0);
    fc.out_channels = 10;
    model.layers.push_back(fc);
    const auto program = SiaCompiler().compile(model);
    EXPECT_TRUE(program.layers[0].mmio);
}

}  // namespace
}  // namespace sia::core
