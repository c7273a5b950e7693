// SNN layer tests: spike maps, thermometer encoding, model validation,
// and IF/LIF neuron dynamics via the shared compute primitives.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/compiler.hpp"
#include "sim/sia.hpp"
#include "snn/compute.hpp"
#include "snn/encoding.hpp"
#include "snn/engine.hpp"
#include "snn/exit.hpp"
#include "snn/model.hpp"
#include "snn/spike.hpp"
#include "util/rng.hpp"

namespace sia::snn {
namespace {

TEST(SpikeMap, SetGetCount) {
    SpikeMap m(2, 3, 4);
    EXPECT_EQ(m.size(), 24);
    EXPECT_EQ(m.count(), 0);
    m.set(1, 2, 3, true);
    EXPECT_TRUE(m.get(1, 2, 3));
    EXPECT_TRUE(m.get_flat(23));
    EXPECT_EQ(m.count(), 1);
    m.clear();
    EXPECT_EQ(m.count(), 0);
}

TEST(SpikeMap, MaintainedCountIsIdempotent) {
    SpikeMap m(1, 1, 100);
    m.set_flat(7, true);
    m.set_flat(7, true);  // double-set must not double-count
    EXPECT_EQ(m.count(), 1);
    m.set_flat(8, false);  // clearing a clear bit must not go negative
    EXPECT_EQ(m.count(), 1);
    m.set_flat(7, false);
    m.set_flat(7, false);
    EXPECT_EQ(m.count(), 0);
}

TEST(SpikeMap, IteratorVisitsSetBitsAscendingAcrossWords) {
    // Bits straddling word boundaries, in the word-skip + ctz path.
    SpikeMap m(2, 5, 17);  // 170 sites = 2 full words + a 42-bit tail
    const std::vector<std::int64_t> want = {0, 1, 62, 63, 64, 65, 127, 128, 169};
    for (const auto i : want) m.set_flat(i, true);
    std::vector<std::int64_t> got;
    m.for_each_spike([&](std::int64_t i) { got.push_back(i); });
    EXPECT_EQ(got, want);
    EXPECT_EQ(m.count(), static_cast<std::int64_t>(want.size()));
}

TEST(SpikeMap, IteratorMatchesGetFlatOnRandomMap) {
    util::Rng rng(41);
    SpikeMap m(3, 9, 11);
    std::vector<std::int64_t> want;
    for (std::int64_t i = 0; i < m.size(); ++i) {
        if (rng.bernoulli(0.3)) {
            m.set_flat(i, true);
            want.push_back(i);
        }
    }
    std::vector<std::int64_t> got;
    m.for_each_spike([&](std::int64_t i) { got.push_back(i); });
    EXPECT_EQ(got, want);
    EXPECT_EQ(m.count(), static_cast<std::int64_t>(want.size()));
}

TEST(SpikeMap, RawWordsRoundTripAndTailMasking) {
    SpikeMap m(1, 1, 70);  // 70 sites: one full word + a 6-bit tail
    m.set_flat(0, true);
    m.set_flat(69, true);
    ASSERT_EQ(m.raw().size(), 2U);

    SpikeMap back(1, 1, 70);
    back.set_words(m.raw());
    EXPECT_TRUE(back == m);
    EXPECT_EQ(back.count(), 2);

    // Stray bits past size() are cleared and never counted.
    std::vector<std::uint64_t> dirty = m.raw();
    dirty[1] |= ~std::uint64_t{0} << 6;
    back.set_words(dirty);
    EXPECT_TRUE(back == m);
    EXPECT_EQ(back.count(), 2);

    EXPECT_THROW(back.set_words(std::vector<std::uint64_t>(3, 0)),
                 std::invalid_argument);
}

TEST(Encoding, SpikeCountMatchesValue) {
    const std::int64_t timesteps = 8;
    tensor::Tensor img(tensor::Shape{1, 1, 2, 2}, {0.0F, 0.25F, 0.5F, 1.0F});
    const SpikeTrain train = encode_thermometer(img, timesteps);
    ASSERT_EQ(train.size(), 8U);
    std::vector<int> counts(4, 0);
    for (const auto& f : train) {
        for (std::int64_t i = 0; i < 4; ++i) counts[i] += f.get_flat(i) ? 1 : 0;
    }
    EXPECT_EQ(counts[0], 0);
    EXPECT_EQ(counts[1], 2);  // 0.25 * 8
    EXPECT_EQ(counts[2], 4);
    EXPECT_EQ(counts[3], 8);
}

TEST(Encoding, EvenSpread) {
    // v = 0.5, T = 8 -> spikes every other step, not a front burst.
    tensor::Tensor img(tensor::Shape{1, 1, 1, 1}, {0.5F});
    const SpikeTrain train = encode_thermometer(img, 8);
    int longest_run = 0;
    int run = 0;
    for (const auto& f : train) {
        run = f.get_flat(0) ? run + 1 : 0;
        longest_run = std::max(longest_run, run);
    }
    EXPECT_EQ(longest_run, 1);
}

TEST(Encoding, ClampsOutOfRange) {
    tensor::Tensor img(tensor::Shape{1, 1, 1, 2}, {-3.0F, 5.0F});
    const SpikeTrain train = encode_thermometer(img, 4);
    int c0 = 0;
    int c1 = 0;
    for (const auto& f : train) {
        c0 += f.get_flat(0) ? 1 : 0;
        c1 += f.get_flat(1) ? 1 : 0;
    }
    EXPECT_EQ(c0, 0);
    EXPECT_EQ(c1, 4);
}

TEST(Encoding, DecodeErrorBounded) {
    util::Rng rng(9);
    tensor::Tensor img(tensor::Shape{1, 2, 4, 4});
    for (std::int64_t i = 0; i < img.numel(); ++i) img.flat(i) = rng.uniform(0.0F, 1.0F);
    for (const std::int64_t timesteps : {4L, 8L, 16L}) {
        const SpikeTrain train = encode_thermometer(img, timesteps);
        double mean_v = 0.0;
        for (std::int64_t i = 0; i < img.numel(); ++i) mean_v += img.flat(i);
        mean_v /= static_cast<double>(img.numel());
        EXPECT_NEAR(decode_mean_rate(train), mean_v,
                    0.5 / static_cast<double>(timesteps));
    }
}

TEST(Encoding, RejectsBadInputs) {
    tensor::Tensor img(tensor::Shape{2, 1, 1, 1});
    EXPECT_THROW(encode_thermometer(img, 4), std::invalid_argument);
    tensor::Tensor ok(tensor::Shape{1, 1, 1, 1});
    EXPECT_THROW(encode_thermometer(ok, 0), std::invalid_argument);
}

TEST(FramesToTrain, Adapter) {
    tensor::Tensor frames(tensor::Shape{2, 1, 2, 2});
    frames.at(0, 0, 0, 1) = 1.0F;
    frames.at(1, 0, 1, 0) = 0.5F;  // nonzero counts as spike
    const SpikeTrain train = frames_to_train(frames);
    ASSERT_EQ(train.size(), 2U);
    EXPECT_TRUE(train[0].get(0, 0, 1));
    EXPECT_TRUE(train[1].get(0, 1, 0));
    EXPECT_EQ(train[0].count() + train[1].count(), 2);
}

// ---- Neuron dynamics through the shared compute primitives ----

SnnLayer if_layer() {
    SnnLayer layer;
    layer.threshold = 256;
    layer.reset = ResetMode::kSubtract;
    layer.neuron = NeuronKind::kIf;
    return layer;
}

TEST(Neuron, FiresAtThresholdAndSubtracts) {
    const SnnLayer layer = if_layer();
    bool spike = false;
    const auto u = compute::update_neuron(200, 100, layer, spike);
    EXPECT_TRUE(spike);
    EXPECT_EQ(u, 44);  // 300 - 256
}

TEST(Neuron, NoFireBelowThreshold) {
    const SnnLayer layer = if_layer();
    bool spike = true;
    const auto u = compute::update_neuron(100, 100, layer, spike);
    EXPECT_FALSE(spike);
    EXPECT_EQ(u, 200);
}

TEST(Neuron, ResetToZeroMode) {
    SnnLayer layer = if_layer();
    layer.reset = ResetMode::kZero;
    bool spike = false;
    const auto u = compute::update_neuron(200, 200, layer, spike);
    EXPECT_TRUE(spike);
    EXPECT_EQ(u, 0);
}

TEST(Neuron, LifLeaksTowardZero) {
    SnnLayer layer = if_layer();
    layer.neuron = NeuronKind::kLif;
    layer.leak_shift = 2;  // leak 1/4 per step
    bool spike = false;
    const auto u = compute::update_neuron(100, 0, layer, spike);
    EXPECT_FALSE(spike);
    EXPECT_EQ(u, 75);
}

TEST(Neuron, RateCodesClippedValue) {
    // Constant drive I per step, threshold theta: firing rate -> I/theta.
    const SnnLayer layer = if_layer();
    std::int16_t u = 128;
    int spikes = 0;
    const int steps = 1000;
    const std::int16_t drive = 64;  // I/theta = 0.25
    for (int t = 0; t < steps; ++t) {
        bool s = false;
        u = compute::update_neuron(u, drive, layer, s);
        spikes += s ? 1 : 0;
    }
    EXPECT_NEAR(static_cast<double>(spikes) / steps, 0.25, 0.01);
}

TEST(Neuron, NegativeDriveNeverFires) {
    const SnnLayer layer = if_layer();
    std::int16_t u = 128;
    for (int t = 0; t < 100; ++t) {
        bool s = false;
        u = compute::update_neuron(u, -50, layer, s);
        EXPECT_FALSE(s);
    }
    EXPECT_EQ(u, 128 - 100 * 50);  // integrates linearly downward
    for (int t = 0; t < 1000; ++t) {
        bool s = false;
        u = compute::update_neuron(u, -50, layer, s);
    }
    EXPECT_EQ(u, -32768);  // saturates, never wraps
}

// ---- Model validation ----

SnnModel tiny_conv_model() {
    SnnModel model;
    model.input_channels = 1;
    model.input_h = 4;
    model.input_w = 4;
    model.classes = 2;
    SnnLayer conv;
    conv.op = LayerOp::kConv;
    conv.label = "c";
    conv.input = -1;
    conv.main.in_channels = 1;
    conv.main.out_channels = 2;
    conv.main.kernel = 3;
    conv.main.stride = 1;
    conv.main.padding = 1;
    conv.main.weights.assign(2 * 1 * 3 * 3, 1);
    conv.main.gain.assign(2, 256);
    conv.main.bias.assign(2, 0);
    conv.out_channels = 2;
    conv.out_h = 4;
    conv.out_w = 4;
    conv.in_h = 4;
    conv.in_w = 4;
    model.layers.push_back(conv);
    SnnLayer fc;
    fc.op = LayerOp::kLinear;
    fc.label = "fc";
    fc.input = 0;
    fc.spiking = false;
    fc.main.in_features = 32;
    fc.main.out_features = 2;
    fc.main.weights.assign(64, 1);
    fc.main.gain.assign(2, 256);
    fc.main.bias.assign(2, 0);
    fc.out_channels = 2;
    model.layers.push_back(fc);
    return model;
}

TEST(ModelValidate, AcceptsWellFormed) { EXPECT_NO_THROW(tiny_conv_model().validate()); }

TEST(ModelValidate, RejectsWeightSizeMismatch) {
    auto model = tiny_conv_model();
    model.layers[0].main.weights.pop_back();
    EXPECT_THROW(model.validate(), std::invalid_argument);
}

TEST(ModelValidate, RejectsForwardReference) {
    auto model = tiny_conv_model();
    model.layers[0].input = 5;
    EXPECT_THROW(model.validate(), std::invalid_argument);
}

TEST(ModelValidate, RejectsNonLinearReadout) {
    auto model = tiny_conv_model();
    model.layers[0].spiking = false;
    EXPECT_THROW(model.validate(), std::invalid_argument);
}

TEST(ModelValidate, RejectsFcFeatureMismatch) {
    auto model = tiny_conv_model();
    model.layers[1].main.in_features = 16;
    model.layers[1].main.weights.assign(32, 1);
    EXPECT_THROW(model.validate(), std::invalid_argument);
}

TEST(ModelValidate, RejectsOutOfRangeShifts) {
    // The fire-stage lane arithmetic relies on these bounds to keep
    // every int32 intermediate from overflowing.
    auto model = tiny_conv_model();
    model.layers[1].main.gain_shift = 31;  // linear branch
    EXPECT_THROW(model.validate(), std::invalid_argument);

    auto leaky = tiny_conv_model();
    leaky.layers[0].leak_shift = 33;
    EXPECT_THROW(leaky.validate(), std::invalid_argument);
}

TEST(ModelValidate, RejectsStreamedBytesBeyondTheWeights) {
    // Sia prices a readout's streamed bytes every step: one hostile byte
    // of a model file (2^60 bytes) overflowed its cycle counts.
    auto model = tiny_conv_model();
    model.layers[1].main.stream_weight_bytes = 64;  // the whole matrix
    EXPECT_NO_THROW(model.validate());
    model.layers[1].main.stream_weight_bytes = std::int64_t{1} << 60;
    EXPECT_THROW(model.validate(), std::invalid_argument);
    model.layers[1].main.stream_weight_bytes = -1;
    EXPECT_THROW(model.validate(), std::invalid_argument);
}

TEST(ModelValidate, RejectsIdentitySkipSpatialMismatch) {
    // Identity skips alias the source's packed spike words, so the
    // whole CHW geometry must match, not just the channel count.
    auto model = tiny_conv_model();
    auto& conv = model.layers[0];
    conv.skip_src = -1;  // network input: 1ch, but 4x4 vs this 4x4...
    conv.skip_is_identity = true;
    ASSERT_EQ(conv.out_channels, 2);  // channel mismatch alone rejects
    EXPECT_THROW(model.validate(), std::invalid_argument);

    // Channel-matched but spatially mismatched source must also reject.
    auto spatial = tiny_conv_model();
    SnnLayer shrunk = spatial.layers[0];  // same 2 channels
    shrunk.label = "shrunk";
    shrunk.input = 0;
    shrunk.main.in_channels = 2;
    shrunk.main.weights.assign(static_cast<std::size_t>(2 * 2 * 9), 1);
    shrunk.main.stride = 2;
    shrunk.out_h = shrunk.out_w = 2;
    shrunk.in_h = shrunk.in_w = 4;
    shrunk.skip_src = 0;  // 2ch 4x4 source vs 2ch 2x2 output
    shrunk.skip_is_identity = true;
    spatial.layers.insert(spatial.layers.begin() + 1, shrunk);
    spatial.layers[2].input = 1;
    spatial.layers[2].main.in_features = 2 * 2 * 2;
    spatial.layers[2].main.weights.assign(static_cast<std::size_t>(2 * 2 * 2 * 2), 1);
    EXPECT_THROW(spatial.validate(), std::invalid_argument);
}

/// 3x8x8 input -> 3x3 conv (8 channels) -> stride-2 3x3 conv (16
/// channels, 4x4) with a stride-2 1x1 conv skip from the first conv ->
/// linear readout of 4 classes.
SnnModel strided_skip_model() {
    util::Rng rng(31);
    const auto conv = [&](std::int64_t ic, std::int64_t oc, std::int64_t kernel,
                          std::int64_t stride, std::int64_t padding) {
        Branch b;
        b.in_channels = ic;
        b.out_channels = oc;
        b.kernel = kernel;
        b.stride = stride;
        b.padding = padding;
        b.weights.resize(static_cast<std::size_t>(oc * ic * kernel * kernel));
        for (auto& w : b.weights) w = static_cast<std::int8_t>(rng.integer(-128, 127));
        b.gain.assign(static_cast<std::size_t>(oc), 256);
        b.bias.assign(static_cast<std::size_t>(oc), 0);
        return b;
    };
    SnnModel model;
    model.input_channels = 3;
    model.input_h = 8;
    model.input_w = 8;
    model.classes = 4;
    SnnLayer stem;
    stem.label = "stem";
    stem.main = conv(3, 8, 3, 1, 1);
    stem.out_channels = 8;
    stem.out_h = stem.out_w = stem.in_h = stem.in_w = 8;
    model.layers.push_back(stem);
    SnnLayer down;
    down.label = "down";
    down.input = 0;
    down.main = conv(8, 16, 3, 2, 1);
    down.skip_src = 0;
    down.skip = conv(8, 16, 1, 2, 0);
    down.out_channels = 16;
    down.out_h = down.out_w = 4;
    down.in_h = down.in_w = 8;
    model.layers.push_back(down);
    SnnLayer fc;
    fc.op = LayerOp::kLinear;
    fc.label = "fc";
    fc.input = 1;
    fc.spiking = false;
    fc.main.in_features = 16 * 4 * 4;
    fc.main.out_features = 4;
    fc.main.weights.assign(static_cast<std::size_t>(16 * 4 * 4 * 4), 1);
    fc.main.gain.assign(4, 256);
    fc.main.bias.assign(4, 0);
    fc.out_channels = 4;
    model.layers.push_back(fc);
    return model;
}

TEST(ModelValidate, EnginesRejectGeometryTheirKernelsWouldTrust) {
    const SnnModel good = strided_skip_model();
    const sim::SiaConfig sia_cfg;
    const auto program = core::SiaCompiler(sia_cfg).compile(good);
    EXPECT_NO_THROW(FunctionalEngine(good, {}));
    EXPECT_NO_THROW(sim::Sia(sia_cfg, good, program));

    struct Mutation {
        std::string what;
        std::function<void(SnnModel&)> apply;
    };
    const std::vector<Mutation> mutations = {
        // The event kernel would read past the skip's 4-channel weights
        // for the source's 8 channels.
        {"conv skip in_channels below its source's",
         [](SnnModel& m) {
             Branch& skip = m.layers[1].skip;
             skip.in_channels = 4;
             skip.weights.resize(static_cast<std::size_t>(16 * 4));
         }},
        // The readout loop would index past an empty readout.
        {"classes = 0", [](SnnModel& m) { m.classes = 0; }},
        {"classes unlike the readout width", [](SnnModel& m) { m.classes = 3; }},
        {"conv in_h unlike its source's out_h", [](SnnModel& m) { m.layers[1].in_h = 7; }},
        {"padding 7 on a 3x3 kernel", [](SnnModel& m) { m.layers[0].main.padding = 7; }},
        {"stride-1 skip on a stride-2 layer", [](SnnModel& m) { m.layers[1].skip.stride = 1; }},
        {"kernel larger than the padded input",
         [](SnnModel& m) {
             Branch& skip = m.layers[1].skip;
             skip.kernel = 11;
             skip.weights.resize(static_cast<std::size_t>(16 * 8 * 11 * 11));
         }},
        // Bounded before any product: no signed overflow on the way to
        // the weight-size check.
        {"hostile channel count",
         [](SnnModel& m) { m.layers[0].main.out_channels = std::int64_t{1} << 62; }},
        {"hostile kernel", [](SnnModel& m) { m.layers[1].skip.kernel = std::int64_t{1} << 40; }},
        {"hostile output size", [](SnnModel& m) { m.layers[1].out_h = std::int64_t{1} << 62; }},
        // Bytes a loaded file casts straight into the enums: each would
        // otherwise run as a linear layer, an IF neuron or a zero reset.
        {"op = 5", [](SnnModel& m) { m.layers[2].op = static_cast<LayerOp>(5); }},
        {"neuron = 9", [](SnnModel& m) { m.layers[0].neuron = static_cast<NeuronKind>(9); }},
        {"reset = 7", [](SnnModel& m) { m.layers[1].reset = static_cast<ResetMode>(7); }},
    };
    for (const Mutation& mutation : mutations) {
        SCOPED_TRACE(mutation.what);
        SnnModel bad = good;
        mutation.apply(bad);
        EXPECT_THROW(bad.validate(), std::invalid_argument);
        EXPECT_THROW(FunctionalEngine(bad, {}), std::invalid_argument);
        EXPECT_THROW(sim::Sia(sia_cfg, bad, program), std::invalid_argument);
    }
}

TEST(ModelOps, CountsSynapticOps) {
    const auto model = tiny_conv_model();
    // conv: 4*4 * 2 * 1 * 9 * 2 = 576; fc: 32*2*2 = 128.
    EXPECT_EQ(model.ops_per_timestep(), 576U + 128U);
}

// ---- ExitCriterion / ExitEvaluator margin-math edge cases ----

// std::span has no initializer_list constructor in C++20; materialize
// the readout row for the call.
ExitReason observe(ExitEvaluator& eval, std::initializer_list<std::int64_t> readout,
                   std::int64_t steps_done) {
    const std::vector<std::int64_t> row(readout);
    return eval.observe(row, steps_done);
}

TEST(ExitCriterion, ValidateRejectsMalformedFields) {
    EXPECT_NO_THROW((ExitCriterion{.margin = 10}).validate());
    EXPECT_NO_THROW(ExitCriterion{}.validate());  // disabled is fine
    EXPECT_THROW((ExitCriterion{.margin = -1}).validate(), std::invalid_argument);
    EXPECT_THROW((ExitCriterion{.margin = 10, .stable_checks = -1}).validate(),
                 std::invalid_argument);
    EXPECT_THROW((ExitCriterion{.margin = 10, .min_steps = 0}).validate(),
                 std::invalid_argument);
    EXPECT_THROW((ExitCriterion{.margin = 10, .hysteresis = 0}).validate(),
                 std::invalid_argument);
    EXPECT_THROW(
        (ExitCriterion{.margin = 10, .check_interval = 0}).validate(),
        std::invalid_argument);
}

TEST(ExitCriterion, EnabledAndEvaluationSchedule) {
    EXPECT_FALSE(ExitCriterion{}.enabled());
    EXPECT_TRUE((ExitCriterion{.margin = 1}).enabled());
    EXPECT_TRUE((ExitCriterion{.stable_checks = 2}).enabled());

    const ExitCriterion c{.margin = 1, .min_steps = 3, .check_interval = 2};
    EXPECT_FALSE(c.evaluates_at(1));
    EXPECT_FALSE(c.evaluates_at(2));
    EXPECT_TRUE(c.evaluates_at(3));
    EXPECT_FALSE(c.evaluates_at(4));
    EXPECT_TRUE(c.evaluates_at(5));
    EXPECT_EQ(c.next_eval_step(0), 3);
    EXPECT_EQ(c.next_eval_step(3), 5);  // strictly after the argument
    EXPECT_EQ(c.next_eval_step(4), 5);

    // Points past the int64 range saturate instead of overflowing.
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    const ExitCriterion far{.margin = 1, .min_steps = 3, .check_interval = kMax - 1};
    EXPECT_EQ(far.next_eval_step(3), kMax);
    EXPECT_EQ((ExitCriterion{.margin = 1, .check_interval = kMax}).next_eval_step(1), kMax);
    EXPECT_EQ((ExitCriterion{.margin = 1, .min_steps = kMax}).next_eval_step(5), kMax);
    EXPECT_EQ((ExitCriterion{.margin = 1, .min_steps = 2, .check_interval = kMax - 2})
                  .next_eval_step(2),
              kMax);
}

TEST(ExitEvaluator, SingleClassModelNeverExits) {
    // Margin needs a runner-up; with fewer than two classes there is
    // none, so the evaluator must stay silent forever.
    const ExitCriterion c{.margin = 1, .stable_checks = 1};
    ExitEvaluator eval(c, {});
    for (std::int64_t s = 1; s <= 16; ++s) {
        EXPECT_EQ(observe(eval, {100 * s}, s), ExitReason::kNone) << "step " << s;
    }
    ExitEvaluator empty(c, {});
    EXPECT_EQ(observe(empty, {}, 1), ExitReason::kNone);
}

TEST(ExitEvaluator, AllZeroReadoutAtStepOneIsATieNotAnExit) {
    // Before any spikes reach the readout every class sits at zero —
    // an exact top-2 tie, which must not count as margin or stability.
    const ExitCriterion c{.margin = 1, .stable_checks = 1};
    ExitEvaluator eval(c, {});
    EXPECT_EQ(observe(eval, {0, 0, 0, 0}, 1), ExitReason::kNone);
    EXPECT_EQ(observe(eval, {0, 0, 0, 0}, 2), ExitReason::kNone);
    // First decisive step fires margin (and would satisfy stability).
    EXPECT_EQ(observe(eval, {5, 0, 0, 0}, 3), ExitReason::kMargin);
}

TEST(ExitEvaluator, ExactTopTwoTieResetsBothStreaks) {
    // Hysteresis 2: one margin hit, then a tie, then another hit — the
    // tie must clear the streak so the second hit starts from scratch.
    const ExitCriterion c{.margin = 5, .hysteresis = 2};
    ExitEvaluator eval(c, {});
    EXPECT_EQ(observe(eval, {10, 0}, 1), ExitReason::kNone);   // streak 1
    EXPECT_EQ(observe(eval, {10, 10}, 2), ExitReason::kNone);  // tie: reset
    EXPECT_EQ(observe(eval, {20, 0}, 3), ExitReason::kNone);   // streak 1 again
    EXPECT_EQ(observe(eval, {30, 0}, 4), ExitReason::kMargin);

    // Stability streaks reset the same way — and a tie also clears the
    // remembered top class, so the post-tie observation can't chain
    // with the pre-tie one.
    const ExitCriterion s{.stable_checks = 2};
    ExitEvaluator stable(s, {});
    EXPECT_EQ(observe(stable, {3, 1}, 1), ExitReason::kNone);  // top=0, streak 1
    EXPECT_EQ(observe(stable, {4, 4}, 2), ExitReason::kNone);  // tie: reset
    EXPECT_EQ(observe(stable, {5, 4}, 3), ExitReason::kNone);  // top=0, streak 1
    EXPECT_EQ(observe(stable, {6, 4}, 4), ExitReason::kStable);
}

TEST(ExitEvaluator, MarginUsesFirstIndexWinsAndBaselineDelta) {
    // The evaluator judges the delta against its baseline (session
    // window semantics): a huge carried lead contributes nothing.
    const ExitCriterion c{.margin = 5};
    const std::vector<std::int64_t> carried = {1000, 0, 0};
    ExitEvaluator eval(c, carried);
    EXPECT_EQ(observe(eval, {1000, 0, 0}, 1), ExitReason::kNone);  // delta all-zero tie
    EXPECT_EQ(observe(eval, {1001, 0, 0}, 2), ExitReason::kNone);  // delta margin 1
    EXPECT_EQ(observe(eval, {1000, 6, 0}, 3), ExitReason::kMargin);  // class 1 leads by 6
}

TEST(ExitEvaluator, MinStepsFloorAndHysteresisWindow) {
    const ExitCriterion c{.margin = 1, .min_steps = 3, .hysteresis = 2};
    ExitEvaluator eval(c, {});
    // Decisive from the start, but steps 1-2 are below the floor and
    // must not even feed the streak.
    EXPECT_EQ(observe(eval, {9, 0}, 1), ExitReason::kNone);
    EXPECT_EQ(observe(eval, {9, 0}, 2), ExitReason::kNone);
    EXPECT_EQ(observe(eval, {9, 0}, 3), ExitReason::kNone);  // streak 1
    EXPECT_EQ(observe(eval, {9, 0}, 4), ExitReason::kMargin);  // streak 2
}

TEST(ExitEvaluator, MarginFiresBeforeStabilityWhenBothQualify) {
    const ExitCriterion c{.margin = 1, .stable_checks = 1};
    ExitEvaluator eval(c, {});
    EXPECT_EQ(observe(eval, {7, 0}, 1), ExitReason::kMargin);
}

}  // namespace
}  // namespace sia::snn
