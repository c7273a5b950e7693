// Integration tests: the cycle-accurate Sia simulator against the
// functional reference (bit-exactness = the co-verification contract),
// cycle accounting properties, controller trace over a real run.
#include <gtest/gtest.h>

#include "core/compiler.hpp"
#include "core/convert.hpp"
#include "core/deploy.hpp"
#include "nn/resnet.hpp"
#include "nn/vgg.hpp"
#include "snn/compute.hpp"
#include "snn/encoding.hpp"
#include "snn/engine.hpp"
#include "support.hpp"

namespace sia {
namespace {

/// Train-free converted model: random weights + warmed BN + fixed steps
/// are enough for bit-exactness checks (no accuracy semantics needed).
template <typename ModelT, typename ConfigT>
snn::SnnModel make_converted(ConfigT cfg, std::uint64_t seed, ModelT** out_model,
                             std::vector<std::unique_ptr<ModelT>>& keep_alive) {
    util::Rng rng(seed);
    auto model = std::make_unique<ModelT>(cfg, rng);
    // Warm BN stats and calibrate activations with random data.
    tensor::Tensor x(tensor::Shape{4, cfg.input_channels, cfg.input_size, cfg.input_size});
    for (std::int64_t i = 0; i < x.numel(); ++i) x.flat(i) = rng.uniform(0.0F, 1.0F);
    for (int rep = 0; rep < 3; ++rep) (void)model->forward(x, true);
    model->begin_activation_calibration();
    (void)model->forward(x, false);
    model->end_activation_calibration();
    model->enable_quantized_activations(4);
    const auto snn = core::AnnToSnnConverter().convert(model->ir());
    *out_model = model.get();
    keep_alive.push_back(std::move(model));
    return snn;
}

snn::SpikeTrain random_input(std::int64_t channels, std::int64_t size,
                             std::int64_t timesteps, std::uint64_t seed) {
    util::Rng rng(seed);
    tensor::Tensor img(tensor::Shape{1, channels, size, size});
    for (std::int64_t i = 0; i < img.numel(); ++i) img.flat(i) = rng.uniform(0.0F, 1.0F);
    return snn::encode_thermometer(img, timesteps);
}

TEST(SiaIntegration, BitExactVsFunctionalVgg) {
    std::vector<std::unique_ptr<nn::Vgg11>> keep;
    nn::Vgg11* raw = nullptr;
    nn::VggConfig cfg;
    cfg.width = 4;
    const auto model = make_converted(cfg, 11, &raw, keep);
    const auto input = random_input(3, 32, 6, 12);

    const core::DeployReport report = core::Deployer().deploy(model, input);
    EXPECT_TRUE(report.bit_exact) << report.mismatch;
    test::expect_same(report.hardware, report.functional);
}

TEST(SiaIntegration, BitExactVsFunctionalResNet) {
    std::vector<std::unique_ptr<nn::ResNet18>> keep;
    nn::ResNet18* raw = nullptr;
    nn::ResNetConfig cfg;
    cfg.width = 4;
    const auto model = make_converted(cfg, 21, &raw, keep);
    const auto input = random_input(3, 32, 5, 22);
    const core::DeployReport report = core::Deployer().deploy(model, input);
    EXPECT_TRUE(report.bit_exact) << report.mismatch;
}

TEST(SiaIntegration, BitExactAcrossNeuronAndResetModes) {
    nn::VggConfig cfg;
    cfg.width = 4;
    cfg.input_size = 16;
    for (const auto neuron : {snn::NeuronKind::kIf, snn::NeuronKind::kLif}) {
        for (const auto reset : {snn::ResetMode::kSubtract, snn::ResetMode::kZero}) {
            util::Rng rng(31);
            auto ann = std::make_unique<nn::Vgg11>(cfg, rng);
            tensor::Tensor x(tensor::Shape{2, 3, 16, 16});
            for (std::int64_t i = 0; i < x.numel(); ++i) x.flat(i) = rng.uniform(0.0F, 1.0F);
            (void)ann->forward(x, true);
            ann->begin_activation_calibration();
            (void)ann->forward(x, false);
            ann->end_activation_calibration();
            ann->enable_quantized_activations(2);
            core::ConvertOptions opts;
            opts.neuron = neuron;
            opts.reset = reset;
            const auto model = core::AnnToSnnConverter(opts).convert(ann->ir());
            const auto input = random_input(3, 16, 4, 32);
            const auto report = core::Deployer().deploy(model, input);
            EXPECT_TRUE(report.bit_exact)
                << "neuron=" << static_cast<int>(neuron)
                << " reset=" << static_cast<int>(reset) << ": " << report.mismatch;
        }
    }
}

TEST(SiaIntegration, CycleAccountingBasics) {
    std::vector<std::unique_ptr<nn::Vgg11>> keep;
    nn::Vgg11* raw = nullptr;
    nn::VggConfig cfg;
    cfg.width = 4;
    const auto model = make_converted(cfg, 41, &raw, keep);
    const auto input = random_input(3, 32, 4, 42);

    const sim::SiaConfig sia_cfg;
    const auto program = core::SiaCompiler(sia_cfg).compile(model);
    sim::Sia sia(sia_cfg, model, program);
    const auto res = sia.run(input);

    EXPECT_EQ(res.layer_stats.size(), model.layers.size());
    for (const auto& s : res.layer_stats) {
        EXPECT_GE(s.compute, 0);
        EXPECT_GT(s.total(), 0);
        EXPECT_EQ(s.overhead, sia_cfg.ps_layer_overhead_cycles);
    }
    EXPECT_GT(res.total_cycles(), 0);
    EXPECT_GT(res.total_ms(sia_cfg), 0.0);
    // Utilization is a fraction.
    EXPECT_GE(res.pe_utilization(sia_cfg), 0.0);
    EXPECT_LE(res.pe_utilization(sia_cfg), 1.0);
    // The FC layer rides MMIO and dominates (Table I property).
    const auto& fc = res.layer_stats.back();
    EXPECT_GT(fc.mmio, 0);
}

TEST(SiaIntegration, EventDrivenComputeScalesWithActivity) {
    // Denser input spikes => more compute cycles, same overhead.
    std::vector<std::unique_ptr<nn::Vgg11>> keep;
    nn::Vgg11* raw = nullptr;
    nn::VggConfig cfg;
    cfg.width = 4;
    cfg.input_size = 16;
    const auto model = make_converted(cfg, 51, &raw, keep);

    const sim::SiaConfig sia_cfg;
    const auto program = core::SiaCompiler(sia_cfg).compile(model);

    tensor::Tensor dark(tensor::Shape{1, 3, 16, 16});
    dark.fill(0.05F);
    tensor::Tensor bright(tensor::Shape{1, 3, 16, 16});
    bright.fill(0.9F);
    sim::Sia sia1(sia_cfg, model, program);
    const auto res_dark = sia1.run(snn::encode_thermometer(dark, 4));
    sim::Sia sia2(sia_cfg, model, program);
    const auto res_bright = sia2.run(snn::encode_thermometer(bright, 4));

    EXPECT_LT(res_dark.layer_stats[0].compute, res_bright.layer_stats[0].compute);
    EXPECT_EQ(res_dark.layer_stats[0].overhead, res_bright.layer_stats[0].overhead);
}

TEST(SiaIntegration, ControllerTraceShape) {
    std::vector<std::unique_ptr<nn::Vgg11>> keep;
    nn::Vgg11* raw = nullptr;
    nn::VggConfig cfg;
    cfg.width = 4;
    cfg.input_size = 16;
    const auto model = make_converted(cfg, 61, &raw, keep);
    const auto input = random_input(3, 16, 3, 62);

    const sim::SiaConfig sia_cfg;
    const auto program = core::SiaCompiler(sia_cfg).compile(model);
    sim::Sia sia(sia_cfg, model, program);
    (void)sia.run(input);
    const auto& ctrl = sia.controller();
    // One Init, one Done, one LoadConfig per layer, T ReadInputs per layer.
    EXPECT_EQ(ctrl.entries(sim::CtrlState::kInit), 1);
    EXPECT_EQ(ctrl.entries(sim::CtrlState::kDone), 1);
    EXPECT_EQ(ctrl.entries(sim::CtrlState::kLoadConfig),
              static_cast<std::int64_t>(model.layers.size()));
    EXPECT_EQ(ctrl.entries(sim::CtrlState::kReadInput),
              static_cast<std::int64_t>(model.layers.size()) * 3);
}

TEST(SiaIntegration, ProgramModelMismatchThrows) {
    std::vector<std::unique_ptr<nn::Vgg11>> keep;
    nn::Vgg11* raw = nullptr;
    nn::VggConfig cfg;
    cfg.width = 4;
    cfg.input_size = 16;
    const auto model = make_converted(cfg, 71, &raw, keep);
    sim::CompiledProgram empty;
    const sim::SiaConfig sia_cfg;
    EXPECT_THROW(sim::Sia(sia_cfg, model, empty), std::invalid_argument);
}

TEST(SiaIntegration, WeightImageThatDoesNotFitThrows) {
    std::vector<std::unique_ptr<nn::Vgg11>> keep;
    nn::Vgg11* raw = nullptr;
    nn::VggConfig cfg;
    cfg.width = 4;
    cfg.input_size = 16;
    const auto model = make_converted(cfg, 71, &raw, keep);
    cfg.width = 8;
    const auto other = make_converted(cfg, 72, &raw, keep);
    const sim::SiaConfig sia_cfg;
    const auto program = core::SiaCompiler(sia_cfg).compile(model);

    // An image of another model would be read out of bounds.
    EXPECT_THROW(snn::FunctionalEngine(model, {}, snn::compute::event_weights(other)),
                 std::invalid_argument);
    EXPECT_THROW(sim::Sia(sia_cfg, model, program, snn::compute::event_weights(other)),
                 std::invalid_argument);
    // A missing image is refused.
    EXPECT_THROW(snn::FunctionalEngine(model, {}, nullptr), std::invalid_argument);
    EXPECT_THROW(sim::Sia(sia_cfg, model, program, nullptr), std::invalid_argument);
    // One image serves both executors.
    const auto image = snn::compute::event_weights(model);
    EXPECT_NO_THROW(snn::FunctionalEngine(model, {}, image));
    EXPECT_NO_THROW(sim::Sia(sia_cfg, model, program, image));
}

}  // namespace
}  // namespace sia
