// Google-benchmark microbenchmarks of the hot paths: PE segment
// accumulation, aggregation arithmetic, event-driven conv psum, neuron
// update, thermometer encoding, and a full functional-engine step.
#include <benchmark/benchmark.h>

#include <array>

#include "sim/aggregation.hpp"
#include "sim/pe.hpp"
#include "snn/compute.hpp"
#include "snn/encoding.hpp"
#include "snn/engine.hpp"
#include "util/rng.hpp"

namespace {

using namespace sia;

void BM_PeSegment(benchmark::State& state) {
    sim::Pe pe;
    const std::array<std::uint8_t, 3> spikes = {1, 0, 1};
    const std::array<std::int8_t, 3> weights = {12, -7, 3};
    for (auto _ : state) {
        pe.begin_window();
        benchmark::DoNotOptimize(pe.accumulate_segment(spikes, weights));
        benchmark::DoNotOptimize(pe.emit());
    }
}
BENCHMARK(BM_PeSegment);

void BM_AggregationNeuron(benchmark::State& state) {
    std::int16_t membrane = 0;
    for (auto _ : state) {
        const std::int16_t current = sim::AggregationCore::batch_norm(1234, 300, -12, 8);
        const auto update = sim::AggregationCore::activate(
            membrane, current, 256, false, 4, snn::ResetMode::kSubtract);
        membrane = update.new_potential;
        benchmark::DoNotOptimize(membrane);
    }
}
BENCHMARK(BM_AggregationNeuron);

snn::Branch make_branch(std::int64_t ic, std::int64_t oc, util::Rng& rng) {
    snn::Branch b;
    b.in_channels = ic;
    b.out_channels = oc;
    b.kernel = 3;
    b.stride = 1;
    b.padding = 1;
    b.weights.resize(static_cast<std::size_t>(ic * oc * 9));
    for (auto& w : b.weights) w = static_cast<std::int8_t>(rng.integer(-127, 127));
    b.gain.assign(static_cast<std::size_t>(oc), 300);
    b.bias.assign(static_cast<std::size_t>(oc), 0);
    return b;
}

void BM_ConvPsum(benchmark::State& state) {
    const auto channels = state.range(0);
    util::Rng rng(1);
    const auto branch = make_branch(channels, 64, rng);
    const auto wt = snn::compute::block_conv(branch);
    snn::SpikeMap in(channels, 16, 16);
    for (std::int64_t i = 0; i < in.size(); ++i) in.set_flat(i, rng.bernoulli(0.15));
    std::vector<std::int32_t> psum(static_cast<std::size_t>(64 * 16 * 16));
    snn::compute::SpikeIndex index;
    const std::int64_t units = snn::compute::conv_event_blocks(64) * 16 * 16;
    for (auto _ : state) {
        index.build(in);
        snn::compute::conv_psum_event(branch, wt, index, 16, 16, 0, units, psum);
        benchmark::DoNotOptimize(psum.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * in.count() * 9 * 64);
}
BENCHMARK(BM_ConvPsum)->Arg(16)->Arg(64);

void BM_Encode(benchmark::State& state) {
    util::Rng rng(2);
    tensor::Tensor img(tensor::Shape{1, 3, 32, 32});
    for (std::int64_t i = 0; i < img.numel(); ++i) img.flat(i) = rng.uniform(0.0F, 1.0F);
    for (auto _ : state) {
        benchmark::DoNotOptimize(snn::encode_thermometer(img, 8));
    }
}
BENCHMARK(BM_Encode);

snn::SnnModel micro_model() {
    util::Rng rng(3);
    snn::SnnModel model;
    model.input_channels = 3;
    model.input_h = 16;
    model.input_w = 16;
    model.classes = 16;
    snn::SnnLayer conv;
    conv.op = snn::LayerOp::kConv;
    conv.label = "c";
    conv.input = -1;
    conv.main = make_branch(3, 16, rng);
    conv.out_channels = 16;
    conv.out_h = 16;
    conv.out_w = 16;
    conv.in_h = 16;
    conv.in_w = 16;
    model.layers.push_back(conv);
    return model;
}

void BM_EngineStep(benchmark::State& state) {
    const auto model = micro_model();
    snn::FunctionalEngine engine(model);
    util::Rng rng(4);
    snn::SpikeMap input(3, 16, 16);
    for (std::int64_t i = 0; i < input.size(); ++i) input.set_flat(i, rng.bernoulli(0.2));
    for (auto _ : state) {
        engine.step(input);
        benchmark::DoNotOptimize(engine.spike_count(0));
    }
}
BENCHMARK(BM_EngineStep);

}  // namespace

BENCHMARK_MAIN();
