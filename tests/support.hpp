// Shared test support: the seeded model builders and input generators
// the suites draw from, and the one result comparator every
// equivalence test (engine, Sia, cluster, serving backends) runs.
//
// expect_same() is the oracle refactors are judged by, so it checks
// every output field a run reports; a call site narrows it only by
// naming what it skips (Checks::history) and widens it by asking for
// the modeled cycle stats (Checks::cycles).
#pragma once

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/backend.hpp"
#include "sim/cost.hpp"
#include "sim/sia.hpp"
#include "snn/engine.hpp"
#include "snn/exit.hpp"
#include "snn/model.hpp"
#include "snn/spike.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace sia::test {

// ---- models ----

/// `depth` 3x3 conv layers of `width` channels over a 2x6x6 input, then
/// a 4-class non-spiking fc readout. Weights, gains and biases are drawn
/// from `seed` layer by layer, so a given (seed, depth, width) always
/// yields the same bytes.
inline snn::SnnModel conv_model(std::uint64_t seed, std::int64_t depth = 3,
                                std::int64_t width = 4) {
    util::Rng rng(seed);
    snn::SnnModel model;
    model.input_channels = 2;
    model.input_h = 6;
    model.input_w = 6;

    std::int64_t in_c = model.input_channels;
    for (std::int64_t d = 0; d < depth; ++d) {
        snn::SnnLayer layer;
        layer.op = snn::LayerOp::kConv;
        layer.label = "conv" + std::to_string(d);
        layer.input = static_cast<int>(d) - 1;
        auto& b = layer.main;
        b.in_channels = in_c;
        b.out_channels = width;
        b.kernel = 3;
        b.stride = 1;
        b.padding = 1;
        b.weights.resize(static_cast<std::size_t>(in_c * width * 9));
        for (auto& w : b.weights) w = static_cast<std::int8_t>(rng.integer(-127, 127));
        b.gain.resize(static_cast<std::size_t>(width));
        b.bias.resize(static_cast<std::size_t>(width));
        for (auto& g : b.gain) g = static_cast<std::int16_t>(rng.integer(50, 2000));
        for (auto& h : b.bias) h = static_cast<std::int16_t>(rng.integer(-100, 100));
        layer.out_channels = width;
        layer.out_h = 6;
        layer.out_w = 6;
        layer.in_h = 6;
        layer.in_w = 6;
        model.layers.push_back(std::move(layer));
        in_c = width;
    }

    snn::SnnLayer fc;
    fc.op = snn::LayerOp::kLinear;
    fc.label = "fc";
    fc.input = static_cast<int>(depth) - 1;
    fc.spiking = false;
    fc.main.in_features = width * 6 * 6;
    fc.main.out_features = 4;
    fc.main.weights.resize(static_cast<std::size_t>(fc.main.in_features * 4));
    for (auto& w : fc.main.weights) w = static_cast<std::int8_t>(rng.integer(-64, 64));
    fc.main.gain.assign(4, 256);
    fc.main.bias.assign(4, 0);
    fc.out_channels = 4;
    model.layers.push_back(std::move(fc));
    model.classes = 4;
    model.validate();
    return model;
}

/// 1x4x4 input -> 12-neuron spiking linear layer -> 4-class readout.
inline snn::SnnModel mlp_model(std::uint64_t seed) {
    util::Rng rng(seed);
    snn::SnnModel model;
    model.input_channels = 1;
    model.input_h = 4;
    model.input_w = 4;

    snn::SnnLayer hidden;
    hidden.op = snn::LayerOp::kLinear;
    hidden.label = "hidden";
    hidden.input = -1;
    hidden.spiking = true;
    hidden.main.in_features = 16;
    hidden.main.out_features = 12;
    hidden.main.weights.resize(16 * 12);
    for (auto& w : hidden.main.weights) w = static_cast<std::int8_t>(rng.integer(-127, 127));
    hidden.main.gain.resize(12);
    hidden.main.bias.resize(12);
    for (auto& g : hidden.main.gain) g = static_cast<std::int16_t>(rng.integer(100, 500));
    for (auto& h : hidden.main.bias) h = static_cast<std::int16_t>(rng.integer(-50, 50));
    hidden.out_channels = 12;
    model.layers.push_back(std::move(hidden));

    snn::SnnLayer readout;
    readout.op = snn::LayerOp::kLinear;
    readout.label = "readout";
    readout.input = 0;
    readout.spiking = false;
    readout.main.in_features = 12;
    readout.main.out_features = 4;
    readout.main.weights.resize(12 * 4);
    for (auto& w : readout.main.weights) w = static_cast<std::int8_t>(rng.integer(-64, 64));
    readout.main.gain.assign(4, 256);
    readout.main.bias.assign(4, 0);
    readout.out_channels = 4;
    model.layers.push_back(std::move(readout));
    model.classes = 4;
    model.validate();
    return model;
}

// ---- inputs ----

/// `count` trains of `timesteps` frames shaped like the model's input,
/// every bit set with probability 0.3, drawn in order from one `seed`.
inline std::vector<snn::SpikeTrain> random_batch(const snn::SnnModel& model,
                                                 std::size_t count, std::int64_t timesteps,
                                                 std::uint64_t seed) {
    std::vector<snn::SpikeTrain> batch;
    batch.reserve(count);
    util::Rng rng(seed);
    for (std::size_t i = 0; i < count; ++i) {
        snn::SpikeTrain train(static_cast<std::size_t>(timesteps),
                              snn::SpikeMap(model.input_channels, model.input_h,
                                            model.input_w));
        for (auto& frame : train) {
            for (std::int64_t j = 0; j < frame.size(); ++j) {
                frame.set_flat(j, rng.bernoulli(0.3));
            }
        }
        batch.push_back(std::move(train));
    }
    return batch;
}

/// One train: the first of random_batch(model, 1, timesteps, seed).
inline snn::SpikeTrain random_train(const snn::SnnModel& model, std::int64_t timesteps,
                                    std::uint64_t seed) {
    return std::move(random_batch(model, 1, timesteps, seed).front());
}

/// `count` [1, C, H, W] images of uniform [0, 1) pixels, drawn in order
/// from one `seed`.
inline std::vector<tensor::Tensor> random_images(const snn::SnnModel& model,
                                                 std::size_t count, std::uint64_t seed) {
    std::vector<tensor::Tensor> images;
    util::Rng rng(seed);
    for (std::size_t i = 0; i < count; ++i) {
        tensor::Tensor img(
            tensor::Shape{1, model.input_channels, model.input_h, model.input_w});
        for (std::int64_t j = 0; j < img.numel(); ++j) img.flat(j) = rng.uniform();
        images.push_back(std::move(img));
    }
    return images;
}

/// One image: the first of random_images(model, 1, seed).
inline tensor::Tensor random_image(const snn::SnnModel& model, std::uint64_t seed) {
    return std::move(random_images(model, 1, seed).front());
}

/// Borrowing requests over `batch` (which must outlive them).
inline std::vector<core::Request> view_requests(const std::vector<snn::SpikeTrain>& batch) {
    std::vector<core::Request> requests;
    requests.reserve(batch.size());
    for (const auto& t : batch) requests.push_back(core::Request::view_train(t));
    return requests;
}

/// Enabled but unreachable: the item runs its full train.
inline snn::ExitCriterion unreachable_exit() {
    return {.margin = 1'000'000'000, .stable_checks = 0, .min_steps = 1,
            .hysteresis = 1, .check_interval = 1};
}

/// Waits (bounded) for a predicate that another thread flips.
template <typename Pred>
bool eventually(Pred pred, std::chrono::milliseconds budget = std::chrono::seconds(2)) {
    const auto deadline = std::chrono::steady_clock::now() + budget;
    while (!pred()) {
        if (std::chrono::steady_clock::now() > deadline) return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
}

// ---- the oracle ----

/// The compared fields of one result, read alike from snn::RunResult,
/// sim::SiaRunResult and core::Response.
struct ResultView {
    const std::vector<std::vector<std::int64_t>>& logits_per_step;
    const std::vector<std::int64_t>& readout;  ///< Response::logits
    const std::vector<std::int64_t>& spike_counts;
    const std::vector<std::int64_t>& neuron_counts;
    std::int64_t timesteps;
    std::int64_t steps_used;  ///< Response's alias of timesteps
    std::int64_t steps_offered;
    snn::ExitReason exit_reason;
    const std::vector<sim::LayerCycleStats>* layer_stats;  ///< null: no cycle model
    std::int64_t total_cycles;
};

inline ResultView view(const snn::RunResult& r) {
    return {r.logits_per_step, r.readout,     r.spike_counts,
            r.neuron_counts,   r.timesteps,   /*steps_used=*/r.timesteps,
            r.steps_offered,   r.exit_reason, /*layer_stats=*/nullptr,
            /*total_cycles=*/0};
}

inline ResultView view(const sim::SiaRunResult& r) {
    ResultView v = view(static_cast<const snn::RunResult&>(r));
    v.layer_stats = &r.layer_stats;
    v.total_cycles = r.total_cycles();
    return v;
}

inline ResultView view(const core::Response& r) {
    return {r.logits_per_step, r.logits,      r.spike_counts,
            r.neuron_counts,   r.timesteps,   r.steps_used,
            r.steps_offered,   r.exit_reason, &r.layer_stats,
            r.total_cycles()};
}

/// What expect_same() compares beyond the fields it always checks
/// (readout, spike and neuron counts, timesteps and steps_used,
/// steps_offered, exit_reason).
struct Checks {
    /// logits_per_step. Skip it only where a side records no readout
    /// history (EngineConfig::record_readout_history off).
    bool history = true;
    /// All nine LayerCycleStats fields of every layer, and each side's
    /// total_cycles(). Ask for it where both sides model cycles the same
    /// way; a channel-partitioned cluster sums per-shard stats instead.
    bool cycles = false;
};

/// Bit-identity of two results: `got` must match `want` field by field.
template <typename Got, typename Want>
void expect_same(const Got& got_result, const Want& want_result, Checks checks = {}) {
    const ResultView got = view(got_result);
    const ResultView want = view(want_result);
    if (checks.history) {
        EXPECT_EQ(got.logits_per_step, want.logits_per_step);
    }
    EXPECT_EQ(got.readout, want.readout);
    EXPECT_EQ(got.spike_counts, want.spike_counts);
    EXPECT_EQ(got.neuron_counts, want.neuron_counts);
    EXPECT_EQ(got.timesteps, want.timesteps);
    EXPECT_EQ(got.steps_used, got.timesteps);
    EXPECT_EQ(want.steps_used, want.timesteps);
    EXPECT_EQ(got.steps_offered, want.steps_offered);
    EXPECT_EQ(got.exit_reason, want.exit_reason);
    if (!checks.cycles) return;

    ASSERT_NE(got.layer_stats, nullptr) << "cycles asked of a result without a cycle model";
    ASSERT_NE(want.layer_stats, nullptr) << "cycles asked of a result without a cycle model";
    ASSERT_FALSE(want.layer_stats->empty()) << "cycles asked of a result without cycle stats";
    ASSERT_EQ(got.layer_stats->size(), want.layer_stats->size());
    for (std::size_t l = 0; l < want.layer_stats->size(); ++l) {
        SCOPED_TRACE("layer " + std::to_string(l));
        const sim::LayerCycleStats& a = (*got.layer_stats)[l];
        const sim::LayerCycleStats& b = (*want.layer_stats)[l];
        EXPECT_EQ(a.label, b.label);
        EXPECT_EQ(a.compute, b.compute);
        EXPECT_EQ(a.aggregate, b.aggregate);
        EXPECT_EQ(a.dma, b.dma);
        EXPECT_EQ(a.mmio, b.mmio);
        EXPECT_EQ(a.overhead, b.overhead);
        EXPECT_EQ(a.input_spike_events, b.input_spike_events);
        EXPECT_EQ(a.event_additions, b.event_additions);
        EXPECT_EQ(a.dense_ops, b.dense_ops);
    }
    // With every layer equal, the totals are equal exactly when each
    // side's total_cycles() sums its own layers.
    const auto layer_sum = [](const std::vector<sim::LayerCycleStats>& layers) {
        std::int64_t sum = 0;
        for (const auto& s : layers) sum += s.total();
        return sum;
    };
    EXPECT_EQ(got.total_cycles, layer_sum(*got.layer_stats));
    EXPECT_EQ(want.total_cycles, layer_sum(*want.layer_stats));
}

}  // namespace sia::test
