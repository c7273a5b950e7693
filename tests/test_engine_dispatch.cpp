// Dense-gather vs scatter kernel equivalence, the FunctionalEngine's
// density-adaptive dispatch, and the vector-vs-scalar fire stage.
//
// The load-bearing properties: (1) conv_psum/linear_psum and their
// *_scatter forms perform the same multiset of exact int32 additions,
// so psums — and therefore spikes, membranes and logits — are
// bit-identical no matter which path (or per-step mixture of paths)
// runs; (2) the fused SoA fire kernels (compute::aggregate_fire_*)
// execute the same util/fixed_point lane recipe as the scalar
// aggregate()/update_neuron() loop, so the fire paths are bit-identical
// too. The matrix here sweeps densities {0, 1 spike, 5%, 50%, 100%} x
// stride/padding variants x identity/conv skip routing x IF/LIF
// neurons x subtract/zero reset x every dispatch x fire-path
// combination, on both word-aligned and odd ("tail") neuron counts.
//
// Intra-inference tiling (the last section) must leave every one of
// those observables unchanged: a TeamLoan-tiled engine is compared
// step by step against the serial engine on full-width VGG-11 and
// ResNet-18 shapes, across neurons, resets, dispatch modes, team sizes,
// session windows and early exit, plus the fallbacks (a claimed team,
// a throwing tile, a threaded server lane).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/batch_runner.hpp"
#include "core/server.hpp"
#include "snn/compute.hpp"
#include "snn/engine.hpp"
#include "snn/model.hpp"
#include "snn/spike.hpp"
#include "snn/tile_team.hpp"
#include "util/rng.hpp"

namespace sia::snn {
namespace {

SpikeMap random_map(std::int64_t c, std::int64_t h, std::int64_t w, double density,
                    util::Rng& rng) {
    SpikeMap m(c, h, w);
    if (density >= 1.0) {
        for (std::int64_t i = 0; i < m.size(); ++i) m.set_flat(i, true);
    } else if (density > 0.0) {
        for (std::int64_t i = 0; i < m.size(); ++i) m.set_flat(i, rng.bernoulli(density));
    }
    return m;
}

SpikeMap single_spike_map(std::int64_t c, std::int64_t h, std::int64_t w,
                          std::int64_t flat) {
    SpikeMap m(c, h, w);
    m.set_flat(flat, true);
    return m;
}

Branch random_conv_branch(std::int64_t ic, std::int64_t oc, std::int64_t kernel,
                          std::int64_t stride, std::int64_t padding, util::Rng& rng) {
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
}

// ---- Kernel-level equivalence ----

TEST(ScatterKernels, ConvPsumMatrixMatchesGather) {
    util::Rng rng(101);
    const std::int64_t ic = 3;
    const std::int64_t oc = 4;
    const std::int64_t in_h = 7;
    const std::int64_t in_w = 5;
    for (const std::int64_t kernel : {1L, 3L}) {
        for (const std::int64_t stride : {1L, 2L}) {
            for (const std::int64_t padding : {0L, 1L}) {
                const std::int64_t out_h = (in_h + 2 * padding - kernel) / stride + 1;
                const std::int64_t out_w = (in_w + 2 * padding - kernel) / stride + 1;
                if (out_h <= 0 || out_w <= 0) continue;
                const Branch b = random_conv_branch(ic, oc, kernel, stride, padding, rng);
                const auto wt = compute::transpose_conv(b);
                std::vector<SpikeMap> cases;
                for (const double d : {0.0, 0.05, 0.5, 1.0}) {
                    cases.push_back(random_map(ic, in_h, in_w, d, rng));
                }
                cases.push_back(single_spike_map(ic, in_h, in_w, 0));
                cases.push_back(single_spike_map(ic, in_h, in_w, ic * in_h * in_w - 1));
                for (const SpikeMap& in : cases) {
                    std::vector<std::int32_t> gather(
                        static_cast<std::size_t>(out_h * out_w * oc), -1);
                    std::vector<std::int32_t> scatter(
                        static_cast<std::size_t>(out_h * out_w * oc), 7);
                    compute::conv_psum(b, wt, in, out_h, out_w, gather);
                    compute::conv_psum_scatter(b, wt, in, out_h, out_w, scatter);
                    EXPECT_EQ(gather, scatter)
                        << "k=" << kernel << " s=" << stride << " p=" << padding
                        << " spikes=" << in.count();
                }
            }
        }
    }
}

TEST(ScatterKernels, LinearPsumMatchesGather) {
    util::Rng rng(103);
    Branch b;
    b.in_features = 130;  // straddles two packed words + a tail
    b.out_features = 11;
    b.weights.resize(static_cast<std::size_t>(b.in_features * b.out_features));
    for (auto& w : b.weights) w = static_cast<std::int8_t>(rng.integer(-128, 127));
    b.gain.assign(static_cast<std::size_t>(b.out_features), 256);
    b.bias.assign(static_cast<std::size_t>(b.out_features), 0);
    const auto wt = compute::transpose_linear(b);

    std::vector<SpikeMap> cases;
    for (const double d : {0.0, 0.05, 0.5, 1.0}) {
        cases.push_back(random_map(1, 1, b.in_features, d, rng));
    }
    cases.push_back(single_spike_map(1, 1, b.in_features, 64));
    for (const SpikeMap& in : cases) {
        std::vector<std::int32_t> gather(static_cast<std::size_t>(b.out_features), -1);
        std::vector<std::int32_t> scatter(static_cast<std::size_t>(b.out_features), 7);
        compute::linear_psum(b, wt, in, gather);
        compute::linear_psum_scatter(b, wt, in, scatter);
        EXPECT_EQ(gather, scatter) << "spikes=" << in.count();
    }
}

// ---- Engine-level equivalence matrix ----

/// conv stem -> residual block (identity skip) -> strided downsample
/// (conv skip) -> spiking FC -> readout. Exercises every dispatch site:
/// main conv, skip conv, linear, and the identity-skip fast path.
SnnModel matrix_model(NeuronKind neuron, ResetMode reset, util::Rng& rng) {
    SnnModel model;
    model.input_channels = 3;
    model.input_h = 8;
    model.input_w = 8;
    model.classes = 4;

    const auto tune = [&](SnnLayer& l) {
        l.neuron = neuron;
        l.reset = reset;
        l.leak_shift = 3;
    };

    SnnLayer stem;
    stem.op = LayerOp::kConv;
    stem.label = "stem";
    stem.input = -1;
    stem.main = random_conv_branch(3, 8, 3, 1, 1, rng);
    stem.out_channels = 8;
    stem.out_h = stem.out_w = 8;
    stem.in_h = stem.in_w = 8;
    tune(stem);
    model.layers.push_back(stem);

    SnnLayer res;
    res.op = LayerOp::kConv;
    res.label = "res";
    res.input = 0;
    res.main = random_conv_branch(8, 8, 3, 1, 1, rng);
    res.skip_src = 0;
    res.skip_is_identity = true;
    res.identity_skip.charge = 120;
    res.out_channels = 8;
    res.out_h = res.out_w = 8;
    res.in_h = res.in_w = 8;
    tune(res);
    model.layers.push_back(res);

    SnnLayer down;
    down.op = LayerOp::kConv;
    down.label = "down";
    down.input = 1;
    down.main = random_conv_branch(8, 16, 3, 2, 1, rng);
    down.skip_src = 1;
    down.skip_is_identity = false;
    down.skip = random_conv_branch(8, 16, 1, 2, 0, rng);
    down.out_channels = 16;
    down.out_h = down.out_w = 4;
    down.in_h = down.in_w = 8;
    tune(down);
    model.layers.push_back(down);

    SnnLayer fc;
    fc.op = LayerOp::kLinear;
    fc.label = "fc";
    fc.input = 2;
    fc.main.in_features = 16 * 4 * 4;
    fc.main.out_features = 10;
    fc.main.weights.resize(static_cast<std::size_t>(fc.main.in_features * 10));
    for (auto& w : fc.main.weights) w = static_cast<std::int8_t>(rng.integer(-128, 127));
    fc.main.gain.assign(10, 256);
    fc.main.bias.assign(10, 0);
    fc.out_channels = 10;
    tune(fc);
    model.layers.push_back(fc);

    SnnLayer readout;
    readout.op = LayerOp::kLinear;
    readout.label = "readout";
    readout.input = 3;
    readout.spiking = false;
    readout.main.in_features = 10;
    readout.main.out_features = 4;
    readout.main.weights.resize(40);
    for (auto& w : readout.main.weights) {
        w = static_cast<std::int8_t>(rng.integer(-128, 127));
    }
    readout.main.gain.assign(4, 256);
    readout.main.bias.assign(4, 0);
    readout.out_channels = 4;
    model.layers.push_back(readout);
    return model;
}

/// As matrix_model but with awkward layer sizes that exercise the fused
/// kernels' 64-lane tail handling: 125 neurons (one full spike word +
/// a 61-bit tail, channel boundaries mid-word since the plane is 25),
/// 63 neurons (a single sub-word map), a 13-neuron spiking FC. Same
/// routing coverage: identity skip, conv skip, spiking FC, readout.
SnnModel tail_model(NeuronKind neuron, ResetMode reset, util::Rng& rng) {
    SnnModel model;
    model.input_channels = 3;
    model.input_h = 5;
    model.input_w = 5;
    model.classes = 3;

    const auto tune = [&](SnnLayer& l) {
        l.neuron = neuron;
        l.reset = reset;
        l.leak_shift = 3;
    };

    SnnLayer stem;
    stem.op = LayerOp::kConv;
    stem.label = "stem";
    stem.input = -1;
    stem.main = random_conv_branch(3, 5, 3, 1, 1, rng);
    stem.out_channels = 5;
    stem.out_h = stem.out_w = 5;
    stem.in_h = stem.in_w = 5;
    tune(stem);
    model.layers.push_back(stem);

    SnnLayer res;
    res.op = LayerOp::kConv;
    res.label = "res";
    res.input = 0;
    res.main = random_conv_branch(5, 5, 3, 1, 1, rng);
    res.skip_src = 0;
    res.skip_is_identity = true;
    res.identity_skip.charge = 120;
    res.out_channels = 5;
    res.out_h = res.out_w = 5;
    res.in_h = res.in_w = 5;
    tune(res);
    model.layers.push_back(res);

    SnnLayer down;
    down.op = LayerOp::kConv;
    down.label = "down";
    down.input = 1;
    down.main = random_conv_branch(5, 7, 3, 2, 1, rng);
    down.skip_src = 1;
    down.skip_is_identity = false;
    down.skip = random_conv_branch(5, 7, 1, 2, 0, rng);
    down.out_channels = 7;
    down.out_h = down.out_w = 3;
    down.in_h = down.in_w = 5;
    tune(down);
    model.layers.push_back(down);

    SnnLayer fc;
    fc.op = LayerOp::kLinear;
    fc.label = "fc";
    fc.input = 2;
    fc.main.in_features = 7 * 3 * 3;
    fc.main.out_features = 13;
    fc.main.weights.resize(static_cast<std::size_t>(fc.main.in_features * 13));
    for (auto& w : fc.main.weights) w = static_cast<std::int8_t>(rng.integer(-128, 127));
    fc.main.gain.assign(13, 256);
    fc.main.bias.assign(13, 0);
    fc.out_channels = 13;
    tune(fc);
    model.layers.push_back(fc);

    SnnLayer readout;
    readout.op = LayerOp::kLinear;
    readout.label = "readout";
    readout.input = 3;
    readout.spiking = false;
    readout.main.in_features = 13;
    readout.main.out_features = 3;
    readout.main.weights.resize(39);
    for (auto& w : readout.main.weights) {
        w = static_cast<std::int8_t>(rng.integer(-128, 127));
    }
    readout.main.gain.assign(3, 256);
    readout.main.bias.assign(3, 0);
    readout.out_channels = 3;
    model.layers.push_back(readout);
    return model;
}

/// Conv-skip layer on a channel-uniform plane (8x8 = exactly one
/// 64-neuron word per channel): the fused kernels then take the
/// per-word coefficient-broadcast fast path for BOTH the main and the
/// skip aggregate (kUniform + conv skip), which no other model in this
/// file reaches — matrix_model's conv skip has plane 16, tail_model's
/// plane 9.
SnnModel uniform_skip_model(NeuronKind neuron, ResetMode reset, util::Rng& rng) {
    SnnModel model;
    model.input_channels = 3;
    model.input_h = 8;
    model.input_w = 8;
    model.classes = 3;

    const auto tune = [&](SnnLayer& l) {
        l.neuron = neuron;
        l.reset = reset;
        l.leak_shift = 3;
    };

    SnnLayer stem;
    stem.op = LayerOp::kConv;
    stem.label = "stem";
    stem.input = -1;
    stem.main = random_conv_branch(3, 4, 3, 1, 1, rng);
    stem.out_channels = 4;
    stem.out_h = stem.out_w = 8;
    stem.in_h = stem.in_w = 8;
    tune(stem);
    model.layers.push_back(stem);

    SnnLayer proj;
    proj.op = LayerOp::kConv;
    proj.label = "proj";
    proj.input = 0;
    proj.main = random_conv_branch(4, 6, 3, 1, 1, rng);
    proj.skip_src = 0;
    proj.skip_is_identity = false;
    proj.skip = random_conv_branch(4, 6, 1, 1, 0, rng);
    proj.out_channels = 6;
    proj.out_h = proj.out_w = 8;
    proj.in_h = proj.in_w = 8;
    tune(proj);
    model.layers.push_back(proj);

    SnnLayer readout;
    readout.op = LayerOp::kLinear;
    readout.label = "readout";
    readout.input = 1;
    readout.spiking = false;
    readout.main.in_features = 6 * 8 * 8;
    readout.main.out_features = 3;
    readout.main.weights.resize(static_cast<std::size_t>(6 * 8 * 8 * 3));
    for (auto& w : readout.main.weights) {
        w = static_cast<std::int8_t>(rng.integer(-128, 127));
    }
    readout.main.gain.assign(3, 256);
    readout.main.bias.assign(3, 0);
    readout.out_channels = 3;
    model.layers.push_back(readout);
    return model;
}

SpikeTrain matrix_train(const SnnModel& model, double density, bool single_spike,
                        util::Rng& rng) {
    SpikeTrain train;
    for (std::int64_t t = 0; t < 6; ++t) {
        if (single_spike) {
            train.push_back(single_spike_map(
                model.input_channels, model.input_h, model.input_w,
                rng.integer(0, model.input_channels * model.input_h * model.input_w - 1)));
        } else {
            train.push_back(
                random_map(model.input_channels, model.input_h, model.input_w, density, rng));
        }
    }
    return train;
}

void expect_same_run(const SnnModel& model, const SpikeTrain& train) {
    // Reference: dense gather + scalar fire (the pre-vectorization
    // engine). Every dispatch x fire-path combination must match it.
    struct Variant {
        const char* name;
        EngineConfig config;
    };
    const std::vector<Variant> variants = {
        {"dense/vector", {.dispatch = DispatchMode::kDense}},
        {"scatter/scalar",
         {.dispatch = DispatchMode::kScatter, .fire = FirePath::kScalar}},
        {"scatter/vector", {.dispatch = DispatchMode::kScatter}},
        {"adaptive/scalar", {.fire = FirePath::kScalar}},
        {"adaptive/vector", {}},
    };
    const EngineConfig reference_config{.dispatch = DispatchMode::kDense,
                                        .fire = FirePath::kScalar};
    FunctionalEngine reference(model, reference_config);
    std::vector<std::unique_ptr<FunctionalEngine>> engines;
    for (const Variant& v : variants) {
        engines.push_back(std::make_unique<FunctionalEngine>(model, v.config));
    }

    // Step-level comparison so a divergence pinpoints its first timestep.
    for (std::size_t t = 0; t < train.size(); ++t) {
        reference.step(train[t]);
        for (std::size_t e = 0; e < engines.size(); ++e) {
            FunctionalEngine& engine = *engines[e];
            engine.step(train[t]);
            for (std::size_t l = 0; l < model.layers.size(); ++l) {
                ASSERT_TRUE(reference.layer_spikes(l) == engine.layer_spikes(l))
                    << variants[e].name << " t=" << t << " layer=" << l;
                const auto mr = reference.membrane(l);
                const auto me = engine.membrane(l);
                ASSERT_TRUE(std::equal(mr.begin(), mr.end(), me.begin(), me.end()))
                    << variants[e].name << " t=" << t << " layer=" << l;
            }
            ASSERT_EQ(reference.readout(), engine.readout())
                << variants[e].name << " t=" << t;
        }
    }

    // Whole-run results (fresh engines through run()).
    const RunResult ref = run_snn(model, train, reference_config);
    for (const Variant& v : variants) {
        const RunResult got = run_snn(model, train, v.config);
        EXPECT_EQ(ref.logits_per_step, got.logits_per_step) << v.name;
        EXPECT_EQ(ref.spike_counts, got.spike_counts) << v.name;
    }
}

TEST(DispatchEquivalence, DensityNeuronSkipMatrix) {
    util::Rng rng(202);
    for (const NeuronKind neuron : {NeuronKind::kIf, NeuronKind::kLif}) {
        for (const ResetMode reset : {ResetMode::kSubtract, ResetMode::kZero}) {
            const SnnModel model = matrix_model(neuron, reset, rng);
            expect_same_run(model, matrix_train(model, 0.0, false, rng));
            expect_same_run(model, matrix_train(model, 0.0, true, rng));  // 1 spike/step
            expect_same_run(model, matrix_train(model, 0.05, false, rng));
            expect_same_run(model, matrix_train(model, 0.5, false, rng));
            expect_same_run(model, matrix_train(model, 1.0, false, rng));
        }
    }
}

TEST(DispatchEquivalence, TailMaskDensityNeuronSkipMatrix) {
    // Odd neuron counts: every layer ends mid-word, so the fused fire
    // kernels' padded lanes and tail masking are on the critical path.
    util::Rng rng(203);
    for (const NeuronKind neuron : {NeuronKind::kIf, NeuronKind::kLif}) {
        for (const ResetMode reset : {ResetMode::kSubtract, ResetMode::kZero}) {
            const SnnModel model = tail_model(neuron, reset, rng);
            expect_same_run(model, matrix_train(model, 0.0, false, rng));
            expect_same_run(model, matrix_train(model, 0.0, true, rng));  // 1 spike/step
            expect_same_run(model, matrix_train(model, 0.05, false, rng));
            expect_same_run(model, matrix_train(model, 0.5, false, rng));
            expect_same_run(model, matrix_train(model, 1.0, false, rng));
        }
    }
}

TEST(DispatchEquivalence, UniformPlaneConvSkipMatrix) {
    // Channel-uniform fused path with a residual downsample branch.
    util::Rng rng(204);
    for (const NeuronKind neuron : {NeuronKind::kIf, NeuronKind::kLif}) {
        for (const ResetMode reset : {ResetMode::kSubtract, ResetMode::kZero}) {
            const SnnModel model = uniform_skip_model(neuron, reset, rng);
            expect_same_run(model, matrix_train(model, 0.0, true, rng));
            expect_same_run(model, matrix_train(model, 0.05, false, rng));
            expect_same_run(model, matrix_train(model, 0.5, false, rng));
            expect_same_run(model, matrix_train(model, 1.0, false, rng));
        }
    }
}

// ---- Dispatch accounting ----

TEST(DispatchCounters, AdaptiveSplitsByDensityThreshold) {
    util::Rng rng(303);
    const SnnModel model = matrix_model(NeuronKind::kIf, ResetMode::kSubtract, rng);
    SpikeTrain train = matrix_train(model, 0.02, false, rng);  // sparse steps
    train.push_back(random_map(model.input_channels, model.input_h, model.input_w, 1.0,
                               rng));  // one saturated step

    FunctionalEngine engine(model, {.scatter_density_threshold = 0.5});
    for (const auto& frame : train) engine.step(frame);

    const LayerDispatchStats& stem = engine.dispatch_stats(0);
    EXPECT_EQ(stem.scatter_steps, 6);  // the sparse steps
    EXPECT_EQ(stem.dense_steps, 1);    // the saturated step (density 1 >= 0.5)
    EXPECT_EQ(stem.input_sites,
              static_cast<std::int64_t>(train.size()) * model.input_channels *
                  model.input_h * model.input_w);
    std::int64_t spikes = 0;
    for (const auto& frame : train) spikes += frame.count();
    EXPECT_EQ(stem.input_spikes, spikes);
    EXPECT_NEAR(stem.mean_input_density(),
                static_cast<double>(spikes) / static_cast<double>(stem.input_sites),
                1e-12);

    // Forced modes never touch the other path, whatever the density.
    FunctionalEngine forced_dense(model, {.dispatch = DispatchMode::kDense});
    FunctionalEngine forced_scatter(model, {.dispatch = DispatchMode::kScatter});
    for (const auto& frame : train) {
        forced_dense.step(frame);
        forced_scatter.step(frame);
    }
    for (std::size_t l = 0; l < model.layers.size(); ++l) {
        EXPECT_EQ(forced_dense.dispatch_stats(l).scatter_steps, 0) << l;
        EXPECT_EQ(forced_scatter.dispatch_stats(l).dense_steps, 0) << l;
    }

    // run() surfaces the counters; reset() clears them.
    const RunResult res = engine.run(train);
    ASSERT_EQ(res.layer_dispatch.size(), model.layers.size());
    EXPECT_EQ(res.layer_dispatch[0].scatter_steps, 6);
    EXPECT_EQ(res.layer_dispatch[0].dense_steps, 1);
    engine.reset();
    EXPECT_EQ(engine.dispatch_stats(0).scatter_steps, 0);
    EXPECT_EQ(engine.dispatch_stats(0).input_sites, 0);
}

TEST(DispatchCounters, ThresholdZeroMeansAlwaysDense) {
    util::Rng rng(404);
    const SnnModel model = matrix_model(NeuronKind::kIf, ResetMode::kSubtract, rng);
    FunctionalEngine engine(model, {.scatter_density_threshold = 0.0});
    const SpikeTrain train = matrix_train(model, 0.05, false, rng);
    for (const auto& frame : train) engine.step(frame);
    EXPECT_EQ(engine.dispatch_stats(0).scatter_steps, 0);
    EXPECT_EQ(engine.dispatch_stats(0).dense_steps,
              static_cast<std::int64_t>(train.size()));
}

TEST(DispatchCounters, FirePathCountersTrackConfiguredPath) {
    util::Rng rng(606);
    const SnnModel model = matrix_model(NeuronKind::kIf, ResetMode::kSubtract, rng);
    const SpikeTrain train = matrix_train(model, 0.05, false, rng);
    const auto steps = static_cast<std::int64_t>(train.size());

    FunctionalEngine vector_engine(model, {});  // default: vectorized fire
    FunctionalEngine scalar_engine(model, {.fire = FirePath::kScalar});
    for (const auto& frame : train) {
        vector_engine.step(frame);
        scalar_engine.step(frame);
    }
    for (std::size_t l = 0; l < model.layers.size(); ++l) {
        const bool spiking = model.layers[l].spiking;
        // Spiking layers fire once per step through the configured path;
        // the readout layer has no fire stage and counts neither.
        EXPECT_EQ(vector_engine.dispatch_stats(l).vector_fire_steps,
                  spiking ? steps : 0)
            << l;
        EXPECT_EQ(vector_engine.dispatch_stats(l).scalar_fire_steps, 0) << l;
        EXPECT_EQ(scalar_engine.dispatch_stats(l).scalar_fire_steps,
                  spiking ? steps : 0)
            << l;
        EXPECT_EQ(scalar_engine.dispatch_stats(l).vector_fire_steps, 0) << l;
    }

    // run() surfaces the counters; reset() clears them.
    const RunResult res = vector_engine.run(train);
    EXPECT_EQ(res.layer_dispatch[0].vector_fire_steps, steps);
    vector_engine.reset();
    EXPECT_EQ(vector_engine.dispatch_stats(0).vector_fire_steps, 0);
}

// ---- BatchRunner plumbing ----

TEST(BatchRunnerDispatch, EngineConfigPreservesBitExactness) {
    util::Rng rng(505);
    const SnnModel model = matrix_model(NeuronKind::kLif, ResetMode::kSubtract, rng);
    std::vector<SpikeTrain> batch;
    for (int i = 0; i < 6; ++i) {
        batch.push_back(matrix_train(model, 0.02 + 0.2 * i, false, rng));
    }
    std::vector<core::Request> requests;
    for (const auto& train : batch) requests.push_back(core::Request::view_train(train));

    core::BatchRunner dense_runner(
        model, {.threads = 2, .engine = {.dispatch = DispatchMode::kDense}});
    core::BatchRunner scatter_runner(
        model, {.threads = 2, .engine = {.dispatch = DispatchMode::kScatter}});
    core::BatchRunner adaptive_runner(model, {.threads = 2});
    core::BatchRunner scalar_fire_runner(
        model, {.threads = 2, .engine = {.fire = FirePath::kScalar}});
    const auto rd = dense_runner.run(requests);
    const auto rs = scatter_runner.run(requests);
    const auto ra = adaptive_runner.run(requests);
    const auto rf = scalar_fire_runner.run(requests);
    ASSERT_EQ(rd.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        EXPECT_EQ(rd[i].logits_per_step, rs[i].logits_per_step) << i;
        EXPECT_EQ(rd[i].logits_per_step, ra[i].logits_per_step) << i;
        EXPECT_EQ(rd[i].logits_per_step, rf[i].logits_per_step) << i;
        EXPECT_EQ(rd[i].spike_counts, rs[i].spike_counts) << i;
        EXPECT_EQ(rd[i].spike_counts, ra[i].spike_counts) << i;
        EXPECT_EQ(rd[i].spike_counts, rf[i].spike_counts) << i;
    }
}

// ---- Intra-inference tiling ----

/// A random 3x3 conv layer `ic -> oc` on an `in_hw` square input.
SnnLayer tile_conv(const std::string& label, int input, std::int64_t ic, std::int64_t oc,
                   std::int64_t in_hw, std::int64_t stride, util::Rng& rng) {
    SnnLayer l;
    l.op = LayerOp::kConv;
    l.label = label;
    l.input = input;
    l.main = random_conv_branch(ic, oc, 3, stride, 1, rng);
    // Half gain plus a small positive bias keeps every layer active from
    // the first step without saturating it.
    l.main.gain.assign(static_cast<std::size_t>(oc), 128);
    for (auto& b : l.main.bias) b = static_cast<std::int16_t>(rng.integer(0, 96));
    l.out_channels = oc;
    l.in_h = l.in_w = in_hw;
    l.out_h = l.out_w = (in_hw - 1) / stride + 1;
    return l;
}

SnnLayer tile_readout(int input, std::int64_t features, std::int64_t classes,
                      util::Rng& rng) {
    SnnLayer l;
    l.op = LayerOp::kLinear;
    l.label = "readout";
    l.input = input;
    l.spiking = false;
    l.main.in_features = features;
    l.main.out_features = classes;
    l.main.weights.resize(static_cast<std::size_t>(features * classes));
    for (auto& w : l.main.weights) w = static_cast<std::int8_t>(rng.integer(-128, 127));
    l.main.gain.assign(static_cast<std::size_t>(classes), 256);
    l.main.bias.assign(static_cast<std::size_t>(classes), 0);
    l.out_channels = classes;
    return l;
}

/// Full-width VGG-11 on an 8 px input: stride-2 convs in place of the
/// pools, planes 8x8, 4x4, 2x2 and 1x1, then the readout.
SnnModel vgg_tile_model(NeuronKind neuron, ResetMode reset, util::Rng& rng) {
    SnnModel model;
    model.input_channels = 3;
    model.input_h = model.input_w = 8;
    model.classes = 10;
    const std::int64_t spec[8][2] = {{64, 1},  {128, 2}, {256, 2}, {256, 1},
                                     {512, 2}, {512, 1}, {512, 2}, {512, 1}};
    std::int64_t ic = 3;
    std::int64_t hw = 8;
    for (int i = 0; i < 8; ++i) {
        SnnLayer l = tile_conv("conv" + std::to_string(i + 1), i - 1, ic, spec[i][0], hw,
                               spec[i][1], rng);
        l.neuron = neuron;
        l.reset = reset;
        l.leak_shift = 3;
        ic = spec[i][0];
        hw = l.out_h;
        model.layers.push_back(std::move(l));
    }
    model.layers.push_back(tile_readout(7, ic * hw * hw, model.classes, rng));
    return model;
}

/// Full-width ResNet-18 stages on a 16 px input, one basic block per
/// stage: an identity skip at 64 channels, then conv (1x1, stride-2)
/// skips into 128, 256 and 512 channels on 8x8, 4x4 and 2x2 planes.
/// Without a stem the network input is the 64-channel stem output (the
/// processor-side front end) and the first block's skip_src is -1.
SnnModel resnet_tile_model(NeuronKind neuron, ResetMode reset, bool stem,
                           util::Rng& rng) {
    SnnModel model;
    model.input_channels = stem ? 3 : 64;
    model.input_h = model.input_w = 16;
    model.classes = 10;
    const auto add = [&](SnnLayer l) {
        l.neuron = neuron;
        l.reset = reset;
        l.leak_shift = 3;
        model.layers.push_back(std::move(l));
        return static_cast<int>(model.layers.size()) - 1;
    };
    int block_in = -1;
    if (stem) block_in = add(tile_conv("stem", -1, 3, 64, 16, 1, rng));
    std::int64_t ic = 64;
    std::int64_t hw = 16;
    const std::int64_t widths[4] = {64, 128, 256, 512};
    for (int s = 0; s < 4; ++s) {
        const std::int64_t oc = widths[s];
        const std::int64_t stride = s == 0 ? 1 : 2;
        const std::string name = "stage" + std::to_string(s + 1);
        const int c1 = add(tile_conv(name + ".conv1", block_in, ic, oc, hw, stride, rng));
        SnnLayer c2 = tile_conv(name + ".conv2", c1, oc, oc, (hw - 1) / stride + 1, 1, rng);
        c2.skip_src = block_in;
        if (stride == 1 && ic == oc) {
            c2.skip_is_identity = true;
            c2.identity_skip.charge = 120;
        } else {
            c2.skip = random_conv_branch(ic, oc, 1, stride, 0, rng);
            c2.skip.gain.assign(static_cast<std::size_t>(oc), 128);
        }
        hw = c2.out_h;
        ic = oc;
        block_in = add(std::move(c2));
    }
    model.layers.push_back(tile_readout(block_in, ic * hw * hw, model.classes, rng));
    return model;
}

SpikeTrain tile_train(const SnnModel& model, std::int64_t steps, util::Rng& rng) {
    SpikeTrain train;
    for (std::int64_t t = 0; t < steps; ++t) {
        train.push_back(
            random_map(model.input_channels, model.input_h, model.input_w, 0.3, rng));
    }
    return train;
}

bool same_dispatch(const LayerDispatchStats& a, const LayerDispatchStats& b) {
    return a.dense_steps == b.dense_steps && a.scatter_steps == b.scatter_steps &&
           a.vector_fire_steps == b.vector_fire_steps &&
           a.scalar_fire_steps == b.scalar_fire_steps && a.input_spikes == b.input_spikes &&
           a.input_sites == b.input_sites;
}

/// Layer-steps of the last step() that met the tiling threshold, and
/// the output planes they covered (read off the serial engine).
struct HeavySteps {
    std::int64_t count = 0;
    std::set<std::int64_t> planes;

    void add(const SnnModel& model, const FunctionalEngine& engine, const SpikeMap& input) {
        for (std::size_t l = 0; l < model.layers.size(); ++l) {
            const SnnLayer& layer = model.layers[l];
            if (layer.op != LayerOp::kConv || !layer.spiking) continue;
            const SpikeMap& in =
                layer.input == -1 ? input
                                  : engine.layer_spikes(static_cast<std::size_t>(layer.input));
            if (in.count() * layer.main.kernel * layer.main.kernel * layer.out_channels >=
                kTileMinWork) {
                ++count;
                planes.insert(layer.out_h * layer.out_w);
            }
        }
    }
};

void expect_same_engines(const FunctionalEngine& serial, const FunctionalEngine& tiled,
                         const std::string& where) {
    for (std::size_t l = 0; l < serial.model().layers.size(); ++l) {
        ASSERT_TRUE(serial.layer_spikes(l) == tiled.layer_spikes(l)) << where << " layer=" << l;
        ASSERT_EQ(serial.layer_spikes(l).count(), tiled.layer_spikes(l).count())
            << where << " layer=" << l;
        const auto ms = serial.membrane(l);
        const auto mt = tiled.membrane(l);
        ASSERT_TRUE(std::equal(ms.begin(), ms.end(), mt.begin(), mt.end()))
            << where << " layer=" << l;
        ASSERT_EQ(serial.spike_count(l), tiled.spike_count(l)) << where << " layer=" << l;
        ASSERT_TRUE(same_dispatch(serial.dispatch_stats(l), tiled.dispatch_stats(l)))
            << where << " layer=" << l;
    }
    ASSERT_EQ(serial.readout(), tiled.readout()) << where;
}

/// Step a serial engine and one holding a `team_size` team through
/// `train`, requiring identical engines after every step.
HeavySteps expect_tiled_matches_serial(const SnnModel& model, const SpikeTrain& train,
                                       EngineConfig config, std::size_t team_size) {
    FunctionalEngine serial(model, config);
    FunctionalEngine tiled(model, config);
    TileTeam team(team_size - 1);
    const TeamLoan loan(tiled, &team);
    EXPECT_TRUE(loan);
    HeavySteps heavy;
    for (std::size_t t = 0; t < train.size(); ++t) {
        serial.step(train[t]);
        tiled.step(train[t]);
        heavy.add(model, serial, train[t]);
        expect_same_engines(serial, tiled,
                            "team=" + std::to_string(team_size) + " t=" + std::to_string(t));
        if (::testing::Test::HasFatalFailure()) return heavy;
    }
    return heavy;
}

TEST(IntraInferenceTiling, VggShapesMatchSerialAcrossNeuronsAndResets) {
    util::Rng rng(707);
    for (const NeuronKind neuron : {NeuronKind::kIf, NeuronKind::kLif}) {
        for (const ResetMode reset : {ResetMode::kSubtract, ResetMode::kZero}) {
            SCOPED_TRACE(neuron == NeuronKind::kIf ? "IF" : "LIF");
            SCOPED_TRACE(reset == ResetMode::kSubtract ? "subtract" : "zero");
            const SnnModel model = vgg_tile_model(neuron, reset, rng);
            const HeavySteps heavy =
                expect_tiled_matches_serial(model, tile_train(model, 3, rng), {}, 4);
            ASSERT_FALSE(HasFatalFailure());
            EXPECT_GT(heavy.count, 0);
            EXPECT_TRUE(heavy.planes.count(1) == 1 && heavy.planes.count(4) == 1)
                << "the 1x1 and 2x2 planes must tile";
        }
    }
}

TEST(IntraInferenceTiling, TeamSizesOneToFourMatchSerial) {
    util::Rng rng(708);
    const SnnModel vgg = vgg_tile_model(NeuronKind::kIf, ResetMode::kSubtract, rng);
    const SnnModel resnet = resnet_tile_model(NeuronKind::kLif, ResetMode::kSubtract, true, rng);
    for (std::size_t team = 1; team <= 4; ++team) {
        SCOPED_TRACE("team=" + std::to_string(team));
        const SnnModel& model = team % 2 == 1 ? vgg : resnet;
        EXPECT_GT(expect_tiled_matches_serial(model, tile_train(model, 2, rng), {}, team).count,
                  0);
        ASSERT_FALSE(HasFatalFailure());
    }
}

TEST(IntraInferenceTiling, DispatchModesMatchSerial) {
    util::Rng rng(709);
    const SnnModel vgg = vgg_tile_model(NeuronKind::kLif, ResetMode::kZero, rng);
    const SnnModel resnet = resnet_tile_model(NeuronKind::kIf, ResetMode::kZero, true, rng);
    // Densities here run 20-45%: a 0.35 adaptive threshold mixes scatter
    // and gather steps within one run, main and skip branch alike. The
    // forced gather runs on ResNet, so its downsample branch tiles by
    // input channel too.
    struct Case {
        const SnnModel* model;
        EngineConfig config;
    };
    const std::vector<Case> cases = {
        {&vgg, {.scatter_density_threshold = 0.35}},
        {&resnet, {.scatter_density_threshold = 0.35}},
        {&resnet, {.dispatch = DispatchMode::kDense}},
        {&vgg, {.dispatch = DispatchMode::kScatter}},
    };
    for (const Case& c : cases) {
        SCOPED_TRACE("mode=" + std::to_string(static_cast<int>(c.config.dispatch)) +
                     " threshold=" + std::to_string(c.config.scatter_density_threshold));
        EXPECT_GT(
            expect_tiled_matches_serial(*c.model, tile_train(*c.model, 2, rng), c.config, 3)
                .count,
            0);
        ASSERT_FALSE(HasFatalFailure());
    }
}

TEST(IntraInferenceTiling, ResNetIdentityConvAndInputSkipsMatchSerial) {
    util::Rng rng(710);
    // Every neuron/reset pair once, across the stem and stemless
    // (skip_src == -1) variants.
    struct Case {
        bool stem;
        NeuronKind neuron;
        ResetMode reset;
    };
    for (const Case& c : {Case{true, NeuronKind::kIf, ResetMode::kSubtract},
                          Case{true, NeuronKind::kLif, ResetMode::kZero},
                          Case{false, NeuronKind::kLif, ResetMode::kSubtract},
                          Case{false, NeuronKind::kIf, ResetMode::kZero}}) {
        SCOPED_TRACE(c.stem ? "stem" : "skip_src=-1");
        SCOPED_TRACE(c.neuron == NeuronKind::kIf ? "IF" : "LIF");
        SCOPED_TRACE(c.reset == ResetMode::kSubtract ? "subtract" : "zero");
        const SnnModel model = resnet_tile_model(c.neuron, c.reset, c.stem, rng);
        const HeavySteps heavy =
            expect_tiled_matches_serial(model, tile_train(model, 3, rng), {}, 4);
        ASSERT_FALSE(HasFatalFailure());
        EXPECT_GT(heavy.count, 0);
        EXPECT_EQ(heavy.planes.count(4), 1U) << "the 2x2 stage must tile";
        EXPECT_EQ(heavy.planes.count(256), 1U) << "the 16x16 stage must tile";
    }
}

TEST(IntraInferenceTiling, SessionWindowsAndEarlyExitMatchSerial) {
    util::Rng rng(711);
    const SnnModel model = vgg_tile_model(NeuronKind::kLif, ResetMode::kSubtract, rng);
    const SpikeTrain train = tile_train(model, 6, rng);
    const SpikeTrain first(train.begin(), train.begin() + 3);
    const SpikeTrain second(train.begin() + 3, train.end());
    const ExitCriterion exit{.margin = 1, .min_steps = 2};

    const EngineConfig config{.record_readout_history = false};
    FunctionalEngine serial(model, config);
    FunctionalEngine tiled(model, config);
    TileTeam team(3);
    const TeamLoan loan(tiled, &team);
    ASSERT_TRUE(loan);
    const auto expect_same = [](const RunResult& a, const RunResult& b) {
        EXPECT_EQ(a.readout, b.readout);
        EXPECT_EQ(a.spike_counts, b.spike_counts);
        EXPECT_EQ(a.timesteps, b.timesteps);
        EXPECT_EQ(a.exit_reason, b.exit_reason);
        ASSERT_EQ(a.layer_dispatch.size(), b.layer_dispatch.size());
        for (std::size_t l = 0; l < a.layer_dispatch.size(); ++l) {
            EXPECT_TRUE(same_dispatch(a.layer_dispatch[l], b.layer_dispatch[l])) << l;
        }
    };

    // Whole runs, with and without the criterion.
    expect_same(serial.run(train), tiled.run(train));
    const RunResult exited = serial.run(train, exit);
    expect_same(exited, tiled.run(train, exit));
    EXPECT_NE(exited.exit_reason, ExitReason::kNone) << "the criterion must fire";

    // Two session windows, the first with the criterion.
    SessionState serial_session;
    SessionState tiled_session;
    expect_same(serial.run_window(first, serial_session, exit),
                tiled.run_window(first, tiled_session, exit));
    EXPECT_EQ(serial_session, tiled_session);
    expect_same(serial.run_window(second, serial_session),
                tiled.run_window(second, tiled_session));
    EXPECT_EQ(serial_session, tiled_session);
    expect_same_engines(serial, tiled, "after the second window");
}

TEST(IntraInferenceTiling, SecondEngineFindsTeamClaimedAndRunsSerially) {
    util::Rng rng(712);
    const SnnModel model = resnet_tile_model(NeuronKind::kIf, ResetMode::kSubtract, true, rng);
    const SpikeTrain train = tile_train(model, 3, rng);
    const RunResult reference = run_snn(model, train);

    TileTeam team(3);
    FunctionalEngine first(model);
    FunctionalEngine second(model);
    {
        const TeamLoan held(first, &team);
        ASSERT_TRUE(held);
        const TeamLoan refused(second, &team);
        EXPECT_FALSE(refused);
        // The holder tiles while the refused engine runs serially, at
        // the same time.
        RunResult tiled;
        RunResult serial;
        std::thread other([&] { serial = second.run(train); });
        tiled = first.run(train);
        other.join();
        for (const RunResult* got : {&tiled, &serial}) {
            EXPECT_EQ(got->logits_per_step, reference.logits_per_step);
            EXPECT_EQ(got->spike_counts, reference.spike_counts);
        }
    }
    // Returned: the second engine can borrow the team now.
    const TeamLoan later(second, &team);
    EXPECT_TRUE(later);
    EXPECT_EQ(second.run(train).logits_per_step, reference.logits_per_step);
}

TEST(IntraInferenceTiling, OnlyModelsWithAHeavyLayerCanTile) {
    util::Rng rng(715);
    EXPECT_TRUE(tiling_possible(vgg_tile_model(NeuronKind::kIf, ResetMode::kSubtract, rng)));
    EXPECT_TRUE(
        tiling_possible(resnet_tile_model(NeuronKind::kIf, ResetMode::kSubtract, false, rng)));
    // Even with every input site spiking, none of these layers reaches
    // kTileMinWork: a FunctionalBackend serving them builds no team.
    EXPECT_FALSE(tiling_possible(matrix_model(NeuronKind::kIf, ResetMode::kSubtract, rng)));
    EXPECT_FALSE(tiling_possible(tail_model(NeuronKind::kLif, ResetMode::kZero, rng)));
}

TEST(TileTeam, EveryTileRunsOnceForEveryTeamSize) {
    for (std::size_t helpers = 0; helpers <= 3; ++helpers) {
        TileTeam team(helpers);
        ASSERT_EQ(team.participants(), helpers + 1);
        ASSERT_TRUE(team.try_claim());
        EXPECT_FALSE(team.try_claim());
        for (std::size_t tiles : {1U, 3U, 17U, 64U}) {
            for (int job = 0; job < 50; ++job) {
                std::vector<std::atomic<int>> runs(tiles);
                std::atomic<bool> bad_participant{false};
                team.run(tiles, [&](std::size_t tile, std::size_t participant) {
                    runs[tile].fetch_add(1);
                    if (participant >= team.participants()) bad_participant = true;
                });
                for (std::size_t t = 0; t < tiles; ++t) ASSERT_EQ(runs[t].load(), 1) << t;
                ASSERT_FALSE(bad_participant.load());
            }
        }
        team.release();
    }
}

TEST(TileTeam, TileExceptionReachesCallerAndTeamStaysUsable) {
    TileTeam team(3);
    ASSERT_TRUE(team.try_claim());
    for (int round = 0; round < 20; ++round) {
        EXPECT_THROW(team.run(64,
                              [&](std::size_t tile, std::size_t) {
                                  if (tile == 7) throw std::runtime_error("tile 7");
                              }),
                     std::runtime_error);
        std::atomic<int> ran{0};
        team.run(64, [&](std::size_t, std::size_t) { ran.fetch_add(1); });
        EXPECT_EQ(ran.load(), 64);
    }
    team.release();

    // An engine borrowing the team afterwards still tiles bit-identically.
    util::Rng rng(713);
    const SnnModel model = vgg_tile_model(NeuronKind::kIf, ResetMode::kSubtract, rng);
    const SpikeTrain train = tile_train(model, 2, rng);
    FunctionalEngine engine(model);
    const TeamLoan loan(engine, &team);
    ASSERT_TRUE(loan);
    EXPECT_EQ(engine.run(train).logits_per_step, run_snn(model, train).logits_per_step);
}

TEST(IntraInferenceTiling, ServerLaneWithFourThreadsMatchesSequentialEngine) {
    util::Rng rng(714);
    const SnnModel model = vgg_tile_model(NeuronKind::kIf, ResetMode::kSubtract, rng);
    std::vector<SpikeTrain> trains;
    for (int i = 0; i < 4; ++i) trains.push_back(tile_train(model, 3, rng));

    core::Server server(std::make_shared<core::FunctionalBackend>(model),
                        {.threads = 4});
    FunctionalEngine reference(model);
    for (const SpikeTrain& train : trains) {
        // One request in flight at a time: the lane's lone span borrows
        // the team.
        const core::Response response = server.submit(core::Request::view_train(train)).get();
        ASSERT_TRUE(response.ok()) << response.error;
        const RunResult expected = reference.run(train);
        EXPECT_EQ(response.logits_per_step, expected.logits_per_step);
        EXPECT_EQ(response.spike_counts, expected.spike_counts);
        ASSERT_EQ(response.layer_dispatch.size(), expected.layer_dispatch.size());
        for (std::size_t l = 0; l < expected.layer_dispatch.size(); ++l) {
            EXPECT_TRUE(same_dispatch(response.layer_dispatch[l], expected.layer_dispatch[l]));
        }
    }
    server.shutdown();
}

}  // namespace
}  // namespace sia::snn
