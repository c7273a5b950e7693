// The event-driven conv kernel against the dense gather, the spike
// index it reads, the engine's step counters, and the vector-vs-scalar
// fire stage.
//
// The load-bearing properties: (1) the output-stationary event kernel
// (compute::conv_psum_event over a compute::SpikeIndex) and the dense
// gather conv_psum_chunk_oc perform the same multiset of exact int32
// additions, so psums — and therefore spikes, membranes and logits —
// are bit-identical whichever kernel a scheduler runs, and any split of
// the event kernel's units composes to the same bank; (2) the fused SoA
// fire kernels (compute::aggregate_fire_*) execute the same
// util/fixed_point lane recipe as the scalar aggregate()/update_neuron()
// loop, so the fire paths are bit-identical too. The kernel matrix
// sweeps densities {0, 1 spike, 5%, 50%, 100%} x kernel/stride/padding x
// output widths that end on every block tail; the engine matrix sweeps
// the same densities x identity/conv skip routing x IF/LIF neurons x
// subtract/zero reset x fire path, on both word-aligned and odd
// ("tail") neuron counts. Bit-identity to sim::Sia, which runs the
// dense gather, is checked by test_sia_integration and test_properties.
//
// Intra-inference tiling (the last section) must leave every one of
// those observables unchanged: a TeamLoan-tiled engine is compared
// step by step against the serial engine on full-width VGG-11 and
// ResNet-18 shapes and on odd channel widths, across neurons, resets,
// input densities, team sizes, session windows and early exit, plus the
// fallbacks (a claimed team, a throwing tile, a threaded server lane).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
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

/// Output channels [first, second) of event-kernel block `b`: the
/// blocking conv_event_blocks documents (64-lane blocks, then the
/// remaining whole 8-lane groups, then the scalar tail).
std::pair<std::int64_t, std::int64_t> event_block_channels(std::int64_t oc, std::int64_t b) {
    const std::int64_t full = oc / 64;
    if (b < full) return {b * 64, b * 64 + 64};
    const std::int64_t grouped = oc % 64 / 8 * 8;
    if (b == full && grouped > 0) return {full * 64, full * 64 + grouped};
    return {oc - oc % 8, oc};
}

TEST(EventKernel, IndexListsEachSitesSpikingChannelsInOrder) {
    util::Rng rng(100);
    // Planes of 35, 9 and 1 sites put channel boundaries inside packed
    // words; 64 and 130 sites start every channel on or across one.
    struct Geometry {
        std::int64_t c, h, w;
    };
    for (const Geometry g : {Geometry{5, 7, 5}, Geometry{11, 3, 3}, Geometry{130, 1, 1},
                             Geometry{3, 8, 8}, Geometry{2, 10, 13}}) {
        for (const double d : {0.0, 0.3, 1.0}) {
            const SpikeMap in = random_map(g.c, g.h, g.w, d, rng);
            compute::SpikeIndex index;
            index.build(in);
            ASSERT_EQ(index.sites(), g.h * g.w);
            // The same index filled in ragged site ranges, on a buffer
            // that indexed a larger map first.
            compute::SpikeIndex split;
            split.build(random_map(g.c + 3, g.h + 2, g.w + 1, 0.5, rng));
            split.reshape(in);
            for (std::int64_t s0 = 0; s0 < split.sites(); s0 += 3) {
                split.fill(in, s0, std::min(s0 + 3, split.sites()));
            }
            std::int64_t total = 0;
            for (std::int64_t site = 0; site < index.sites(); ++site) {
                std::vector<std::int64_t> expected;
                for (std::int64_t c = 0; c < g.c; ++c) {
                    if (in.get(c, site / g.w, site % g.w)) expected.push_back(c);
                }
                for (const compute::SpikeIndex* idx : {&index, &split}) {
                    ASSERT_EQ(idx->count(site), static_cast<std::int64_t>(expected.size()))
                        << "site " << site << " density " << d;
                    EXPECT_TRUE(std::equal(expected.begin(), expected.end(),
                                           idx->channels(site)))
                        << "site " << site << " density " << d;
                }
                total += index.count(site);
            }
            EXPECT_EQ(total, in.count());
        }
    }
}

TEST(EventKernel, ConvPsumMatchesGatherAcrossGeometryWidthsAndUnitSplits) {
    util::Rng rng(101);
    const std::int64_t ic = 5;
    const std::int64_t in_h = 7;
    const std::int64_t in_w = 5;
    constexpr std::int32_t kUntouched = 0x5A5A5A5A;
    for (const std::int64_t oc : {1L, 7L, 8L, 13L, 64L, 72L, 130L}) {
        const std::int64_t blocks = compute::conv_event_blocks(oc);
        for (const std::int64_t kernel : {1L, 3L}) {
            for (const std::int64_t stride : {1L, 2L}) {
                for (const std::int64_t padding : {0L, 1L}) {
                    const std::int64_t out_h = (in_h + 2 * padding - kernel) / stride + 1;
                    const std::int64_t out_w = (in_w + 2 * padding - kernel) / stride + 1;
                    const std::int64_t plane = out_h * out_w;
                    const Branch b = random_conv_branch(ic, oc, kernel, stride, padding, rng);
                    const auto wt = compute::transpose_conv(b);
                    const auto blocked = compute::block_conv(b);
                    std::vector<SpikeMap> cases;
                    for (const double d : {0.0, 0.05, 0.5, 1.0}) {
                        cases.push_back(random_map(ic, in_h, in_w, d, rng));
                    }
                    cases.push_back(single_spike_map(ic, in_h, in_w, 0));
                    cases.push_back(single_spike_map(ic, in_h, in_w, ic * in_h * in_w - 1));
                    for (const SpikeMap& in : cases) {
                        SCOPED_TRACE("oc=" + std::to_string(oc) + " k=" +
                                     std::to_string(kernel) + " s=" + std::to_string(stride) +
                                     " p=" + std::to_string(padding) +
                                     " spikes=" + std::to_string(in.count()));
                        const auto n = static_cast<std::size_t>(plane * oc);
                        std::vector<std::int32_t> gather(n, 0);
                        compute::conv_psum_chunk_oc(b, wt, in, out_h, out_w, 0, ic, 0, oc,
                                                    gather);
                        compute::SpikeIndex index;
                        index.build(in);
                        // Split the units at every boundary: the first
                        // range writes exactly its units, the second
                        // completes the bank.
                        const std::int64_t units = blocks * plane;
                        for (std::int64_t split = 0; split <= units; ++split) {
                            std::vector<std::int32_t> event(n, kUntouched);
                            compute::conv_psum_event(b, blocked, index, out_h, out_w, 0,
                                                     split, event);
                            for (std::int64_t u = 0; u < units; ++u) {
                                const auto [o0, o1] = event_block_channels(oc, u / plane);
                                for (std::int64_t o = o0; o < o1; ++o) {
                                    const auto i = static_cast<std::size_t>(
                                        u % plane * oc + o);
                                    ASSERT_EQ(event[i], u < split ? gather[i] : kUntouched)
                                        << "split " << split << " unit " << u << " oc " << o;
                                }
                            }
                            compute::conv_psum_event(b, blocked, index, out_h, out_w, split,
                                                     units, event);
                            ASSERT_EQ(event, gather) << "split " << split;
                        }
                    }
                }
            }
        }
    }
}

TEST(EventKernel, LinearScatterMatchesGather) {
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
        compute::linear_psum_range(b, wt, in, 0, b.out_features, gather);
        compute::linear_psum_scatter(b, wt, in, scatter);
        EXPECT_EQ(gather, scatter) << "spikes=" << in.count();
    }
}

// ---- Engine-level equivalence matrix ----

/// conv stem -> residual block (identity skip) -> strided downsample
/// (conv skip) -> spiking FC -> readout. Exercises every psum site:
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
    // Reference: the scalar fire loop. The fused vector kernels must
    // match it.
    const EngineConfig reference_config{.fire = FirePath::kScalar};
    FunctionalEngine reference(model, reference_config);
    FunctionalEngine engine(model);

    // Step-level comparison so a divergence pinpoints its first timestep.
    for (std::size_t t = 0; t < train.size(); ++t) {
        reference.step(train[t]);
        engine.step(train[t]);
        for (std::size_t l = 0; l < model.layers.size(); ++l) {
            ASSERT_TRUE(reference.layer_spikes(l) == engine.layer_spikes(l))
                << "t=" << t << " layer=" << l;
            const auto mr = reference.membrane(l);
            const auto me = engine.membrane(l);
            ASSERT_TRUE(std::equal(mr.begin(), mr.end(), me.begin(), me.end()))
                << "t=" << t << " layer=" << l;
        }
        ASSERT_EQ(reference.readout(), engine.readout()) << "t=" << t;
    }

    // Whole-run results (fresh engines through run()).
    const RunResult ref = run_snn(model, train, reference_config);
    const RunResult got = run_snn(model, train);
    EXPECT_EQ(ref.logits_per_step, got.logits_per_step);
    EXPECT_EQ(ref.spike_counts, got.spike_counts);
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

TEST(DispatchCounters, EveryStepRunsEventDrivenAndCountsItsInput) {
    util::Rng rng(303);
    const SnnModel model = matrix_model(NeuronKind::kIf, ResetMode::kSubtract, rng);
    SpikeTrain train = matrix_train(model, 0.02, false, rng);  // sparse steps
    train.push_back(random_map(model.input_channels, model.input_h, model.input_w, 1.0,
                               rng));  // one saturated step
    const auto steps = static_cast<std::int64_t>(train.size());

    FunctionalEngine engine(model);
    for (const auto& frame : train) engine.step(frame);

    // Every psum of every layer, sparse or saturated, is event-driven.
    for (std::size_t l = 0; l < model.layers.size(); ++l) {
        EXPECT_EQ(engine.dispatch_stats(l).scatter_steps, steps) << l;
        EXPECT_EQ(engine.dispatch_stats(l).dense_steps, 0) << l;
    }
    const LayerDispatchStats& stem = engine.dispatch_stats(0);
    EXPECT_EQ(stem.input_sites, steps * model.input_channels * model.input_h * model.input_w);
    std::int64_t spikes = 0;
    for (const auto& frame : train) spikes += frame.count();
    EXPECT_EQ(stem.input_spikes, spikes);
    EXPECT_NEAR(stem.mean_input_density(),
                static_cast<double>(spikes) / static_cast<double>(stem.input_sites),
                1e-12);

    // run() surfaces the counters; reset() clears them.
    const RunResult res = engine.run(train);
    ASSERT_EQ(res.layer_dispatch.size(), model.layers.size());
    EXPECT_EQ(res.layer_dispatch[0].scatter_steps, steps);
    EXPECT_EQ(res.layer_dispatch[0].input_spikes, spikes);
    engine.reset();
    EXPECT_EQ(engine.dispatch_stats(0).scatter_steps, 0);
    EXPECT_EQ(engine.dispatch_stats(0).input_sites, 0);
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

    core::BatchRunner vector_runner(model, {.threads = 2});
    core::BatchRunner scalar_fire_runner(
        model, {.threads = 2, .engine = {.fire = FirePath::kScalar}});
    const auto rv = vector_runner.run(requests);
    const auto rf = scalar_fire_runner.run(requests);
    ASSERT_EQ(rv.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const RunResult expected = run_snn(model, batch[i]);
        EXPECT_EQ(rv[i].logits_per_step, expected.logits_per_step) << i;
        EXPECT_EQ(rf[i].logits_per_step, expected.logits_per_step) << i;
        EXPECT_EQ(rv[i].spike_counts, expected.spike_counts) << i;
        EXPECT_EQ(rf[i].spike_counts, expected.spike_counts) << i;
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

/// Odd channel widths on a 16 px input: 72 (a 64-lane block plus one
/// 8-lane group), 130 (two 64-lane blocks plus a scalar tail) and 13 (an
/// 8-lane group plus a scalar tail), with planes 16x16, 8x8 and 4x4.
SnnModel odd_width_tile_model(util::Rng& rng) {
    SnnModel model;
    model.input_channels = 3;
    model.input_h = model.input_w = 16;
    model.classes = 10;
    const std::int64_t spec[4][2] = {{72, 1}, {130, 1}, {72, 2}, {13, 2}};
    std::int64_t ic = 3;
    std::int64_t hw = 16;
    for (int i = 0; i < 4; ++i) {
        SnnLayer l = tile_conv("conv" + std::to_string(i + 1), i - 1, ic, spec[i][0], hw,
                               spec[i][1], rng);
        ic = spec[i][0];
        hw = l.out_h;
        model.layers.push_back(std::move(l));
    }
    model.layers.push_back(tile_readout(3, ic * hw * hw, model.classes, rng));
    return model;
}

SpikeTrain tile_train(const SnnModel& model, std::int64_t steps, util::Rng& rng,
                      double density = 0.3) {
    SpikeTrain train;
    for (std::int64_t t = 0; t < steps; ++t) {
        train.push_back(
            random_map(model.input_channels, model.input_h, model.input_w, density, rng));
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

TEST(IntraInferenceTiling, InputDensitiesAndOddWidthsMatchSerial) {
    util::Rng rng(709);
    const SnnModel vgg = vgg_tile_model(NeuronKind::kLif, ResetMode::kZero, rng);
    const SnnModel resnet = resnet_tile_model(NeuronKind::kIf, ResetMode::kZero, true, rng);
    const SnnModel odd = odd_width_tile_model(rng);
    // From sparse input, where only the widest layers reach the split
    // threshold, to saturated input, where every conv layer-step splits.
    // The odd widths tile units that end on 8-lane groups and scalar
    // tails, split both inside and across blocks.
    for (const SnnModel* model : {&vgg, &resnet, &odd}) {
        for (const double density : {0.05, 0.3, 1.0}) {
            SCOPED_TRACE("layers=" + std::to_string(model->layers.size()) +
                         " density=" + std::to_string(density));
            EXPECT_GT(
                expect_tiled_matches_serial(*model, tile_train(*model, 2, rng, density), {}, 3)
                    .count,
                0);
            ASSERT_FALSE(HasFatalFailure());
        }
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
