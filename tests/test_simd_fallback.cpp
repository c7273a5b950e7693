// Equivalence of the portable (plain-struct) SIMD fallback with the
// scalar reference fire path.
//
// snn/simd.hpp has two spellings of the 8-lane helpers: GNU vector
// extensions (what every GCC/Clang build uses) and a portable struct
// fallback for other compilers. This binary is compiled with
// SIA_FORCE_SCALAR_SIMD, so its FunctionalEngine's FirePath::kVector
// runs the fused kernels, and its event conv kernel its widening weight
// loads, through the FALLBACK lanes — asserting them bit-identical to
// the scalar fire loop and to the dense gather (which uses no lanes)
// gives the fallback real execution coverage instead of compile-only
// coverage.
//
// Deliberately NOT linked against the sia library: the library's
// inline simd functions are the native spelling, and mixing the two
// definitions in one binary would be an ODR violation (the linker
// would silently pick one). The CMake target compiles the needed snn
// translation units directly with the macro set.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "snn/compute.hpp"
#include "snn/engine.hpp"
#include "snn/model.hpp"
#include "snn/spike.hpp"
#include "util/rng.hpp"

#ifndef SIA_FORCE_SCALAR_SIMD
#error "this test must be compiled with SIA_FORCE_SCALAR_SIMD"
#endif
#ifdef SIA_SIMD_NATIVE
#error "the native SIMD spelling leaked into the fallback test"
#endif

namespace sia::snn {
namespace {

Branch conv_branch(std::int64_t ic, std::int64_t oc, std::int64_t kernel,
                   std::int64_t stride, std::int64_t padding, util::Rng& rng) {
    Branch b;
    b.in_channels = ic;
    b.out_channels = oc;
    b.kernel = kernel;
    b.stride = stride;
    b.padding = padding;
    b.weights.resize(static_cast<std::size_t>(oc * ic * kernel * kernel));
    for (auto& w : b.weights) w = static_cast<std::int8_t>(rng.integer(-128, 127));
    b.gain.assign(static_cast<std::size_t>(oc), 0);
    b.bias.assign(static_cast<std::size_t>(oc), 0);
    for (auto& g : b.gain) g = static_cast<std::int16_t>(rng.integer(50, 2000));
    for (auto& h : b.bias) h = static_cast<std::int16_t>(rng.integer(-100, 100));
    return b;
}

/// Identity skip on a word-aligned plane, conv skip + tails on an odd
/// one — the same routing axes as the main dispatch matrix, compacted.
SnnModel fallback_model(NeuronKind neuron, ResetMode reset, util::Rng& rng) {
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
    stem.main = conv_branch(3, 4, 3, 1, 1, rng);
    stem.out_channels = 4;
    stem.out_h = stem.out_w = 8;
    stem.in_h = stem.in_w = 8;
    tune(stem);
    model.layers.push_back(stem);

    SnnLayer res;
    res.op = LayerOp::kConv;
    res.label = "res";
    res.input = 0;
    res.main = conv_branch(4, 4, 3, 1, 1, rng);
    res.skip_src = 0;
    res.skip_is_identity = true;
    res.identity_skip.charge = 120;
    res.out_channels = 4;
    res.out_h = res.out_w = 8;
    res.in_h = res.in_w = 8;
    tune(res);
    model.layers.push_back(res);

    SnnLayer down;
    down.op = LayerOp::kConv;
    down.label = "down";
    down.input = 1;
    down.main = conv_branch(4, 5, 3, 2, 1, rng);
    down.skip_src = 1;
    down.skip_is_identity = false;
    down.skip = conv_branch(4, 5, 1, 2, 0, rng);
    down.out_channels = 5;  // 5 * 4 * 4 = 80 neurons: one word + tail
    down.out_h = down.out_w = 4;
    down.in_h = down.in_w = 8;
    tune(down);
    model.layers.push_back(down);

    SnnLayer readout;
    readout.op = LayerOp::kLinear;
    readout.label = "readout";
    readout.input = 2;
    readout.spiking = false;
    readout.main.in_features = 5 * 4 * 4;
    readout.main.out_features = 3;
    readout.main.weights.resize(static_cast<std::size_t>(5 * 4 * 4 * 3));
    for (auto& w : readout.main.weights) {
        w = static_cast<std::int8_t>(rng.integer(-128, 127));
    }
    readout.main.gain.assign(3, 256);
    readout.main.bias.assign(3, 0);
    readout.out_channels = 3;
    model.layers.push_back(readout);
    return model;
}

TEST(SimdFallback, VectorFireMatchesScalarFire) {
    util::Rng rng(808);
    for (const NeuronKind neuron : {NeuronKind::kIf, NeuronKind::kLif}) {
        for (const ResetMode reset : {ResetMode::kSubtract, ResetMode::kZero}) {
            const SnnModel model = fallback_model(neuron, reset, rng);
            for (const double density : {0.0, 0.05, 0.5, 1.0}) {
                FunctionalEngine vector_engine(model, {});
                FunctionalEngine scalar_engine(model, {.fire = FirePath::kScalar});
                for (int t = 0; t < 6; ++t) {
                    SpikeMap frame(model.input_channels, model.input_h, model.input_w);
                    for (std::int64_t j = 0; j < frame.size(); ++j) {
                        frame.set_flat(j, rng.bernoulli(density));
                    }
                    vector_engine.step(frame);
                    scalar_engine.step(frame);
                    for (std::size_t l = 0; l < model.layers.size(); ++l) {
                        ASSERT_TRUE(vector_engine.layer_spikes(l) ==
                                    scalar_engine.layer_spikes(l))
                            << "density=" << density << " t=" << t << " layer=" << l;
                        const auto mv = vector_engine.membrane(l);
                        const auto ms = scalar_engine.membrane(l);
                        ASSERT_TRUE(std::equal(mv.begin(), mv.end(), ms.begin(),
                                               ms.end()))
                            << "density=" << density << " t=" << t << " layer=" << l;
                    }
                    ASSERT_EQ(vector_engine.readout(), scalar_engine.readout())
                        << "density=" << density << " t=" << t;
                }
            }
        }
    }
}

TEST(SimdFallback, EventConvKernelMatchesGather) {
    util::Rng rng(809);
    // 72 output channels: a 64-lane block plus one 8-lane group; 13: an
    // 8-lane group plus the scalar tail.
    for (const std::int64_t oc : {std::int64_t{72}, std::int64_t{13}}) {
        const Branch b = conv_branch(6, oc, 3, 1, 1, rng);
        const auto wt = compute::transpose_conv(b);
        const auto blocked = compute::block_conv(b);
        const std::int64_t units = compute::conv_event_blocks(oc) * 7 * 5;
        for (const double density : {0.05, 0.5, 1.0}) {
            SpikeMap in(6, 7, 5);
            for (std::int64_t j = 0; j < in.size(); ++j) in.set_flat(j, rng.bernoulli(density));
            std::vector<std::int32_t> gather(static_cast<std::size_t>(7 * 5 * oc), 0);
            compute::conv_psum_chunk_oc(b, wt, in, 7, 5, 0, 6, 0, oc, gather);
            compute::SpikeIndex index;
            index.build(in);
            std::vector<std::int32_t> event(gather.size(), -1);
            compute::conv_psum_event(b, blocked, index, 7, 5, 0, units, event);
            EXPECT_EQ(event, gather) << "oc=" << oc << " density=" << density;
        }
    }
}

}  // namespace
}  // namespace sia::snn
