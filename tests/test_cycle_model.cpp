// Pinned SIA cycle model: literal expected values for every per-layer
// cycle, byte and event counter of one Sia::run, the residency
// accounting of a ragged early-exit batch, and the shard planner's
// stage estimates and a channel-parallel cluster's timeline. The model
// is integer-built (seeded int8 weights, gains and spike trains; no
// float conversion), so the values hold under any -march. A change to
// how any counter is computed must leave every number here unchanged.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/compiler.hpp"
#include "sim/sia.hpp"
#include "sim/sia_cluster.hpp"
#include "snn/exit.hpp"
#include "util/rng.hpp"

namespace sia {
namespace {

constexpr std::int64_t kSide = 4;  // every layer runs at 4x4

snn::Branch conv_branch(util::Rng& rng, std::int64_t in_c, std::int64_t out_c,
                        std::int64_t kernel) {
    snn::Branch b;
    b.in_channels = in_c;
    b.out_channels = out_c;
    b.kernel = kernel;
    b.stride = 1;
    b.padding = kernel / 2;
    b.weights.resize(static_cast<std::size_t>(in_c * out_c * kernel * kernel));
    for (auto& w : b.weights) w = static_cast<std::int8_t>(rng.integer(-127, 127));
    b.gain.resize(static_cast<std::size_t>(out_c));
    b.bias.resize(static_cast<std::size_t>(out_c));
    for (auto& g : b.gain) g = static_cast<std::int16_t>(rng.integer(20, 400));
    for (auto& h : b.bias) h = static_cast<std::int16_t>(rng.integer(-60, 60));
    return b;
}

snn::SnnLayer conv_layer(util::Rng& rng, const char* label, int input,
                         std::int64_t in_c, std::int64_t out_c) {
    snn::SnnLayer layer;
    layer.op = snn::LayerOp::kConv;
    layer.label = label;
    layer.input = input;
    layer.main = conv_branch(rng, in_c, out_c, 3);
    layer.out_channels = out_c;
    layer.out_h = layer.out_w = kSide;
    layer.in_h = layer.in_w = kSide;
    return layer;
}

/// 16-channel input (two 14-channel IC passes at 3x3) -> identity skip
/// from the network input -> 72 channels (two OC tiles) -> identity
/// residual -> 1x1 conv-skip block reaching back two layers -> conv ->
/// AXI-lite readout.
snn::SnnModel pinned_model() {
    util::Rng rng(20240917);
    snn::SnnModel model;
    model.input_channels = 16;
    model.input_h = model.input_w = kSide;
    model.classes = 10;

    snn::SnnLayer stem = conv_layer(rng, "stem", -1, 16, 16);
    stem.skip_src = -1;
    stem.skip_is_identity = true;
    stem.identity_skip.charge = 90;
    model.layers.push_back(std::move(stem));

    model.layers.push_back(conv_layer(rng, "wide", 0, 16, 72));

    snn::SnnLayer res = conv_layer(rng, "res", 1, 72, 72);
    res.skip_src = 1;
    res.skip_is_identity = true;
    res.identity_skip.charge = 110;
    model.layers.push_back(std::move(res));

    snn::SnnLayer down = conv_layer(rng, "down", 2, 72, 24);
    down.skip_src = 1;
    down.skip_is_identity = false;
    down.skip = conv_branch(rng, 72, 24, 1);
    model.layers.push_back(std::move(down));

    model.layers.push_back(conv_layer(rng, "tail", 3, 24, 24));

    snn::SnnLayer fc;
    fc.op = snn::LayerOp::kLinear;
    fc.label = "fc";
    fc.input = 4;
    fc.spiking = false;
    fc.main.in_features = 24 * kSide * kSide;
    fc.main.out_features = 10;
    fc.main.weights.resize(static_cast<std::size_t>(fc.main.in_features * 10));
    for (auto& w : fc.main.weights) w = static_cast<std::int8_t>(rng.integer(-64, 64));
    fc.main.gain.assign(10, 256);
    fc.main.bias.assign(10, 0);
    fc.out_channels = 10;
    model.layers.push_back(std::move(fc));
    model.validate();
    return model;
}

/// Seeded input trains; each bit is drawn from an integer distribution
/// at `percent`% density.
std::vector<snn::SpikeTrain> pinned_trains(std::size_t count, std::int64_t timesteps,
                                           std::uint64_t seed) {
    util::Rng rng(seed);
    std::vector<snn::SpikeTrain> trains;
    for (std::size_t i = 0; i < count; ++i) {
        const auto percent = static_cast<std::int64_t>(10 + 8 * i);
        snn::SpikeTrain train(static_cast<std::size_t>(timesteps),
                              snn::SpikeMap(16, kSide, kSide));
        for (auto& frame : train) {
            for (std::int64_t j = 0; j < frame.size(); ++j) {
                frame.set_flat(j, rng.integer(0, 99) < percent);
            }
        }
        trains.push_back(std::move(train));
    }
    return trains;
}

struct PinnedLayer {
    const char* label;
    std::int64_t compute, aggregate, dma, mmio, overhead;
    std::int64_t input_spike_events, event_additions;
    std::uint64_t dense_ops;
    std::int64_t spikes;
};

TEST(CycleModel, EveryLayerCounterOfOneRun) {
    const auto model = pinned_model();
    const sim::SiaConfig config;
    const auto program = core::SiaCompiler(config).compile(model);
    ASSERT_EQ(program.layers[0].ic_passes, 2);
    ASSERT_EQ(program.layers[1].oc_tiles, 2);
    ASSERT_EQ(program.layers[2].ic_passes, 6);
    ASSERT_TRUE(program.layers[5].mmio);

    sim::Sia sia(config, model, program);
    const auto run = sia.run(pinned_trains(1, 5, 7)[0]);

    constexpr std::array<PinnedLayer, 6> kWant = {{
        {"stem", 1390, 100, 696, 0, 88000, 139, 20016, 368640, 229},
        {"wide", 4580, 400, 2852, 0, 88000, 458, 148392, 1658880, 1560},
        {"res", 31200, 400, 12384, 0, 88000, 3120, 1010880, 7464960, 2496},
        {"down", 31200, 140, 4308, 0, 88000, 4056, 576576, 2764800, 755},
        {"tail", 7550, 140, 1416, 0, 88000, 755, 163080, 829440, 526},
        {"fc", 2104, 25, 0, 2769240, 88000, 526, 5260, 38400, 0},
    }};
    ASSERT_EQ(run.layer_stats.size(), kWant.size());
    for (std::size_t l = 0; l < kWant.size(); ++l) {
        SCOPED_TRACE(kWant[l].label);
        const sim::LayerCycleStats& s = run.layer_stats[l];
        EXPECT_EQ(s.label, kWant[l].label);
        EXPECT_EQ(s.compute, kWant[l].compute);
        EXPECT_EQ(s.aggregate, kWant[l].aggregate);
        EXPECT_EQ(s.dma, kWant[l].dma);
        EXPECT_EQ(s.mmio, kWant[l].mmio);
        EXPECT_EQ(s.overhead, kWant[l].overhead);
        EXPECT_EQ(s.input_spike_events, kWant[l].input_spike_events);
        EXPECT_EQ(s.event_additions, kWant[l].event_additions);
        EXPECT_EQ(s.dense_ops, kWant[l].dense_ops);
        EXPECT_EQ(run.spike_counts[l], kWant[l].spikes);
    }
    EXPECT_EQ(run.total_cycles(), 3398125);
}

TEST(CycleModel, RaggedEarlyExitBatchResidency) {
    const auto model = pinned_model();
    const sim::SiaConfig config;  // 4 membrane banks
    ASSERT_EQ(config.membrane_banks, 4);
    const auto program = core::SiaCompiler(config).compile(model);
    const auto trains = pinned_trains(6, 8, 11);

    snn::ExitCriterion exit;
    exit.margin = 400;
    exit.min_steps = 2;
    exit.check_interval = 2;
    std::vector<sim::BatchItem> items;
    for (const auto& train : trains) items.push_back({train, nullptr, &exit});

    sim::Sia sia(config, model, program);
    const auto results = sia.run_batch(items);
    const sim::SiaBatchStats& stats = sia.last_batch_stats();
    EXPECT_EQ(stats.batch, 6U);
    EXPECT_EQ(stats.banks, 4);
    EXPECT_EQ(stats.resident_cycles, 20460656);
    EXPECT_EQ(stats.sequential_cycles, 25392800);
    EXPECT_EQ(stats.weight_bytes_streamed, 480384);
    EXPECT_EQ(stats.weight_bytes_sequential, 1200960);
    EXPECT_EQ(stats.chunk_passes, 6);
    EXPECT_EQ(stats.backfills, 2);
    EXPECT_EQ(stats.retired_early, 4);
    EXPECT_EQ(stats.retired_at, (std::vector<std::int64_t>{4, 2, 4, 4, 8, 8}));
    std::int64_t sequential = 0;
    for (const auto& r : results) sequential += r.total_cycles();
    EXPECT_EQ(sequential, stats.sequential_cycles);
}

TEST(CycleModel, PipelineStageEstimates) {
    // Legal cuts sit before layers 1, 2, 4 and 5 ("down" reads layer 1,
    // so no cut lands before it); five shards price each legal segment
    // on its own.
    const auto model = pinned_model();
    const core::SiaCompiler compiler;
    struct Stage {
        std::size_t first, last;
        std::int64_t est_cycles, boundary_bytes;
    };
    const std::vector<std::pair<std::int64_t, std::vector<Stage>>> cases = {
        {2, {{0, 5, 484944, 48}, {5, 6, 4519432, 0}}},
        {3, {{0, 2, 183696, 144}, {2, 5, 301248, 48}, {5, 6, 4519432, 0}}},
        {5,
         {{0, 1, 89968, 32},
          {1, 2, 93728, 144},
          {2, 4, 210016, 48},
          {4, 5, 91232, 48},
          {5, 6, 4519432, 0}}},
    };
    for (const auto& [shards, want] : cases) {
        SCOPED_TRACE("shards " + std::to_string(shards));
        const auto plan = compiler.compile_sharded(
            model, {.partition = sim::ShardPartition::kPipeline, .shards = shards});
        ASSERT_EQ(plan.stages.size(), want.size());
        for (std::size_t s = 0; s < want.size(); ++s) {
            EXPECT_EQ(plan.stages[s].first, want[s].first);
            EXPECT_EQ(plan.stages[s].last, want[s].last);
            EXPECT_EQ(plan.stages[s].est_cycles, want[s].est_cycles);
            EXPECT_EQ(plan.stages[s].boundary_bytes, want[s].boundary_bytes);
        }
    }
}

TEST(CycleModel, ChannelClusterTimeline) {
    const auto model = pinned_model();
    const core::SiaCompiler compiler;
    const auto plan = compiler.compile_sharded(
        model, {.partition = sim::ShardPartition::kChannel, .shards = 3});
    const auto trains = pinned_trains(3, 4, 13);
    sim::SiaCluster cluster(compiler.config(), model, plan, {.threads = 1});
    (void)cluster.run_batch(sim::as_batch(trains));
    const sim::ShardStats& s = cluster.last_stats();
    EXPECT_EQ(s.shards, 3);
    EXPECT_EQ(s.compute_cycles, 12101154);
    EXPECT_EQ(s.transfer_bytes, 9984);
    EXPECT_EQ(s.transfer_cycles, 1248);
    EXPECT_EQ(s.transfer_stall_cycles, 312);
    EXPECT_EQ(s.fill_cycles, 0);
    EXPECT_EQ(s.drain_cycles, 0);
    EXPECT_EQ(s.makespan_cycles, 4471774);
}

}  // namespace
}  // namespace sia
