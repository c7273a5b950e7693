// Multi-accelerator sharded execution: the shard planner's cut
// legality and slice balancing, the cluster equivalence matrix (both
// partition strategies must be bit-identical to single-Sia execution
// across shard counts, models, and thread counts), hand-checked
// pipeline fill/drain/stall accounting, session-window chunking through
// a cluster, the serving backend, and the RAII partition guard.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/backend.hpp"
#include "core/batch_runner.hpp"
#include "core/compiler.hpp"
#include "sim/cost.hpp"
#include "sim/memory.hpp"
#include "sim/sia.hpp"
#include "sim/sia_cluster.hpp"
#include "support.hpp"
#include "util/rng.hpp"

namespace sia {
namespace {

using namespace test;

// ---- model zoo ----

/// stem -> identity-skip residual -> conv-skip block reading the stem
/// (which blocks the cut before it) -> readout. Exercises both sliced
/// residual paths and gives the planner an illegal boundary.
snn::SnnModel skip_model(std::uint64_t seed) {
    util::Rng rng(seed);
    snn::SnnModel model;
    model.input_channels = 2;
    model.input_h = 6;
    model.input_w = 6;
    model.classes = 4;

    const auto conv_branch = [&](std::int64_t in_c, std::int64_t out_c,
                                 std::int64_t kernel, std::int64_t padding) {
        snn::Branch b;
        b.in_channels = in_c;
        b.out_channels = out_c;
        b.kernel = kernel;
        b.stride = 1;
        b.padding = padding;
        b.weights.resize(static_cast<std::size_t>(in_c * out_c * kernel * kernel));
        for (auto& w : b.weights) w = static_cast<std::int8_t>(rng.integer(-127, 127));
        b.gain.resize(static_cast<std::size_t>(out_c));
        b.bias.resize(static_cast<std::size_t>(out_c));
        for (auto& g : b.gain) g = static_cast<std::int16_t>(rng.integer(50, 2000));
        for (auto& h : b.bias) h = static_cast<std::int16_t>(rng.integer(-100, 100));
        return b;
    };
    const auto conv_layer = [&](const char* label, int input, std::int64_t in_c) {
        snn::SnnLayer layer;
        layer.op = snn::LayerOp::kConv;
        layer.label = label;
        layer.input = input;
        layer.main = conv_branch(in_c, 4, 3, 1);
        layer.out_channels = 4;
        layer.out_h = layer.out_w = 6;
        layer.in_h = layer.in_w = 6;
        return layer;
    };

    model.layers.push_back(conv_layer("stem", -1, 2));

    snn::SnnLayer res = conv_layer("res", 0, 4);
    res.skip_src = 0;
    res.skip_is_identity = true;
    res.identity_skip.charge = 120;
    model.layers.push_back(std::move(res));

    snn::SnnLayer down = conv_layer("down", 1, 4);
    down.skip_src = 0;  // reaches past layer 1: the cut before 2 is illegal
    down.skip_is_identity = false;
    down.skip = conv_branch(4, 4, 1, 0);
    model.layers.push_back(std::move(down));

    snn::SnnLayer fc;
    fc.op = snn::LayerOp::kLinear;
    fc.label = "fc";
    fc.input = 2;
    fc.spiking = false;
    fc.main.in_features = 4 * 6 * 6;
    fc.main.out_features = 4;
    fc.main.weights.resize(static_cast<std::size_t>(fc.main.in_features * 4));
    for (auto& w : fc.main.weights) w = static_cast<std::int8_t>(rng.integer(-64, 64));
    fc.main.gain.assign(4, 256);
    fc.main.bias.assign(4, 0);
    fc.out_channels = 4;
    model.layers.push_back(std::move(fc));
    model.validate();
    return model;
}

struct NamedModel {
    const char* name;
    snn::SnnModel model;
};

// ---- the cluster equivalence matrix ----

TEST(ShardCluster, MatrixBothStrategiesMatchSingleSia) {
    const sim::SiaConfig config;
    const core::SiaCompiler compiler(config);
    const std::int64_t timesteps = 4;
    const std::size_t batch = 6;
    const std::array<std::int64_t, 5> shard_counts = {1, 2, 3, 4, 8};
    const std::array<std::size_t, 2> thread_counts = {1, 8};
    const std::array<core::ShardPartition, 2> partitions = {
        core::ShardPartition::kPipeline, core::ShardPartition::kChannel};

    std::vector<NamedModel> models;
    models.push_back({"conv", conv_model(101)});
    models.push_back({"mlp", mlp_model(102)});
    models.push_back({"skip", skip_model(103)});
    // One 64-lane event block, one 8-lane group and a 3-channel tail:
    // channel slices that start inside a block and span several.
    models.push_back({"wide", conv_model(104, 3, 75)});

    for (const auto& [name, model] : models) {
        SCOPED_TRACE(name);
        const auto inputs = random_batch(model, batch, timesteps, 777);

        const auto program = compiler.compile(model);
        sim::Sia sequential(config, model, program);
        std::vector<sim::SiaRunResult> ref;
        std::int64_t ref_total = 0;
        for (const auto& train : inputs) {
            ref.push_back(sequential.run(train));
            ref_total += ref.back().total_cycles();
        }

        for (const auto partition : partitions) {
            for (const std::int64_t shards : shard_counts) {
                const auto plan = compiler.compile_sharded(
                    model, {.partition = partition, .shards = shards});
                EXPECT_LE(plan.effective_shards(), shards);
                for (const std::size_t threads : thread_counts) {
                    SCOPED_TRACE(std::string(sim::to_string(partition)) +
                                 " shards=" + std::to_string(shards) +
                                 " threads=" + std::to_string(threads));
                    sim::SiaCluster cluster(config, model, plan,
                                            {.threads = threads});
                    const auto results = cluster.run_batch(sim::as_batch(inputs));
                    ASSERT_EQ(results.size(), batch);
                    for (std::size_t i = 0; i < batch; ++i) {
                        SCOPED_TRACE("item=" + std::to_string(i));
                        // A channel slice's layer stats are per shard.
                        expect_same(results[i], ref[i],
                                    {.cycles = partition == core::ShardPartition::kPipeline});
                    }
                    const sim::ShardStats& stats = cluster.last_stats();
                    EXPECT_EQ(stats.partition, partition);
                    EXPECT_EQ(stats.shards, plan.effective_shards());
                    EXPECT_EQ(stats.batch, batch);
                    EXPECT_GT(stats.makespan_cycles, 0);
                    EXPECT_GT(stats.compute_cycles, 0);
                    if (partition == core::ShardPartition::kPipeline) {
                        // Per-item stats are exact, so the serial
                        // baseline is too — and the makespan never
                        // exceeds running the batch serially.
                        EXPECT_EQ(stats.item_cycles, ref_total);
                        EXPECT_LE(stats.makespan_cycles, stats.item_cycles);
                        if (plan.effective_shards() == 1) {
                            EXPECT_EQ(stats.makespan_cycles, stats.item_cycles);
                            EXPECT_EQ(stats.transfer_cycles, 0);
                            EXPECT_EQ(stats.fill_cycles, 0);
                            EXPECT_EQ(stats.drain_cycles, 0);
                        }
                    } else if (plan.effective_shards() == 1) {
                        // One channel slice = the whole model: no gather.
                        EXPECT_EQ(stats.transfer_cycles, 0);
                        EXPECT_EQ(stats.makespan_cycles, ref_total);
                    }
                }
            }
        }
    }
}

TEST(ShardCluster, SingleRunFormsMatchBatch) {
    const sim::SiaConfig config;
    const auto model = conv_model(11);
    const auto inputs = random_batch(model, 1, 4, 19);
    const core::SiaCompiler compiler(config);
    const auto program = compiler.compile(model);
    sim::Sia single(config, model, program);
    const auto ref = single.run(inputs[0]);

    for (const auto partition :
         {core::ShardPartition::kPipeline, core::ShardPartition::kChannel}) {
        SCOPED_TRACE(sim::to_string(partition));
        sim::SiaCluster cluster(
            config, model,
            compiler.compile_sharded(model, {.partition = partition, .shards = 2}));
        expect_same(cluster.run(inputs[0]), ref,
                    {.cycles = partition == core::ShardPartition::kPipeline});
    }
}

TEST(ShardCluster, EmptyBatchAndBadInputValidation) {
    const sim::SiaConfig config;
    const auto model = mlp_model(13);
    const core::SiaCompiler compiler(config);
    sim::SiaCluster cluster(
        config, model,
        compiler.compile_sharded(
            model, {.partition = core::ShardPartition::kPipeline, .shards = 2}));

    EXPECT_TRUE(cluster.run_batch({}).empty());

    auto inputs = random_batch(model, 2, 4, 7);
    inputs.push_back(snn::SpikeTrain{});
    EXPECT_THROW((void)cluster.run_batch(sim::as_batch(inputs)), std::invalid_argument);

    // The cluster recovers after the failed batch.
    const auto program = compiler.compile(model);
    sim::Sia single(config, model, program);
    expect_same(cluster.run(inputs[0]), single.run(inputs[0]), {.cycles = true});
}

TEST(ShardCluster, MisShapedFramesRejectedUnderBothPartitions) {
    // A 1x2x2 train against a 2x6x6 conv model is rejected at admission,
    // before any shard runs, and the cluster stays usable.
    const sim::SiaConfig config;
    const auto model = conv_model(17);
    const core::SiaCompiler compiler(config);
    const auto program = compiler.compile(model);
    sim::Sia single(config, model, program);
    auto inputs = random_batch(model, 2, 4, 171);
    const auto ref = single.run(inputs[0]);
    inputs.push_back(snn::SpikeTrain(4, snn::SpikeMap(1, 2, 2)));

    for (const auto partition :
         {core::ShardPartition::kPipeline, core::ShardPartition::kChannel}) {
        SCOPED_TRACE(sim::to_string(partition));
        sim::SiaCluster cluster(
            config, model,
            compiler.compile_sharded(model, {.partition = partition, .shards = 2}));
        EXPECT_THROW((void)cluster.run(inputs.back()), std::invalid_argument);
        EXPECT_THROW((void)cluster.run_batch(sim::as_batch(inputs)),
                     std::invalid_argument);
        expect_same(cluster.run(inputs[0]), ref,
                    {.cycles = partition == core::ShardPartition::kPipeline});
    }
}

// ---- hand-checked pipeline timeline ----

TEST(ShardPipeline, FillDrainAndStallAccountingHandChecked) {
    // Force a known 2-stage cut: conv0..conv5 | fc, run n identical
    // items, and check the whole timeline in closed form. With constant
    // per-item stage costs B0 > B1 + tx the downstream stage is always
    // input-starved: every transfer is exposed even double-buffered.
    // (Six conv layers: the FC's weight-streaming MMIO cost outweighs
    // a three-conv stage, which would flip the bottleneck downstream.)
    const sim::SiaConfig config;
    const auto model = conv_model(23, 6);
    const core::SiaCompiler compiler(config);
    const std::int64_t timesteps = 4;
    const std::size_t n = 3;
    const auto one = random_batch(model, 1, timesteps, 29);
    const std::vector<snn::SpikeTrain> inputs(n, one[0]);

    sim::ShardPlan plan;
    plan.partition = sim::ShardPartition::kPipeline;
    plan.shards = 2;
    plan.program = compiler.compile(model);
    plan.stages = {{0, 6, 0, plan.program.layers[5].spike_out_bytes},
                   {6, 7, 0, 0}};

    sim::Sia single(config, model, plan.program);
    const auto ref = single.run(one[0]);
    std::int64_t b0 = 0;
    for (std::size_t l = 0; l < 6; ++l) b0 += ref.layer_stats[l].total();
    const std::int64_t b1 = ref.layer_stats[6].total();
    const std::int64_t tx =
        timesteps * sim::dma_cycles(plan.stages[0].boundary_bytes, config);
    ASSERT_GT(tx, 0);
    ASSERT_GT(b0, b1 + tx);  // precondition of the closed forms below

    sim::SiaCluster cluster(config, model, plan, {.threads = 2});
    const auto results = cluster.run_batch(sim::as_batch(inputs));
    for (const auto& r : results) expect_same(r, ref, {.cycles = true});

    const auto count = static_cast<std::int64_t>(n);
    const sim::ShardStats& db = cluster.last_stats();
    EXPECT_TRUE(db.double_buffered);
    EXPECT_EQ(db.compute_cycles, count * (b0 + b1));
    EXPECT_EQ(db.item_cycles, count * (b0 + b1));
    EXPECT_EQ(db.transfer_cycles, count * tx);
    EXPECT_EQ(db.transfer_bytes,
              count * timesteps * plan.stages[0].boundary_bytes);
    EXPECT_EQ(db.transfer_stall_cycles, count * tx);
    EXPECT_EQ(db.fill_cycles, b0 + tx);
    EXPECT_EQ(db.drain_cycles, tx + b1);
    EXPECT_EQ(db.makespan_cycles, count * b0 + tx + b1);
    EXPECT_GT(db.speedup(), 1.0);

    // Without double-buffering the producing shard drives its own
    // transfers: stage 0 is occupied B0 + tx per item.
    sim::SiaCluster serial_tx(config, model, plan,
                              {.threads = 2, .double_buffer = false});
    const auto results2 = serial_tx.run_batch(sim::as_batch(inputs));
    for (const auto& r : results2) expect_same(r, ref, {.cycles = true});
    const sim::ShardStats& nodb = serial_tx.last_stats();
    EXPECT_EQ(nodb.makespan_cycles, count * (b0 + tx) + b1);
    EXPECT_GT(nodb.makespan_cycles, db.makespan_cycles);
}

// ---- the shard planner ----

TEST(ShardPlanner, SkipConnectionsBlockIllegalCuts) {
    const core::SiaCompiler compiler{};
    const auto model = skip_model(31);
    // Layer 2 ("down") reads its residual from layer 0, so the only
    // legal boundaries are before layer 1 and before layer 3: asking for
    // 4 stages must clamp to the 3 legal ones.
    const auto plan = compiler.compile_sharded(
        model, {.partition = core::ShardPartition::kPipeline, .shards = 4});
    ASSERT_EQ(plan.effective_shards(), 3);
    EXPECT_EQ(plan.stages[0].first, 0U);
    EXPECT_EQ(plan.stages[0].last, 1U);
    EXPECT_EQ(plan.stages[1].first, 1U);
    EXPECT_EQ(plan.stages[1].last, 3U);
    EXPECT_EQ(plan.stages[2].first, 3U);
    EXPECT_EQ(plan.stages[2].last, 4U);
    EXPECT_EQ(plan.stages[0].boundary_bytes, plan.program.layers[0].spike_out_bytes);
    EXPECT_EQ(plan.stages[1].boundary_bytes, plan.program.layers[2].spike_out_bytes);
    EXPECT_EQ(plan.stages[2].boundary_bytes, 0);
    for (const auto& stage : plan.stages) EXPECT_GT(stage.est_cycles, 0);
}

TEST(ShardPlanner, PipelineClampsToLayerCount) {
    const core::SiaCompiler compiler{};
    const auto plan = compiler.compile_sharded(
        mlp_model(37),
        {.partition = core::ShardPartition::kPipeline, .shards = 8});
    EXPECT_EQ(plan.effective_shards(), 2);  // a 2-layer model has one cut
    EXPECT_EQ(plan.stages[0].last, plan.stages[1].first);
}

TEST(ShardPlanner, ChannelSlicesAreBalancedAndCoverEveryLayer) {
    const core::SiaCompiler compiler{};
    const auto model = mlp_model(41);
    const auto plan = compiler.compile_sharded(
        model, {.partition = core::ShardPartition::kChannel, .shards = 8});
    ASSERT_EQ(plan.slices.size(), 8U);
    for (std::size_t l = 0; l < model.layers.size(); ++l) {
        SCOPED_TRACE("layer " + std::to_string(l));
        const std::int64_t channels = l == 0 ? 12 : 4;
        std::int64_t covered = 0;
        std::int64_t widest = 0;
        std::int64_t narrowest = channels;
        for (std::size_t k = 0; k < plan.slices.size(); ++k) {
            const auto& slice = plan.slices[k][l];
            EXPECT_EQ(slice.c0, covered);  // contiguous, in shard order
            covered = slice.c1;
            const std::int64_t span = slice.c1 - slice.c0;
            widest = std::max(widest, span);
            narrowest = std::min(narrowest, span);
        }
        EXPECT_EQ(covered, channels);
        EXPECT_LE(widest - narrowest, 1);  // balanced to within one channel
    }
    // Sliced plans carry sliced transfer volumes.
    const auto& s0 = plan.slices[0][0];
    EXPECT_LT(s0.plan.weight_stream_bytes, plan.program.layers[0].weight_stream_bytes);
    EXPECT_EQ(plan.slices[7][1].c1 - plan.slices[7][1].c0, 0);  // surplus shard
}

TEST(ShardPlanner, RejectsNonPositiveShards) {
    const core::SiaCompiler compiler{};
    EXPECT_THROW((void)compiler.compile_sharded(mlp_model(43), {.shards = 0}),
                 std::invalid_argument);
}

// ---- streaming sessions through a cluster ----

TEST(ShardCluster, SessionWindowsMatchSingleSiaWindowByWindow) {
    const sim::SiaConfig config;
    const core::SiaCompiler compiler(config);
    std::vector<NamedModel> models;
    models.push_back({"conv", conv_model(47)});
    models.push_back({"mlp", mlp_model(53)});

    for (const auto& [name, model] : models) {
        SCOPED_TRACE(name);
        const auto windows = random_batch(model, 3, 4, 59);
        const auto program = compiler.compile(model);

        for (const auto partition :
             {core::ShardPartition::kPipeline, core::ShardPartition::kChannel}) {
            SCOPED_TRACE(sim::to_string(partition));
            sim::Sia single(config, model, program);
            snn::SessionState ref_session;
            sim::SiaCluster cluster(
                config, model,
                compiler.compile_sharded(model,
                                         {.partition = partition, .shards = 2}),
                {.threads = 8});
            snn::SessionState cluster_session;

            for (std::size_t w = 0; w < windows.size(); ++w) {
                SCOPED_TRACE("window=" + std::to_string(w));
                const auto want = single.run(windows[w], ref_session, {});
                const std::array items{
                    sim::BatchItem{windows[w], &cluster_session, nullptr}};
                const auto got = std::move(cluster.run_batch(items).front());
                expect_same(got, want,
                            {.cycles = partition == core::ShardPartition::kPipeline});
                // The carried state itself is bit-identical after every
                // window — N chunked windows equal one monolithic run.
                EXPECT_EQ(cluster_session.membranes, ref_session.membranes);
                EXPECT_EQ(cluster_session.readout, ref_session.readout);
                EXPECT_EQ(cluster_session.steps, ref_session.steps);
                EXPECT_EQ(cluster_session.windows, ref_session.windows);
            }
        }
    }
}

// ---- serving backend ----

TEST(ShardedBackend, MatchesSingleSiaThroughBatchRunner) {
    const sim::SiaConfig config;
    const auto model = conv_model(61);
    const auto inputs = random_batch(model, 8, 4, 67);
    const core::SiaCompiler compiler(config);
    const auto program = compiler.compile(model);
    sim::Sia single(config, model, program);
    std::vector<sim::SiaRunResult> ref;
    for (const auto& train : inputs) ref.push_back(single.run(train));

    const auto requests = view_requests(inputs);

    for (const auto partition :
         {core::ShardPartition::kPipeline, core::ShardPartition::kChannel}) {
        SCOPED_TRACE(sim::to_string(partition));
        auto backend = std::make_shared<core::ShardedSiaBackend>(
            model, config,
            core::ShardOptions{.partition = partition, .shards = 2});
        core::BatchRunner runner(backend, {.threads = 4});
        const auto responses = runner.run(requests);
        ASSERT_EQ(responses.size(), inputs.size());
        for (std::size_t i = 0; i < responses.size(); ++i) {
            SCOPED_TRACE("item=" + std::to_string(i));
            ASSERT_TRUE(responses[i].ok());
            expect_same(responses[i], ref[i],
                        {.cycles = partition == core::ShardPartition::kPipeline});
        }
        EXPECT_EQ(backend->name(), "sia-cluster");
        const auto stats = backend->take_shard_stats();
        EXPECT_EQ(stats.partition, partition);
        EXPECT_EQ(stats.batch, inputs.size());
        EXPECT_GT(stats.makespan_cycles, 0);
        EXPECT_EQ(backend->take_shard_stats().batch, 0U);  // drained
    }
}

// ---- the RAII partition guard ----

TEST(PartitionGuard, RestoresSingleContextOnScopeExitAndThrow) {
    sim::PingPongMembrane membrane(1024);
    EXPECT_EQ(membrane.contexts(), 1);
    {
        const sim::PartitionGuard guard(membrane, 4);
        EXPECT_EQ(membrane.contexts(), 4);
    }
    EXPECT_EQ(membrane.contexts(), 1);

    EXPECT_THROW(
        {
            const sim::PartitionGuard guard(membrane, 4);
            EXPECT_EQ(membrane.contexts(), 4);
            throw std::runtime_error("wave died");
        },
        std::runtime_error);
    EXPECT_EQ(membrane.contexts(), 1);
}

TEST(PartitionGuard, MidWaveThrowLeavesSiaRepartitioned) {
    // An output bank too small for the conv spike packing throws
    // std::out_of_range mid-wave — after run_batch partitioned the
    // membrane into `banks` contexts. The guard must restore the
    // single-context partitioning on the way out.
    const auto model = conv_model(71);
    sim::SiaConfig config;
    config.output_bytes = 4;  // conv layers pack 18 bytes
    const auto program = core::SiaCompiler(config).compile(model);
    sim::Sia sia(config, model, program);
    ASSERT_EQ(sia.memory().membrane.contexts(), 1);

    const auto inputs = random_batch(model, 3, 4, 73);
    EXPECT_THROW((void)sia.run_batch(sim::as_batch(inputs)), std::out_of_range);
    EXPECT_EQ(sia.memory().membrane.contexts(), 1);
}

TEST(PartitionGuard, ThrowingBatchThenRunIsBitIdentical) {
    const auto model = conv_model(79);
    const sim::SiaConfig config;
    const auto program = core::SiaCompiler(config).compile(model);
    const auto inputs = random_batch(model, 2, 4, 83);

    sim::Sia fresh(config, model, program);
    const auto ref = fresh.run(inputs[0]);

    sim::Sia sia(config, model, program);
    auto bad = inputs;
    bad.push_back(snn::SpikeTrain{});
    EXPECT_THROW((void)sia.run_batch(sim::as_batch(bad)), std::invalid_argument);
    expect_same(sia.run(inputs[0]), ref, {.cycles = true});
}

// ---- compiler diagnostics ----

TEST(CompilerErrors, ValidationNamesTheOffendingLayer) {
    sim::SiaConfig config;
    config.residual_bytes = 4;  // the residual path stages 18 bytes
    const core::SiaCompiler compiler(config);
    const auto model = skip_model(89);
    try {
        (void)compiler.compile(model);
        FAIL() << "compile() should have rejected the residual traffic";
    } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("SiaCompiler::compile: layer 1 (conv 'res')"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("residual traffic exceeds residual memory"),
                  std::string::npos)
            << what;
    }
}

}  // namespace
}  // namespace sia
