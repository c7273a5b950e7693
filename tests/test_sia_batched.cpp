// Batched resident sim::Sia equivalence matrix: batched execution must
// be bit-identical — spikes, logits, and per-layer cycle stats — to
// independent sequential Sia::run calls and (for spikes/logits) to the
// snn::FunctionalEngine reference, across batch sizes, thread counts,
// and model shapes, and for executors sharing one weight image; plus
// wave/residency accounting and edge cases.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/batch_runner.hpp"
#include "core/compiler.hpp"
#include "sim/sia.hpp"
#include "snn/compute.hpp"
#include "snn/engine.hpp"
#include "support.hpp"
#include "util/rng.hpp"

namespace sia {
namespace {

using namespace test;

struct NamedModel {
    const char* name;
    snn::SnnModel model;
};

// ---- the equivalence matrix ----

TEST(SiaBatched, MatrixBatchedEqualsSequentialEqualsFunctional) {
    const sim::SiaConfig config;
    const std::int64_t timesteps = 4;
    const std::array<std::size_t, 4> batch_sizes = {1, 2, 7, 32};
    const std::array<std::size_t, 3> thread_counts = {1, 2, 8};

    std::vector<NamedModel> models;
    models.push_back({"conv", conv_model(101)});
    models.push_back({"mlp", mlp_model(102)});

    for (const auto& [name, model] : models) {
        SCOPED_TRACE(name);
        const auto inputs = random_batch(model, 32, timesteps, 777);

        // Sequential references: one resident simulator run item by item,
        // and the functional engine.
        const auto program = core::SiaCompiler(config).compile(model);
        sim::Sia sequential(config, model, program);
        snn::FunctionalEngine functional(model);
        std::vector<sim::SiaRunResult> sim_ref;
        std::vector<snn::RunResult> fun_ref;
        for (const auto& train : inputs) {
            sim_ref.push_back(sequential.run(train));
            fun_ref.push_back(functional.run(train));
        }

        // Direct batched execution on one instance (single-threaded).
        for (const std::size_t bs : batch_sizes) {
            SCOPED_TRACE("direct batch=" + std::to_string(bs));
            const std::vector<snn::SpikeTrain> sub(inputs.begin(),
                                                   inputs.begin() +
                                                       static_cast<std::ptrdiff_t>(bs));
            sim::Sia resident(config, model, program);
            const auto batched = resident.run_batch(sim::as_batch(sub));
            ASSERT_EQ(batched.size(), bs);
            for (std::size_t i = 0; i < bs; ++i) {
                SCOPED_TRACE("item=" + std::to_string(i));
                expect_same(batched[i], sim_ref[i], {.cycles = true});
                expect_same(batched[i], fun_ref[i]);
            }
            EXPECT_EQ(resident.last_batch_stats().chunk_passes,
                      (static_cast<std::int64_t>(bs) + config.membrane_banks - 1) /
                          config.membrane_banks);
        }

        // Sias and engines sharing one weight image, each executor pair
        // on its own thread, against the references that built their own
        // images.
        {
            SCOPED_TRACE("shared weight image");
            constexpr std::size_t kExecutors = 4;
            const auto image = snn::compute::event_weights(model);
            std::vector<sim::SiaRunResult> sim_shared(inputs.size());
            std::vector<snn::RunResult> fun_shared(inputs.size());
            std::vector<std::thread> executors;
            for (std::size_t e = 0; e < kExecutors; ++e) {
                executors.emplace_back([&, e] {
                    sim::Sia sia(config, model, program, image);
                    snn::FunctionalEngine engine(model, {}, image);
                    for (std::size_t i = e; i < inputs.size(); i += kExecutors) {
                        sim_shared[i] = sia.run(inputs[i]);
                        fun_shared[i] = engine.run(inputs[i]);
                    }
                });
            }
            for (auto& t : executors) t.join();
            for (std::size_t i = 0; i < inputs.size(); ++i) {
                SCOPED_TRACE("item=" + std::to_string(i));
                expect_same(sim_shared[i], sim_ref[i], {.cycles = true});
                expect_same(fun_shared[i], fun_ref[i]);
            }
        }

        // Threaded resident scheduling through BatchRunner + SiaBackend.
        for (const std::size_t threads : thread_counts) {
            core::BatchRunner runner(std::make_shared<core::SiaBackend>(model, config),
                                     {.threads = threads});
            for (const std::size_t bs : batch_sizes) {
                SCOPED_TRACE("threads=" + std::to_string(threads) + " batch=" +
                             std::to_string(bs));
                const std::vector<snn::SpikeTrain> sub(
                    inputs.begin(), inputs.begin() + static_cast<std::ptrdiff_t>(bs));
                const auto results = runner.run(view_requests(sub));
                ASSERT_EQ(results.size(), bs);
                for (std::size_t i = 0; i < bs; ++i) {
                    SCOPED_TRACE("item=" + std::to_string(i));
                    expect_same(results[i], sim_ref[i], {.cycles = true});
                    expect_same(results[i], fun_ref[i]);
                }
                EXPECT_EQ(runner.last_stats().inputs, bs);
            }
        }
    }
}

// ---- waves, banking, and residency accounting ----

TEST(SiaBatched, OversizedBatchRunsInWavesAndAmortizes) {
    const auto model = conv_model(7);
    const auto inputs = random_batch(model, 7, 4, 71);

    sim::SiaConfig config;
    config.membrane_banks = 2;  // batch of 7 -> 4 waves
    const auto program = core::SiaCompiler(config).compile(model);

    sim::Sia sequential(config, model, program);
    std::vector<sim::SiaRunResult> ref;
    for (const auto& train : inputs) ref.push_back(sequential.run(train));

    sim::Sia resident(config, model, program);
    const auto batched = resident.run_batch(sim::as_batch(inputs));
    ASSERT_EQ(batched.size(), inputs.size());
    for (std::size_t i = 0; i < batched.size(); ++i) {
        SCOPED_TRACE("item=" + std::to_string(i));
        expect_same(batched[i], ref[i], {.cycles = true});
    }

    const sim::SiaBatchStats& stats = resident.last_batch_stats();
    EXPECT_EQ(stats.batch, 7U);
    EXPECT_EQ(stats.banks, 2);
    EXPECT_EQ(stats.chunk_passes, 4);
    EXPECT_EQ(stats.membrane_slice_bytes, config.membrane_bytes / 2 / 2);
    EXPECT_TRUE(stats.membrane_resident);  // tiny model: 288 B/layer per context

    // Kernels streamed once per wave, not once per inference.
    EXPECT_EQ(stats.weight_bytes_sequential,
              7 * program.dma_weight_stream_bytes());
    EXPECT_EQ(stats.weight_bytes_streamed, 4 * program.dma_weight_stream_bytes());

    // Residency strictly cheaper than independent runs; sequential total
    // equals the sum of the (as-if-sequential) per-item results.
    std::int64_t item_total = 0;
    for (const auto& r : batched) item_total += r.total_cycles();
    EXPECT_EQ(stats.sequential_cycles, item_total);
    EXPECT_LT(stats.resident_cycles, stats.sequential_cycles);
    EXPECT_GT(stats.amortization(), 1.0);
}

TEST(SiaBatched, ReportsWhenMembranesOverflowTheContextSlice) {
    // A model that fits one full phase bank but not a 1/banks slice:
    // results stay bit-exact (overflow host-mirrors), but the stats must
    // say the wave was not genuinely membrane-resident.
    const auto model = conv_model(31);  // peak layer potentials: 288 bytes
    const auto inputs = random_batch(model, 4, 4, 33);

    sim::SiaConfig config;
    config.membrane_bytes = 1024;  // full bank 512 B >= 288, slice 128 B < 288
    config.membrane_banks = 4;
    const auto program = core::SiaCompiler(config).compile(model);
    ASSERT_EQ(program.layers[0].spatial_tiles, 1);  // sequential mode fits

    sim::Sia sequential(config, model, program);
    sim::Sia resident(config, model, program);
    const auto batched = resident.run_batch(sim::as_batch(inputs));
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        SCOPED_TRACE("item=" + std::to_string(i));
        expect_same(batched[i], sequential.run(inputs[i]), {.cycles = true});
    }
    EXPECT_EQ(resident.last_batch_stats().membrane_slice_bytes, 128);
    EXPECT_FALSE(resident.last_batch_stats().membrane_resident);
}

TEST(SiaBatched, BatchOfOneHasNothingToAmortize) {
    const auto model = mlp_model(9);
    const auto inputs = random_batch(model, 1, 5, 91);
    const sim::SiaConfig config;
    const auto program = core::SiaCompiler(config).compile(model);

    sim::Sia sia(config, model, program);
    const auto ref = sia.run(inputs[0]);
    const auto batched = sia.run_batch(sim::as_batch(inputs));
    ASSERT_EQ(batched.size(), 1U);
    expect_same(batched[0], ref, {.cycles = true});

    const sim::SiaBatchStats& stats = sia.last_batch_stats();
    EXPECT_EQ(stats.chunk_passes, 1);
    EXPECT_EQ(stats.weight_bytes_streamed, stats.weight_bytes_sequential);
    EXPECT_EQ(stats.resident_cycles, stats.sequential_cycles);
}

TEST(SiaBatched, EmptyBatch) {
    const auto model = conv_model(3);
    const sim::SiaConfig config;
    const auto program = core::SiaCompiler(config).compile(model);

    sim::Sia sia(config, model, program);
    EXPECT_TRUE(sia.run_batch({}).empty());
    EXPECT_EQ(sia.last_batch_stats().chunk_passes, 0);

    core::BatchRunner runner(std::make_shared<core::SiaBackend>(model, config),
                             {.threads = 2});
    EXPECT_TRUE(runner.run(std::vector<core::Request>{}).empty());
    EXPECT_EQ(runner.last_stats().inputs, 0U);
}

TEST(SiaBatched, EmptyTrainInBatchThrows) {
    const auto model = conv_model(3);
    const sim::SiaConfig config;
    const auto program = core::SiaCompiler(config).compile(model);
    sim::Sia sia(config, model, program);

    auto inputs = random_batch(model, 2, 4, 13);
    inputs.push_back(snn::SpikeTrain{});
    EXPECT_THROW((void)sia.run_batch(sim::as_batch(inputs)), std::invalid_argument);

    // The instance recovers: single runs still work after the failed batch.
    const auto ok = random_batch(model, 1, 4, 14);
    EXPECT_NO_THROW((void)sia.run(ok[0]));
}

TEST(SiaBatched, MisShapedFramesRejectedWithoutCriterion) {
    // A 1x2x2 train against a 2x6x6 conv model: the criterion-free path
    // must reject it at admission (as FunctionalEngine::run does), not
    // index past the frame's packed words.
    const auto model = conv_model(61);
    const sim::SiaConfig config;
    const auto program = core::SiaCompiler(config).compile(model);
    sim::Sia sia(config, model, program);
    const snn::SpikeTrain bad(4, snn::SpikeMap(1, 2, 2));

    EXPECT_THROW((void)sia.run(bad), std::invalid_argument);
    auto inputs = random_batch(model, 3, 4, 611);
    inputs.push_back(bad);
    EXPECT_THROW((void)sia.run_batch(sim::as_batch(inputs)), std::invalid_argument);
    // One bad frame in an otherwise well-formed train is caught too.
    inputs.back() = inputs.front();
    inputs.back()[2] = snn::SpikeMap(2, 6, 5);
    EXPECT_THROW((void)sia.run_batch(sim::as_batch(inputs)), std::invalid_argument);
    EXPECT_EQ(sia.memory().membrane.contexts(), 1);

    snn::FunctionalEngine engine(model);
    EXPECT_THROW((void)engine.run(bad), std::invalid_argument);
}

TEST(SiaBatched, ThrowingBatchLeavesEverySessionUntouched) {
    // Layer 0 packs 9 output bytes, layer 1 packs 18: with a 12-byte
    // output bank every item's layer-0 pass succeeds and the first
    // layer-1 pass throws. Sessions are committed only once the batch
    // completes, so every user session must equal its pre-call copy.
    util::Rng rng(67);
    snn::SnnModel model;
    model.input_channels = 2;
    model.input_h = 6;
    model.input_w = 6;
    std::int64_t in_c = 2;
    for (const std::int64_t out_c : {std::int64_t{2}, std::int64_t{4}}) {
        snn::SnnLayer layer;
        layer.op = snn::LayerOp::kConv;
        layer.label = "conv" + std::to_string(model.layers.size());
        layer.input = static_cast<int>(model.layers.size()) - 1;
        auto& b = layer.main;
        b.in_channels = in_c;
        b.out_channels = out_c;
        b.kernel = 3;
        b.stride = 1;
        b.padding = 1;
        b.weights.resize(static_cast<std::size_t>(in_c * out_c * 9));
        for (auto& w : b.weights) w = static_cast<std::int8_t>(rng.integer(-127, 127));
        b.gain.assign(static_cast<std::size_t>(out_c), 1000);
        b.bias.assign(static_cast<std::size_t>(out_c), 0);
        layer.out_channels = out_c;
        layer.out_h = layer.out_w = layer.in_h = layer.in_w = 6;
        model.layers.push_back(std::move(layer));
        in_c = out_c;
    }
    snn::SnnLayer fc;
    fc.op = snn::LayerOp::kLinear;
    fc.label = "fc";
    fc.input = 1;
    fc.spiking = false;
    fc.main.in_features = 4 * 6 * 6;
    fc.main.out_features = 4;
    fc.main.weights.assign(static_cast<std::size_t>(fc.main.in_features * 4), 3);
    fc.main.gain.assign(4, 256);
    fc.main.bias.assign(4, 0);
    fc.out_channels = 4;
    model.layers.push_back(std::move(fc));
    model.classes = 4;
    model.validate();

    sim::SiaConfig config;
    config.output_bytes = 12;
    const auto program = core::SiaCompiler(config).compile(model);
    const auto inputs = random_batch(model, 5, 4, 671);

    // Carried state from earlier windows (initialized sessions with
    // distinctive membranes), plus one fresh session.
    std::vector<snn::SessionState> sessions(inputs.size());
    for (std::size_t i = 0; i + 1 < sessions.size(); ++i) {
        snn::SessionState& s = sessions[i];
        s.initialized = true;
        s.steps = 8 + static_cast<std::int64_t>(i);
        s.windows = 2;
        s.readout.assign(4, static_cast<std::int64_t>(i) - 2);
        s.membranes.resize(model.layers.size());
        for (std::size_t l = 0; l < 2; ++l) {
            s.membranes[l].assign(static_cast<std::size_t>(model.layers[l].neurons()),
                                  static_cast<std::int16_t>(10 * i + l));
        }
    }
    const std::vector<snn::SessionState> before = sessions;
    std::vector<sim::BatchItem> items;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        items.push_back({inputs[i], &sessions[i], nullptr});
    }

    sim::Sia sia(config, model, program);
    EXPECT_THROW((void)sia.run_batch(items), std::out_of_range);
    for (std::size_t i = 0; i < sessions.size(); ++i) {
        SCOPED_TRACE("item=" + std::to_string(i));
        EXPECT_EQ(sessions[i].membranes, before[i].membranes);
        EXPECT_EQ(sessions[i].readout, before[i].readout);
        EXPECT_EQ(sessions[i].steps, before[i].steps);
        EXPECT_EQ(sessions[i].windows, before[i].windows);
        EXPECT_EQ(sessions[i].initialized, before[i].initialized);
    }
}

// ---- ragged retirement (temporal early exit) ----

/// Fires at the first evaluated step unless the readout is exactly tied.
snn::ExitCriterion eager_exit() {
    return {.margin = 1, .stable_checks = 0, .min_steps = 1, .hysteresis = 1,
            .check_interval = 1};
}

/// One stateless item with a criterion, run alone.
sim::SiaRunResult run_with_exit(sim::Sia& sia, const snn::SpikeTrain& train,
                                const snn::ExitCriterion& exit) {
    const std::array items{sim::BatchItem{train, nullptr, &exit}};
    return std::move(sia.run_batch(items).front());
}

/// Stateless items over `inputs` with per-item criteria.
std::vector<sim::BatchItem> exit_batch(const std::vector<snn::SpikeTrain>& inputs,
                                       const std::vector<const snn::ExitCriterion*>& exits) {
    std::vector<sim::BatchItem> items;
    for (std::size_t i = 0; i < exits.size(); ++i) {
        items.push_back({inputs[i], nullptr, exits[i]});
    }
    return items;
}

TEST(SiaBatched, RaggedRetirementMatchesSoloRunsAcrossCompositions) {
    const auto model = conv_model(41);
    const std::int64_t timesteps = 6;
    const auto inputs = random_batch(model, 32, timesteps, 411);
    const snn::ExitCriterion eager = eager_exit();
    const snn::ExitCriterion never = unreachable_exit();

    for (const std::int64_t banks : {std::int64_t{1}, std::int64_t{4}}) {
        sim::SiaConfig config;
        config.membrane_banks = banks;
        const auto program = core::SiaCompiler(config).compile(model);

        // Solo references: each item alone on a fresh instance with its
        // own criterion (alternating eager / full-train).
        std::vector<sim::SiaRunResult> ref;
        for (std::size_t i = 0; i < inputs.size(); ++i) {
            sim::Sia solo(config, model, program);
            ref.push_back(run_with_exit(solo, inputs[i], i % 2 == 0 ? eager : never));
        }

        for (const std::size_t bs : {std::size_t{2}, std::size_t{7}, std::size_t{32}}) {
            SCOPED_TRACE("banks=" + std::to_string(banks) + " batch=" +
                         std::to_string(bs));
            std::vector<const snn::ExitCriterion*> exits;
            for (std::size_t i = 0; i < bs; ++i) {
                exits.push_back(i % 2 == 0 ? &eager : &never);
            }
            sim::Sia resident(config, model, program);
            const auto batched = resident.run_batch(exit_batch(inputs, exits));
            ASSERT_EQ(batched.size(), bs);
            std::int64_t executed = 0;
            std::int64_t retired = 0;
            for (std::size_t i = 0; i < bs; ++i) {
                SCOPED_TRACE("item=" + std::to_string(i));
                expect_same(batched[i], ref[i], {.cycles = true});
                executed += batched[i].timesteps;
                if (batched[i].exit_reason != snn::ExitReason::kNone &&
                    batched[i].timesteps < timesteps) {
                    ++retired;
                }
                ASSERT_LT(i, resident.last_batch_stats().retired_at.size());
                EXPECT_EQ(resident.last_batch_stats().retired_at[i],
                          batched[i].timesteps);
            }
            const sim::SiaBatchStats& stats = resident.last_batch_stats();
            EXPECT_EQ(stats.steps_executed, executed);
            EXPECT_EQ(stats.steps_offered,
                      static_cast<std::int64_t>(bs) * timesteps);
            EXPECT_EQ(stats.retired_early, retired);
        }
    }
}

TEST(SiaBatched, RaggedRetirementOnLastWaveSlot) {
    // Only the item in the wave's last bank slot retires early: its
    // context frees while slots 0..2 keep running — the schedule must
    // narrow without disturbing them.
    const auto model = conv_model(43);
    const std::int64_t timesteps = 6;
    const auto inputs = random_batch(model, 4, timesteps, 431);
    sim::SiaConfig config;
    config.membrane_banks = 4;
    const auto program = core::SiaCompiler(config).compile(model);
    const snn::ExitCriterion eager = eager_exit();
    const snn::ExitCriterion never = unreachable_exit();

    std::vector<sim::SiaRunResult> ref;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        sim::Sia solo(config, model, program);
        ref.push_back(run_with_exit(solo, inputs[i], i == 3 ? eager : never));
    }
    ASSERT_NE(ref[3].exit_reason, snn::ExitReason::kNone);
    ASSERT_LT(ref[3].timesteps, timesteps);

    const std::vector<const snn::ExitCriterion*> exits{&never, &never, &never,
                                                       &eager};
    sim::Sia resident(config, model, program);
    const auto batched = resident.run_batch(exit_batch(inputs, exits));
    for (std::size_t i = 0; i < 4; ++i) {
        SCOPED_TRACE("item=" + std::to_string(i));
        expect_same(batched[i], ref[i], {.cycles = true});
    }
    EXPECT_EQ(resident.last_batch_stats().retired_early, 1);
}

TEST(SiaBatched, RaggedMidWaveThrowRestoresPartitioning) {
    // Item 2's frame past the first evaluation boundary has the wrong
    // geometry. Admission checks every frame of every item, so the batch
    // is rejected before any segment runs, and the instance stays usable.
    const auto model = conv_model(47);
    auto inputs = random_batch(model, 3, 5, 471);
    // Item 2: poison a frame past the first evaluation boundary.
    inputs[2][3] = snn::SpikeMap(1, 2, 2);
    sim::SiaConfig config;
    config.membrane_banks = 2;
    const auto program = core::SiaCompiler(config).compile(model);
    const snn::ExitCriterion eager = eager_exit();
    // Evaluates at steps 1, 3, ...: the second segment spans [1, 3) and
    // never fires, so item 2's bad frame at index 3 is reached in the
    // third round — well after item 0 retired.
    const snn::ExitCriterion stepper{.margin = 1'000'000'000, .stable_checks = 0,
                                     .min_steps = 1, .hysteresis = 1,
                                     .check_interval = 2};

    const std::vector<const snn::ExitCriterion*> exits{&eager, &stepper, &stepper};
    sim::Sia sia(config, model, program);
    EXPECT_THROW((void)sia.run_batch(exit_batch(inputs, exits)), std::invalid_argument);

    // The instance recovers: single and batched runs still work.
    const auto ok = random_batch(model, 2, 4, 472);
    EXPECT_NO_THROW((void)sia.run(ok[0]));
    EXPECT_NO_THROW((void)sia.run_batch(sim::as_batch(ok)));
}

TEST(SiaBatched, RaggedBackfillOrderingIsDeterministic) {
    // More items than bank slots, early retirements: freed slots
    // back-fill from the pending queue. Two identical calls must agree
    // exactly, and every item must match its solo run.
    const auto model = conv_model(53);
    const auto inputs = random_batch(model, 5, 6, 531);
    sim::SiaConfig config;
    config.membrane_banks = 2;
    const auto program = core::SiaCompiler(config).compile(model);
    const snn::ExitCriterion eager = eager_exit();
    const snn::ExitCriterion never = unreachable_exit();
    const std::vector<const snn::ExitCriterion*> exits{&eager, &never, &eager,
                                                       &never, &eager};

    const auto items = exit_batch(inputs, exits);

    sim::Sia first(config, model, program);
    const auto run1 = first.run_batch(items);
    const auto stats1 = first.last_batch_stats();
    sim::Sia second(config, model, program);
    const auto run2 = second.run_batch(items);
    const auto stats2 = second.last_batch_stats();

    ASSERT_EQ(run1.size(), run2.size());
    for (std::size_t i = 0; i < run1.size(); ++i) {
        SCOPED_TRACE("item=" + std::to_string(i));
        expect_same(run1[i], run2[i], {.cycles = true});
        sim::Sia solo(config, model, program);
        expect_same(run1[i], run_with_exit(solo, inputs[i], *exits[i]), {.cycles = true});
    }
    EXPECT_EQ(stats1.retired_at, stats2.retired_at);
    EXPECT_EQ(stats1.backfills, stats2.backfills);
    EXPECT_EQ(stats1.chunk_passes, stats2.chunk_passes);
    EXPECT_GT(stats1.backfills, 0);
    EXPECT_GT(stats1.retired_early, 0);
}

TEST(SiaBatched, DisabledCriteriaRunExactLegacySchedule) {
    // All-null / all-disabled criteria must produce the legacy wave
    // schedule bit-for-bit, including the residency accounting.
    const auto model = conv_model(59);
    const auto inputs = random_batch(model, 7, 4, 591);
    sim::SiaConfig config;
    config.membrane_banks = 2;
    const auto program = core::SiaCompiler(config).compile(model);

    sim::Sia legacy(config, model, program);
    const auto want = legacy.run_batch(sim::as_batch(inputs));
    const auto want_stats = legacy.last_batch_stats();

    const snn::ExitCriterion disabled{};  // margin 0, stable 0: not armed
    const std::vector<const snn::ExitCriterion*> exits(7, &disabled);
    sim::Sia via_exits(config, model, program);
    const auto got = via_exits.run_batch(exit_batch(inputs, exits));
    const auto got_stats = via_exits.last_batch_stats();

    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        SCOPED_TRACE("item=" + std::to_string(i));
        expect_same(got[i], want[i], {.cycles = true});
        EXPECT_EQ(got[i].timesteps, 4);
        EXPECT_EQ(got[i].exit_reason, snn::ExitReason::kNone);
    }
    EXPECT_EQ(got_stats.chunk_passes, want_stats.chunk_passes);
    EXPECT_EQ(got_stats.chunk_passes, 4);
    EXPECT_EQ(got_stats.weight_bytes_streamed, want_stats.weight_bytes_streamed);
    EXPECT_EQ(got_stats.weight_bytes_sequential, want_stats.weight_bytes_sequential);
    EXPECT_EQ(got_stats.resident_cycles, want_stats.resident_cycles);
    EXPECT_EQ(got_stats.sequential_cycles, want_stats.sequential_cycles);
    EXPECT_EQ(got_stats.retired_early, 0);
    EXPECT_EQ(got_stats.backfills, 0);
}

TEST(SiaBatched, SingleRunsInterleaveWithBatchedRuns) {
    // A resident instance can alternate run() and run_batch() freely;
    // neither mode leaks state into the other.
    const auto model = conv_model(21);
    const auto inputs = random_batch(model, 5, 4, 23);
    const sim::SiaConfig config;
    const auto program = core::SiaCompiler(config).compile(model);

    sim::Sia fresh(config, model, program);
    const auto ref0 = fresh.run(inputs[0]);

    sim::Sia sia(config, model, program);
    const auto batched = sia.run_batch(sim::as_batch(inputs));
    const auto single = sia.run(inputs[0]);
    expect_same(single, ref0, {.cycles = true});
    const auto batched_again = sia.run_batch(sim::as_batch(inputs));
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        SCOPED_TRACE("item=" + std::to_string(i));
        expect_same(batched_again[i], batched[i], {.cycles = true});
    }
}

}  // namespace
}  // namespace sia
