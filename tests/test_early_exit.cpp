// Temporal early-exit equivalence matrix (docs/ARCHITECTURE.md §10):
//
//   * exit OFF  — requests without a criterion are bit-identical across
//     backends (functional / sia / sia-cluster), thread counts {1, 8},
//     and shard counts {1, 2, 4};
//   * exit ON   — a fixed criterion yields bit-identical results —
//     steps_used, exit reason, logits — across batch composition,
//     thread count, and backend, and non-exiting items are bit-identical
//     to the full-T run;
//   * the criterion is a pure function of the item's own readout
//     sequence (offline evaluation over recorded history reproduces the
//     live decision exactly);
//   * session windows exit on their window's readout delta and never
//     corrupt the carried SessionState;
//   * serving: Request::with_early_exit rides waves, continuous
//     batching, and sessions; malformed criteria resolve as
//     kInvalidRequest without harming batchmates.
#include <gtest/gtest.h>

#include <array>
#include <future>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/backend.hpp"
#include "core/batch_runner.hpp"
#include "core/compiler.hpp"
#include "core/server.hpp"
#include "sim/sia.hpp"
#include "sim/sia_cluster.hpp"
#include "snn/engine.hpp"
#include "snn/exit.hpp"
#include "snn/session.hpp"
#include "support.hpp"

namespace sia {
namespace {

using namespace test;

snn::ExitCriterion modest_exit() {
    return {.margin = 20, .stable_checks = 0, .min_steps = 2, .hysteresis = 1,
            .check_interval = 1};
}

// ---- the criterion is a pure function of the readout sequence ----

TEST(EarlyExit, OfflineEvaluationReproducesTheLiveDecision) {
    const auto model = conv_model(11);
    const auto inputs = random_batch(model, 8, 10, 111);
    snn::FunctionalEngine engine(model);
    const snn::ExitCriterion crit = modest_exit();

    for (std::size_t i = 0; i < inputs.size(); ++i) {
        SCOPED_TRACE("item=" + std::to_string(i));
        const auto full = engine.run(inputs[i]);
        ASSERT_EQ(full.logits_per_step.size(), inputs[i].size());

        // Offline: replay the recorded history through an evaluator.
        snn::ExitEvaluator eval(crit, {});
        std::int64_t exit_step = full.timesteps;
        snn::ExitReason reason = snn::ExitReason::kNone;
        for (std::size_t t = 0; t < full.logits_per_step.size(); ++t) {
            reason = eval.observe(full.logits_per_step[t],
                                  static_cast<std::int64_t>(t) + 1);
            if (reason != snn::ExitReason::kNone) {
                exit_step = static_cast<std::int64_t>(t) + 1;
                break;
            }
        }

        // Live: the engine's in-loop decision must match, and the steps
        // that ran must be the full run's prefix bit-for-bit.
        const auto live = engine.run(inputs[i], crit);
        EXPECT_EQ(live.timesteps, exit_step);
        EXPECT_EQ(live.exit_reason, reason);
        EXPECT_EQ(live.steps_offered, static_cast<std::int64_t>(inputs[i].size()));
        ASSERT_EQ(live.logits_per_step.size(), static_cast<std::size_t>(exit_step));
        for (std::size_t t = 0; t < live.logits_per_step.size(); ++t) {
            EXPECT_EQ(live.logits_per_step[t], full.logits_per_step[t]);
        }
        EXPECT_EQ(live.readout,
                  full.logits_per_step[static_cast<std::size_t>(exit_step) - 1]);
    }
}

// ---- exit OFF: bit-identical across backends, threads, shards ----

TEST(EarlyExit, OffBitIdenticalAcrossBackendsThreadsAndShards) {
    const auto model = conv_model(13);
    const std::int64_t timesteps = 5;
    const auto inputs = random_batch(model, 12, timesteps, 131);

    snn::FunctionalEngine reference(model);
    std::vector<snn::RunResult> ref;
    for (const auto& t : inputs) ref.push_back(reference.run(t));

    const auto requests = view_requests(inputs);

    std::vector<std::shared_ptr<core::Backend>> backends;
    backends.push_back(std::make_shared<core::FunctionalBackend>(model));
    backends.push_back(std::make_shared<core::SiaBackend>(model, sim::SiaConfig{}));
    for (const std::int64_t shards : {std::int64_t{1}, std::int64_t{2},
                                      std::int64_t{4}}) {
        backends.push_back(std::make_shared<core::ShardedSiaBackend>(
            model, sim::SiaConfig{},
            core::ShardOptions{.partition = sim::ShardPartition::kPipeline,
                               .shards = shards}));
    }

    for (const auto& backend : backends) {
        for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
            SCOPED_TRACE(std::string(backend->name()) + " threads=" +
                         std::to_string(threads));
            core::BatchRunner runner(backend, {.threads = threads});
            const auto responses = runner.run(requests);
            ASSERT_EQ(responses.size(), inputs.size());
            for (std::size_t i = 0; i < responses.size(); ++i) {
                SCOPED_TRACE("item=" + std::to_string(i));
                expect_same(responses[i], ref[i]);
                EXPECT_EQ(responses[i].steps_used, timesteps);
                EXPECT_EQ(responses[i].steps_offered, timesteps);
                EXPECT_EQ(responses[i].exit_reason, snn::ExitReason::kNone);
            }
        }
    }
}

// ---- exit ON: bit-identical across composition, threads, backends ----

TEST(EarlyExit, OnBitIdenticalAcrossCompositionThreadsAndBackends) {
    const auto model = conv_model(17);
    const std::int64_t timesteps = 8;
    const auto inputs = random_batch(model, 12, timesteps, 171);
    const snn::ExitCriterion crit = modest_exit();

    // Reference: every item alone through the functional engine.
    snn::FunctionalEngine engine(model);
    std::vector<core::Response> ref;
    for (const auto& t : inputs) ref.push_back(core::Response::from(engine.run(t, crit)));
    bool any_exited = false;
    for (const auto& r : ref) any_exited |= r.steps_used < timesteps;
    ASSERT_TRUE(any_exited) << "criterion never fired; matrix is vacuous";

    std::vector<core::Request> requests;
    for (const auto& t : inputs) {
        requests.push_back(core::Request::view_train(t).with_early_exit(crit));
    }

    std::vector<std::shared_ptr<core::Backend>> backends;
    backends.push_back(std::make_shared<core::FunctionalBackend>(model));
    backends.push_back(std::make_shared<core::SiaBackend>(model, sim::SiaConfig{}));
    for (const auto partition : {sim::ShardPartition::kPipeline,
                                 sim::ShardPartition::kChannel}) {
        for (const std::int64_t shards : {std::int64_t{2}, std::int64_t{4}}) {
            backends.push_back(std::make_shared<core::ShardedSiaBackend>(
                model, sim::SiaConfig{},
                core::ShardOptions{.partition = partition, .shards = shards}));
        }
    }

    for (const auto& backend : backends) {
        for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
            // Batch composition: full batch, then split submissions.
            for (const std::size_t split : {std::size_t{12}, std::size_t{5}}) {
                SCOPED_TRACE(std::string(backend->name()) + " threads=" +
                             std::to_string(threads) + " split=" +
                             std::to_string(split));
                core::BatchRunner runner(backend, {.threads = threads});
                std::vector<core::Response> responses;
                for (std::size_t at = 0; at < requests.size(); at += split) {
                    const std::size_t hi = std::min(requests.size(), at + split);
                    const std::vector<core::Request> sub(
                        requests.begin() + static_cast<std::ptrdiff_t>(at),
                        requests.begin() + static_cast<std::ptrdiff_t>(hi));
                    auto part = runner.run(sub);
                    for (auto& r : part) responses.push_back(std::move(r));
                }
                ASSERT_EQ(responses.size(), ref.size());
                for (std::size_t i = 0; i < responses.size(); ++i) {
                    SCOPED_TRACE("item=" + std::to_string(i));
                    expect_same(responses[i], ref[i]);
                }
            }
        }
    }
}

TEST(EarlyExit, NonExitingItemsBitIdenticalToFullRun) {
    const auto model = conv_model(19);
    const std::int64_t timesteps = 6;
    const auto inputs = random_batch(model, 6, timesteps, 191);
    const snn::ExitCriterion never = unreachable_exit();

    snn::FunctionalEngine engine(model);
    const auto program = core::SiaCompiler(sim::SiaConfig{}).compile(model);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        SCOPED_TRACE("item=" + std::to_string(i));
        const auto full = engine.run(inputs[i]);
        const auto armed = engine.run(inputs[i], never);
        EXPECT_EQ(armed.timesteps, timesteps);
        EXPECT_EQ(armed.exit_reason, snn::ExitReason::kNone);
        expect_same(armed, full);

        sim::Sia sia(sim::SiaConfig{}, model, program);
        const auto sim_full = sia.run(inputs[i]);
        const std::array item{sim::BatchItem{inputs[i], nullptr, &never}};
        const auto sim_armed = std::move(sia.run_batch(item).front());
        EXPECT_EQ(sim_armed.timesteps, timesteps);
        EXPECT_EQ(sim_armed.exit_reason, snn::ExitReason::kNone);
        // An armed criterion costs readout checks: the cycles differ.
        expect_same(sim_armed, sim_full);
    }
}

// ---- history off: the serving default still answers everything ----

TEST(EarlyExit, HistoryOffKeepsFinalReadoutAndDecisions) {
    const auto model = conv_model(23);
    const auto inputs = random_batch(model, 4, 6, 231);
    const snn::ExitCriterion crit = modest_exit();

    snn::FunctionalEngine with_history(model);
    snn::EngineConfig lean_config;
    lean_config.record_readout_history = false;
    snn::FunctionalEngine lean(model, lean_config);

    for (std::size_t i = 0; i < inputs.size(); ++i) {
        SCOPED_TRACE("item=" + std::to_string(i));
        const auto want = with_history.run(inputs[i], crit);
        const auto got = lean.run(inputs[i], crit);
        EXPECT_TRUE(got.logits_per_step.empty());
        expect_same(got, want, {.history = false});
        EXPECT_EQ(got.predicted(), want.predicted());
    }

    // Through the unified surface: Response::logits/predicted() stand in
    // for the missing history.
    core::BatchRunner runner(
        std::make_shared<core::FunctionalBackend>(model, lean_config),
        {.threads = 2});
    std::vector<core::Request> requests;
    for (const auto& t : inputs) {
        requests.push_back(core::Request::view_train(t).with_early_exit(crit));
    }
    const auto responses = runner.run(requests);
    for (std::size_t i = 0; i < responses.size(); ++i) {
        SCOPED_TRACE("item=" + std::to_string(i));
        EXPECT_TRUE(responses[i].logits_per_step.empty());
        const auto want = with_history.run(inputs[i], crit);
        expect_same(responses[i], want, {.history = false});
        EXPECT_EQ(responses[i].predicted(), want.predicted());
    }
}

// ---- sessions: window-delta semantics, carried state never corrupted ----

TEST(EarlyExit, SessionWindowExitsOnItsOwnDeltaNotTheCarriedLead) {
    const auto model = conv_model(29);
    const auto windows = random_batch(model, 3, 6, 291);
    const snn::ExitCriterion crit = modest_exit();

    // Reference: full-attention windows (no criterion), recording the
    // carried readout at each window boundary.
    snn::FunctionalEngine engine(model);
    snn::SessionState full_session;
    std::vector<std::vector<std::int64_t>> carried;  // readout at entry of window w
    carried.emplace_back(static_cast<std::size_t>(model.classes), 0);
    std::vector<snn::RunResult> full_windows;
    for (const auto& w : windows) {
        full_windows.push_back(engine.run_window(w, full_session));
        carried.push_back(full_session.readout);
    }

    // A later window inherits a readout lead from its predecessors. The
    // criterion must evaluate the window's OWN delta: replay window 1's
    // absolute rows against the carried baseline offline, then check the
    // live session run agrees.
    snn::ExitEvaluator eval(crit, carried[1]);
    std::int64_t expect_steps = full_windows[1].timesteps;
    snn::ExitReason expect_reason = snn::ExitReason::kNone;
    for (std::size_t t = 0; t < full_windows[1].logits_per_step.size(); ++t) {
        expect_reason = eval.observe(full_windows[1].logits_per_step[t],
                                     static_cast<std::int64_t>(t) + 1);
        if (expect_reason != snn::ExitReason::kNone) {
            expect_steps = static_cast<std::int64_t>(t) + 1;
            break;
        }
    }

    snn::SessionState session;
    const auto w0 = engine.run_window(windows[0], session);
    ASSERT_EQ(session.readout, carried[1]);
    const auto w1 = engine.run_window(windows[1], session, crit);
    EXPECT_EQ(w1.timesteps, expect_steps);
    EXPECT_EQ(w1.exit_reason, expect_reason);

    // The carried state reflects the exit point exactly: window 2 after
    // the early-exited window is bit-identical to a full-attention run
    // over (window0 + window1-prefix + window2) on a fresh engine.
    const auto w2 = engine.run_window(windows[2], session);
    snn::SpikeTrain concat = windows[0];
    concat.insert(concat.end(), windows[1].begin(),
                  windows[1].begin() + expect_steps);
    concat.insert(concat.end(), windows[2].begin(), windows[2].end());
    snn::FunctionalEngine fresh(model);
    const auto mono = fresh.run(concat);
    EXPECT_EQ(session.readout, mono.readout);
    EXPECT_EQ(w2.readout, mono.readout);

    // And the sim engine walks the identical session path.
    const auto program = core::SiaCompiler(sim::SiaConfig{}).compile(model);
    sim::Sia sia(sim::SiaConfig{}, model, program);
    snn::SessionState sim_session;
    (void)sia.run(windows[0], sim_session, {});
    const auto sim_w1 = sia.run(windows[1], sim_session, crit);
    EXPECT_EQ(sim_w1.timesteps, expect_steps);
    EXPECT_EQ(sim_w1.exit_reason, expect_reason);
    expect_same(sim_w1, w1);
    const auto sim_w2 = sia.run(windows[2], sim_session, {});
    EXPECT_EQ(sim_session.readout, mono.readout);
    EXPECT_EQ(sim_w2.readout, mono.readout);
}

// ---- serving: criteria ride waves, bad criteria fail alone ----

TEST(EarlyExit, ServerRunsEarlyExitRequestsAndReportsSteps) {
    const auto model = conv_model(31);
    const std::int64_t timesteps = 8;
    const auto inputs = random_batch(model, 10, timesteps, 311);
    const snn::ExitCriterion crit = modest_exit();

    // Reference decisions from the functional engine.
    snn::FunctionalEngine engine(model);
    std::vector<core::Response> ref;
    for (const auto& t : inputs) ref.push_back(core::Response::from(engine.run(t, crit)));

    core::ServerOptions options;
    options.threads = 4;
    options.max_batch = 4;
    core::Server server(std::make_shared<core::SiaBackend>(model, sim::SiaConfig{}),
                        options);
    std::vector<std::future<core::Response>> futures;
    for (const auto& t : inputs) {
        futures.push_back(server.submit(
            core::Request::from_train(t).with_early_exit(crit)));
    }
    for (std::size_t i = 0; i < futures.size(); ++i) {
        SCOPED_TRACE("item=" + std::to_string(i));
        const auto response = futures[i].get();
        ASSERT_TRUE(response.ok()) << response.error;
        expect_same(response, ref[i]);
    }
}

TEST(EarlyExit, MalformedCriterionFailsAloneAsInvalidRequest) {
    const auto model = conv_model(37);
    const auto inputs = random_batch(model, 6, 5, 371);

    core::ServerOptions options;
    options.threads = 2;
    options.max_batch = 6;
    core::Server server(std::make_shared<core::SiaBackend>(model, sim::SiaConfig{}),
                        options);

    snn::ExitCriterion bad = modest_exit();
    bad.min_steps = 0;  // validate() rejects
    std::vector<std::future<core::Response>> futures;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        auto request = core::Request::from_train(inputs[i]);
        if (i == 2) request = std::move(request).with_early_exit(bad);
        futures.push_back(server.submit(std::move(request)));
    }
    for (std::size_t i = 0; i < futures.size(); ++i) {
        SCOPED_TRACE("item=" + std::to_string(i));
        const auto response = futures[i].get();
        if (i == 2) {
            EXPECT_EQ(response.error_code, core::ErrorCode::kInvalidRequest);
            EXPECT_EQ(response.retries, 0U);
        } else {
            EXPECT_TRUE(response.ok()) << response.error;
            EXPECT_EQ(response.steps_used, 5);
        }
    }
}

// Valid but extreme criterion fields (a client's request may carry any
// int64) must not overflow the segment arithmetic of the layer-major
// engines: every backend agrees with the functional engine, which
// evaluates the criterion step by step.
TEST(EarlyExit, ExtremeCriterionFieldsAgreeAcrossBackends) {
    const auto model = conv_model(39);
    const auto inputs = random_batch(model, 4, 6, 391);
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    const std::vector<snn::ExitCriterion> criteria = {
        {.margin = kMax, .min_steps = 1, .check_interval = kMax},
        {.stable_checks = kMax, .min_steps = 3, .check_interval = kMax - 1},
        {.margin = 1, .min_steps = kMax, .check_interval = kMax},
        {.margin = kMax, .stable_checks = kMax, .hysteresis = kMax},
        {.margin = 1, .min_steps = 2, .check_interval = kMax},
    };
    std::vector<std::shared_ptr<core::Backend>> backends;
    backends.push_back(std::make_shared<core::SiaBackend>(model, sim::SiaConfig{}));
    for (const auto partition : {sim::ShardPartition::kPipeline, sim::ShardPartition::kChannel}) {
        backends.push_back(std::make_shared<core::ShardedSiaBackend>(
            model, sim::SiaConfig{}, core::ShardOptions{.partition = partition, .shards = 2}));
    }
    snn::FunctionalEngine reference(model);
    for (std::size_t c = 0; c < criteria.size(); ++c) {
        SCOPED_TRACE("criterion=" + std::to_string(c));
        std::vector<core::Request> requests;
        std::vector<core::Response> ref;
        for (const auto& t : inputs) {
            requests.push_back(core::Request::view_train(t).with_early_exit(criteria[c]));
            ref.push_back(core::Response::from(reference.run(t, criteria[c])));
        }
        for (const auto& backend : backends) {
            SCOPED_TRACE(std::string(backend->name()));
            core::BatchRunner runner(backend, {.threads = 2});
            const auto responses = runner.run(requests);
            for (std::size_t i = 0; i < responses.size(); ++i) {
                expect_same(responses[i], ref[i]);
            }
        }
    }
}

TEST(EarlyExit, ServerSessionWindowsWithEarlyExitStayCoherent) {
    const auto model = conv_model(41);
    const auto windows = random_batch(model, 3, 6, 411);
    const snn::ExitCriterion crit = modest_exit();

    // Reference: the engine session path (already proven equivalent to
    // the monolithic run above).
    snn::FunctionalEngine engine(model);
    snn::SessionState ref_session;
    std::vector<snn::RunResult> ref;
    ref.push_back(engine.run_window(windows[0], ref_session));
    ref.push_back(engine.run_window(windows[1], ref_session, crit));
    ref.push_back(engine.run_window(windows[2], ref_session));

    core::ServerOptions options;
    options.threads = 2;
    core::Server server(std::make_shared<core::SiaBackend>(model, sim::SiaConfig{}),
                        options);
    std::vector<std::future<core::Response>> futures;
    futures.push_back(server.submit(
        core::Request::from_train(windows[0]).with_session("dvs-0")));
    futures.push_back(server.submit(core::Request::from_train(windows[1])
                                        .with_session("dvs-0")
                                        .with_early_exit(crit)));
    futures.push_back(server.submit(
        core::Request::from_train(windows[2]).with_session("dvs-0", true)));
    for (std::size_t w = 0; w < futures.size(); ++w) {
        SCOPED_TRACE("window=" + std::to_string(w));
        const auto response = futures[w].get();
        ASSERT_TRUE(response.ok()) << response.error;
        expect_same(response, ref[w]);
        EXPECT_EQ(response.window_seq, w);
    }
}

// ---- the cluster's stats see the retirement ----

TEST(EarlyExit, ClusterReportsRetirementAcrossShards) {
    const auto model = conv_model(43);
    const std::int64_t timesteps = 8;
    const auto inputs = random_batch(model, 6, timesteps, 431);
    const snn::ExitCriterion crit = modest_exit();

    const auto program = core::SiaCompiler(sim::SiaConfig{}).compile(model);
    sim::Sia solo(sim::SiaConfig{}, model, program);
    std::vector<sim::SiaRunResult> ref;
    for (const auto& t : inputs) {
        const std::array item{sim::BatchItem{t, nullptr, &crit}};
        ref.push_back(std::move(solo.run_batch(item).front()));
    }

    for (const auto partition : {sim::ShardPartition::kPipeline,
                                 sim::ShardPartition::kChannel}) {
        SCOPED_TRACE(to_string(partition));
        sim::SiaCluster cluster(
            sim::SiaConfig{}, model,
            core::SiaCompiler(sim::SiaConfig{})
                .compile_sharded(model, {.partition = partition, .shards = 2}));
        std::vector<sim::BatchItem> items;
        for (const auto& t : inputs) items.push_back({t, nullptr, &crit});
        const auto results = cluster.run_batch(items);
        std::int64_t executed = 0;
        std::int64_t retired = 0;
        for (std::size_t i = 0; i < results.size(); ++i) {
            SCOPED_TRACE("item=" + std::to_string(i));
            expect_same(results[i], ref[i],
                        {.cycles = partition == sim::ShardPartition::kPipeline});
            executed += results[i].timesteps;
            if (results[i].timesteps < timesteps) ++retired;
        }
        const sim::ShardStats& stats = cluster.last_stats();
        EXPECT_EQ(stats.steps_executed, executed);
        EXPECT_EQ(stats.steps_offered,
                  static_cast<std::int64_t>(inputs.size()) * timesteps);
        EXPECT_EQ(stats.retired_early, retired);
        EXPECT_GT(stats.makespan_cycles, 0);
    }
}

}  // namespace
}  // namespace sia
