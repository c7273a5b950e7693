// core::Backend API tests: the equivalence matrix proving the batched
// Request path is bit-identical to sequential single-engine references
// (per thread count, per backend), backend caching, failed-batch stats
// and session-commit semantics, and the Request/Response surface itself
// (mixed encodings, stream pinning, owned vs borrowed inputs,
// backend-specific response extras).
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/backend.hpp"
#include "core/batch_runner.hpp"
#include "core/compiler.hpp"
#include "core/faulty_backend.hpp"
#include "sim/sia.hpp"
#include "snn/encoding.hpp"
#include "snn/engine.hpp"
#include "snn/session.hpp"
#include "support.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"

namespace sia {
namespace {

using namespace test;

// ---- the equivalence matrix: batched Request path vs sequential refs ----

TEST(BackendEquivalence, FunctionalMatchesSequentialEngine) {
    const auto model = conv_model(7, 2);
    const auto batch = random_batch(model, 6, 5, 17);
    const auto requests = view_requests(batch);

    snn::FunctionalEngine engine(model);
    std::vector<snn::RunResult> reference;
    for (const auto& t : batch) reference.push_back(engine.run(t));

    for (const std::size_t threads : {1UL, 2UL, 8UL}) {
        core::BatchRunner unified(std::make_shared<core::FunctionalBackend>(model),
                                  {.threads = threads});
        const auto responses = unified.run(requests);

        ASSERT_EQ(responses.size(), reference.size());
        for (std::size_t i = 0; i < responses.size(); ++i) {
            SCOPED_TRACE("threads=" + std::to_string(threads) + " item=" +
                         std::to_string(i));
            expect_same(responses[i], reference[i]);
        }
    }
}

TEST(BackendEquivalence, ThermometerRequestsMatchManualEncode) {
    const auto model = conv_model(5, 2);
    const auto images = random_images(model, 5, 29);
    const std::int64_t timesteps = 6;
    std::vector<core::Request> requests;
    for (const auto& img : images) {
        requests.push_back(core::Request::view_thermometer(img, timesteps));
    }

    snn::FunctionalEngine engine(model);
    std::vector<snn::RunResult> reference;
    for (const auto& img : images) {
        reference.push_back(engine.run(snn::encode_thermometer(img, timesteps)));
    }

    for (const std::size_t threads : {1UL, 2UL, 8UL}) {
        core::BatchRunner unified(std::make_shared<core::FunctionalBackend>(model),
                                  {.threads = threads});
        const auto responses = unified.run(requests);
        ASSERT_EQ(responses.size(), reference.size());
        for (std::size_t i = 0; i < responses.size(); ++i) {
            SCOPED_TRACE("threads=" + std::to_string(threads) + " item=" +
                         std::to_string(i));
            expect_same(responses[i], reference[i]);
        }
    }
}

TEST(BackendEquivalence, PoissonRequestsDrawPerItemStreams) {
    const auto model = conv_model(5, 2);
    const auto images = random_images(model, 7, 43);
    const std::int64_t timesteps = 6;
    const std::uint64_t seed = 77;
    std::vector<core::Request> requests;
    for (const auto& img : images) {
        requests.push_back(core::Request::view_poisson(img, timesteps));
    }

    // Reference: item i encodes from stream i of the batch seed,
    // independent of any batching/thread placement.
    snn::FunctionalEngine engine(model);
    std::vector<snn::RunResult> reference;
    for (std::size_t i = 0; i < images.size(); ++i) {
        util::Rng rng(util::mix_seed(seed, i));
        reference.push_back(engine.run(snn::encode_poisson(images[i], timesteps, rng)));
    }

    for (const std::size_t threads : {1UL, 2UL, 8UL}) {
        core::BatchRunner unified(std::make_shared<core::FunctionalBackend>(model),
                                  {.threads = threads, .seed = seed});
        const auto responses = unified.run(requests);
        ASSERT_EQ(responses.size(), reference.size());
        for (std::size_t i = 0; i < responses.size(); ++i) {
            SCOPED_TRACE("threads=" + std::to_string(threads) + " item=" +
                         std::to_string(i));
            expect_same(responses[i], reference[i]);
        }
    }
}

TEST(BackendEquivalence, SiaBackendMatchesSequentialSia) {
    const auto model = conv_model(11, 2);
    const auto batch = random_batch(model, 5, 4, 31);
    const auto requests = view_requests(batch);

    const sim::SiaConfig config;
    const auto program = core::SiaCompiler(config).compile(model);
    std::vector<sim::SiaRunResult> reference;
    for (const auto& t : batch) {
        sim::Sia sia(config, model, program);
        reference.push_back(sia.run(t));
    }

    for (const std::size_t threads : {1UL, 2UL, 8UL}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        core::BatchRunner unified(std::make_shared<core::SiaBackend>(model, config),
                                  {.threads = threads});
        const auto responses = unified.run(requests);

        ASSERT_EQ(responses.size(), reference.size());
        for (std::size_t i = 0; i < responses.size(); ++i) {
            SCOPED_TRACE("item=" + std::to_string(i));
            // Cycle stats must survive the unified Response intact.
            expect_same(responses[i], reference[i], {.cycles = true});
        }
    }
}

// ---- the Request/Response surface ----

TEST(BackendApi, ResponseCarriesBackendSpecificExtras) {
    const auto model = conv_model(7, 2);
    const auto batch = random_batch(model, 2, 4, 17);
    const std::vector<core::Request> requests = {core::Request::view_train(batch[0]),
                                                 core::Request::view_train(batch[1])};

    core::BatchRunner functional(std::make_shared<core::FunctionalBackend>(model),
                                 {.threads = 2});
    const auto f = functional.run(requests);
    ASSERT_EQ(f.size(), 2U);
    EXPECT_FALSE(f[0].layer_dispatch.empty());
    EXPECT_FALSE(f[0].has_cycle_stats());

    core::BatchRunner sim_runner(std::make_shared<core::SiaBackend>(model),
                                 {.threads = 2});
    const auto s = sim_runner.run(requests);
    ASSERT_EQ(s.size(), 2U);
    EXPECT_TRUE(s[0].layer_dispatch.empty());
    EXPECT_TRUE(s[0].has_cycle_stats());
    EXPECT_GT(s[0].total_cycles(), 0);

    // Shared numerics: both backends agree on logits and spikes.
    for (std::size_t i = 0; i < 2; ++i) {
        expect_same(f[i], s[i]);
        EXPECT_EQ(f[i].predicted_class(f[i].timesteps - 1),
                  s[i].predicted_class(s[i].timesteps - 1));
    }
}

TEST(BackendApi, MixedEncodingsInOneBatch) {
    const auto model = conv_model(9, 2);
    const auto batch = random_batch(model, 1, 6, 19);
    const auto images = random_images(model, 2, 23);
    const std::int64_t timesteps = 6;
    const std::uint64_t seed = 91;

    std::vector<core::Request> requests;
    requests.push_back(core::Request::view_train(batch[0]));
    requests.push_back(core::Request::view_thermometer(images[0], timesteps));
    requests.push_back(core::Request::view_poisson(images[1], timesteps));

    core::BatchRunner runner(std::make_shared<core::FunctionalBackend>(model),
                             {.threads = 2, .seed = seed});
    const auto responses = runner.run(requests);
    ASSERT_EQ(responses.size(), 3U);

    snn::FunctionalEngine engine(model);
    expect_same(responses[0], engine.run(batch[0]));
    expect_same(responses[1], engine.run(snn::encode_thermometer(images[0], timesteps)));
    util::Rng rng(util::mix_seed(seed, 2));  // stream = batch position 2
    expect_same(responses[2], engine.run(snn::encode_poisson(images[1], timesteps, rng)));
}

TEST(BackendApi, RngStreamPinningDecouplesResultsFromBatchPosition) {
    const auto model = conv_model(9, 2);
    const auto images = random_images(model, 3, 37);
    const std::int64_t timesteps = 5;
    core::BatchRunner runner(std::make_shared<core::FunctionalBackend>(model),
                             {.threads = 2, .seed = 5});

    // Reference: image 2 encoded at batch position 2 (default stream).
    std::vector<core::Request> plain;
    for (const auto& img : images) {
        plain.push_back(core::Request::view_poisson(img, timesteps));
    }
    const auto reference = runner.run(plain);

    // Pin image 2's stream to 2, then submit it alone: identical result.
    auto pinned = core::Request::view_poisson(images[2], timesteps);
    pinned.rng_stream = 2;
    const auto alone = runner.run(std::vector<core::Request>{std::move(pinned)});
    ASSERT_EQ(alone.size(), 1U);
    expect_same(alone[0], reference[2]);
}

TEST(BackendApi, OwnedAndBorrowedInputsAreEquivalent) {
    const auto model = conv_model(13, 2);
    const auto batch = random_batch(model, 2, 4, 41);
    core::BatchRunner runner(std::make_shared<core::FunctionalBackend>(model),
                             {.threads = 2});

    const auto borrowed = view_requests(batch);
    std::vector<core::Request> owned;
    for (const auto& t : batch) owned.push_back(core::Request::from_train(t));

    const auto a = runner.run(borrowed);
    const auto b = runner.run(owned);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        expect_same(a[i], b[i]);
    }
}

TEST(BackendApi, MalformedImageRequestThrows) {
    const auto model = conv_model(7, 2);
    const auto images = random_images(model, 1, 3);
    core::BatchRunner runner(std::make_shared<core::FunctionalBackend>(model),
                             {.threads = 1});
    EXPECT_THROW(
        (void)runner.run(
            std::vector<core::Request>{core::Request::view_thermometer(images[0], 0)}),
        std::invalid_argument);
    EXPECT_FALSE(runner.last_stats().completed);
}

// ---- SiaConfig equality & cache invalidation ----

TEST(SiaConfigKey, EqualityCoversEveryObservableField) {
    const sim::SiaConfig base;
    EXPECT_TRUE(base == sim::SiaConfig{});

    sim::SiaConfig pe = base;
    pe.pe_rows = 16;
    EXPECT_FALSE(base == pe);

    sim::SiaConfig mmio = base;
    mmio.mmio_cycles_per_word *= 2;
    EXPECT_FALSE(base == mmio);

    sim::SiaConfig banks = base;
    banks.membrane_banks = 8;
    EXPECT_FALSE(base == banks);

    sim::SiaConfig clock = base;
    clock.clock_mhz = 200.0;
    EXPECT_FALSE(base == clock);
}

TEST(SiaConfigKey, BackendConfigReachesProgramAndResidentSias) {
    const auto model = conv_model(11, 2);
    const auto batch = random_batch(model, 3, 4, 31);
    const auto requests = view_requests(batch);

    const sim::SiaConfig config_a;
    sim::SiaConfig config_b;
    config_b.mmio_cycles_per_word *= 4;  // slower PS<->PL word transfers

    // One worker: resident-Sia construction then deterministically lands
    // in the first batch (with more workers, a worker that received no
    // units builds its simulator in a later batch).
    core::BatchRunner runner_a(std::make_shared<core::SiaBackend>(model, config_a),
                               {.threads = 1});
    const auto first_a = runner_a.run(requests);
    EXPECT_GT(runner_a.last_stats().setup_ms, 0.0);  // compiled + built Sias

    (void)runner_a.run(requests);
    EXPECT_EQ(runner_a.last_stats().setup_ms, 0.0);  // warm: program + Sias cached

    // A backend built over a different config must actually reach the
    // simulators: identical numerics, different cycle accounting.
    core::BatchRunner runner_b(std::make_shared<core::SiaBackend>(model, config_b),
                               {.threads = 1});
    const auto first_b = runner_b.run(requests);
    EXPECT_GT(runner_b.last_stats().setup_ms, 0.0);  // compiled for B
    for (std::size_t i = 0; i < batch.size(); ++i) {
        expect_same(first_b[i], first_a[i]);
        EXPECT_GT(first_b[i].total_cycles(), first_a[i].total_cycles());
    }

    // Reruns through the warm A backend stay identical, cycles included.
    const auto second_a = runner_a.run(requests);
    for (std::size_t i = 0; i < batch.size(); ++i) {
        expect_same(second_a[i], first_a[i], {.cycles = true});
    }
}

// ---- BatchStats failure semantics (via a custom backend: the API is
// open precisely so tests and exotic engines can implement it) ----

class FlakyBackend final : public core::Backend {
public:
    explicit FlakyBackend(const snn::SnnModel& model) : Backend(model) {}

    [[nodiscard]] std::string_view name() const noexcept override { return "flaky"; }
    void prepare(std::size_t) override {}
    void run_span(std::size_t /*worker*/, std::span<const core::Request> requests,
                  std::span<core::Response> responses, std::size_t base,
                  std::uint64_t /*seed*/) override {
        for (std::size_t i = 0; i < requests.size(); ++i) {
            if (fail_at >= 0 && base + i == static_cast<std::size_t>(fail_at)) {
                throw std::runtime_error("injected failure");
            }
            core::Response r;
            r.logits_per_step = {{static_cast<std::int64_t>(base + i)}};
            r.timesteps = 1;
            responses[i] = std::move(r);
        }
    }

    int fail_at = -1;
};

TEST(BatchStatsSemantics, FailedBatchIsMarkedAndConsistent) {
    const auto model = conv_model(7, 2);
    auto backend = std::make_shared<FlakyBackend>(model);
    core::BatchRunner runner(backend, {.threads = 2});

    std::vector<core::Request> requests(8);

    backend->fail_at = 3;
    EXPECT_THROW((void)runner.run(requests), std::runtime_error);
    const auto failed = runner.last_stats();
    EXPECT_FALSE(failed.completed);
    EXPECT_EQ(failed.inputs, 8U);
    EXPECT_EQ(failed.threads, 2U);
    EXPECT_GE(failed.wall_ms, 0.0);
    EXPECT_GE(failed.run_ms, 0.0);
    EXPECT_EQ(failed.inputs_per_sec(), 0.0);  // no throughput for a failed batch

    // The next successful batch starts from a clean slate: stats are not
    // polluted by the failed batch's residue.
    backend->fail_at = -1;
    const auto responses = runner.run(requests);
    ASSERT_EQ(responses.size(), 8U);
    for (std::size_t i = 0; i < responses.size(); ++i) {
        EXPECT_EQ(responses[i].logits_per_step[0][0], static_cast<std::int64_t>(i));
    }
    const auto ok = runner.last_stats();
    EXPECT_TRUE(ok.completed);
    EXPECT_EQ(ok.setup_ms, 0.0);
    EXPECT_GT(ok.inputs_per_sec(), 0.0);
}

// ---- session commit point ----

// BatchRunner::run is all-or-nothing for carried state. The poisoned
// request is the last one, so its span is claimed only after every
// earlier span was, and claimed spans always run to completion: the
// earlier sessions' windows finish before the batch throws, yet none of
// them may land. A clean re-run then advances every session exactly
// once, matching a sequential engine session.
TEST(SessionCommit, ThrowingBatchLeavesEverySessionUntouched) {
    const auto model = conv_model(31, 2);
    const auto first = random_batch(model, 4, 3, 77);
    const auto second = random_batch(model, 4, 3, 78);
    const sim::SiaConfig config;

    std::vector<snn::SessionState> expected(first.size());
    snn::FunctionalEngine engine(model);
    for (std::size_t i = 0; i < first.size(); ++i) {
        (void)engine.run_window(first[i], expected[i]);
        (void)engine.run_window(second[i], expected[i]);
    }

    const std::vector<std::function<std::shared_ptr<core::Backend>()>> makers = {
        [&] { return std::make_shared<core::FunctionalBackend>(model); },
        [&] { return std::make_shared<core::SiaBackend>(model, config); },
    };
    for (const auto& make : makers) {
        const std::shared_ptr<core::Backend> backend = make();
        SCOPED_TRACE(std::string(backend->name()));
        std::vector<core::Request> requests;
        for (const auto& train : first) {
            core::Request r = core::Request::view_train(train);
            r.session_state = std::make_shared<snn::SessionState>();
            requests.push_back(std::move(r));
        }
        core::BatchRunner clean(backend, {.threads = 2});
        (void)clean.run(requests);
        for (std::size_t i = 0; i < requests.size(); ++i) {
            requests[i].train_view = &second[i];
        }
        std::vector<snn::SessionState> before;
        for (const auto& r : requests) before.push_back(*r.session_state);

        util::FaultPlan plan;
        plan.fail_streams = {requests.size() - 1};
        core::BatchRunner faulty(std::make_shared<core::FaultyBackend>(make(), plan),
                                 {.threads = 2});
        EXPECT_THROW((void)faulty.run(requests), std::runtime_error);
        for (std::size_t i = 0; i < requests.size(); ++i) {
            EXPECT_EQ(*requests[i].session_state, before[i]) << "session " << i;
        }

        const auto responses = clean.run(requests);
        for (std::size_t i = 0; i < requests.size(); ++i) {
            EXPECT_EQ(*requests[i].session_state, expected[i]) << "session " << i;
            EXPECT_FALSE(responses[i].staged_session.has_value());
            EXPECT_EQ(responses[i].session_steps, 6);
        }
    }
}

}  // namespace
}  // namespace sia
