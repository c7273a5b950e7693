// BatchRunner / ThreadPool tests: batched execution must be bit-identical
// to sequential single-engine runs for every thread count, edge-case
// batches must behave, and the pool must propagate worker exceptions.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "core/batch_runner.hpp"
#include "sim/sia.hpp"
#include "snn/encoding.hpp"
#include "snn/engine.hpp"
#include "support.hpp"
#include "util/thread_pool.hpp"

namespace sia {
namespace {

using namespace test;

// ---- ThreadPool ----

TEST(ThreadPool, RunsEveryItemExactlyOnce) {
    util::ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4U);
    std::vector<std::atomic<int>> hits(100);
    pool.parallel_for(100, [&](std::size_t item, std::size_t worker) {
        ASSERT_LT(worker, 4U);
        hits[item].fetch_add(1);
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ReusableAcrossBatches) {
    util::ThreadPool pool(2);
    std::atomic<int> total{0};
    for (int round = 0; round < 5; ++round) {
        pool.parallel_for(10, [&](std::size_t, std::size_t) { total.fetch_add(1); });
    }
    EXPECT_EQ(total.load(), 50);
}

TEST(ThreadPool, EmptyBatchReturnsImmediately) {
    util::ThreadPool pool(2);
    bool ran = false;
    pool.parallel_for(0, [&](std::size_t, std::size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(ThreadPool, PropagatesWorkerException) {
    util::ThreadPool pool(3);
    EXPECT_THROW(
        pool.parallel_for(20,
                          [&](std::size_t item, std::size_t) {
                              if (item == 7) throw std::runtime_error("boom");
                          }),
        std::runtime_error);
    // Pool survives the failed batch.
    std::atomic<int> total{0};
    pool.parallel_for(4, [&](std::size_t, std::size_t) { total.fetch_add(1); });
    EXPECT_EQ(total.load(), 4);
}

TEST(ThreadPool, ThrowMidBatchCancelsCleanlyAndRethrowsFirstException) {
    // Single worker makes the schedule deterministic: the throw at item 3
    // must cancel every unstarted item (no later lambda runs, so the
    // second would-be exception never materializes), and the rethrown
    // exception must be the first one captured.
    util::ThreadPool pool(1);
    std::vector<std::size_t> ran;
    try {
        pool.parallel_for(10, [&](std::size_t item, std::size_t) {
            ran.push_back(item);
            if (item == 3) throw std::runtime_error("first failure");
            if (item == 5) throw std::logic_error("second failure");
        });
        FAIL() << "parallel_for must rethrow";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "first failure");
    }
    EXPECT_EQ(ran, (std::vector<std::size_t>{0, 1, 2, 3}));

    // The pool stays reusable: full batches run to completion afterwards,
    // repeatedly.
    for (int round = 0; round < 3; ++round) {
        std::atomic<int> total{0};
        pool.parallel_for(8, [&](std::size_t, std::size_t) { total.fetch_add(1); });
        EXPECT_EQ(total.load(), 8) << "round " << round;
    }
}

TEST(ThreadPool, ThrowWithManyWorkersStillDrainsAndRecovers) {
    util::ThreadPool pool(4);
    for (int round = 0; round < 3; ++round) {
        std::atomic<int> started{0};
        // Every item throws: each worker's first item cancels the rest,
        // so at most one item per worker ever starts — a deterministic
        // bound on how far cancellation lets the batch run.
        EXPECT_THROW(pool.parallel_for(64,
                                       [&](std::size_t, std::size_t) {
                                           started.fetch_add(1);
                                           throw std::runtime_error("boom");
                                       }),
                     std::runtime_error);
        EXPECT_GE(started.load(), 1);
        EXPECT_LE(started.load(), 4);
        std::atomic<int> total{0};
        pool.parallel_for(16, [&](std::size_t, std::size_t) { total.fetch_add(1); });
        EXPECT_EQ(total.load(), 16) << "round " << round;
    }
}

// ---- BatchRunner ----

TEST(BatchRunner, BitExactAcrossThreadCounts) {
    const auto model = conv_model(7);
    const auto batch = random_batch(model, 6, 5, 17);

    // Sequential reference: one engine, inputs one after another.
    snn::FunctionalEngine engine(model);
    std::vector<snn::RunResult> reference;
    reference.reserve(batch.size());
    for (const auto& train : batch) reference.push_back(engine.run(train));

    for (const std::size_t threads : {1UL, 2UL, 8UL}) {
        core::BatchRunner runner(std::make_shared<core::FunctionalBackend>(model),
                                 {.threads = threads});
        EXPECT_EQ(runner.threads(), threads);
        const auto results = runner.run(view_requests(batch));
        ASSERT_EQ(results.size(), reference.size());
        for (std::size_t i = 0; i < results.size(); ++i) {
            SCOPED_TRACE("threads=" + std::to_string(threads) + " item=" +
                         std::to_string(i));
            expect_same(results[i], reference[i]);
        }
        EXPECT_EQ(runner.last_stats().inputs, batch.size());
        EXPECT_EQ(runner.last_stats().threads, threads);
    }
}

TEST(BatchRunner, EmptyBatch) {
    const auto model = conv_model(7);
    core::BatchRunner runner(std::make_shared<core::FunctionalBackend>(model),
                             {.threads = 2});
    EXPECT_TRUE(runner.run(std::vector<core::Request>{}).empty());
    EXPECT_EQ(runner.last_stats().inputs, 0U);
}

TEST(BatchRunner, OversizedBatchManyMoreItemsThanThreads) {
    const auto model = conv_model(3);
    const auto batch = random_batch(model, 33, 3, 23);

    snn::FunctionalEngine engine(model);
    core::BatchRunner runner(std::make_shared<core::FunctionalBackend>(model),
                             {.threads = 4});
    const auto results = runner.run(view_requests(batch));
    ASSERT_EQ(results.size(), 33U);
    for (std::size_t i = 0; i < results.size(); ++i) {
        SCOPED_TRACE("item=" + std::to_string(i));
        expect_same(results[i], engine.run(batch[i]));
    }
}

TEST(BatchRunner, RunImagesMatchesManualEncode) {
    const auto model = conv_model(5);
    const std::int64_t timesteps = 6;

    const auto images = random_images(model, 5, 29);

    core::BatchRunner runner(std::make_shared<core::FunctionalBackend>(model),
                             {.threads = 3});
    std::vector<core::Request> requests;
    for (const auto& img : images) {
        requests.push_back(core::Request::view_thermometer(img, timesteps));
    }
    const auto results = runner.run(requests);

    snn::FunctionalEngine engine(model);
    ASSERT_EQ(results.size(), images.size());
    for (std::size_t i = 0; i < images.size(); ++i) {
        SCOPED_TRACE("item=" + std::to_string(i));
        const auto train = snn::encode_thermometer(images[i], timesteps);
        expect_same(results[i], engine.run(train));
    }
}

TEST(BatchRunner, SimBatchMatchesFunctionalLogits) {
    const auto model = conv_model(11);
    const auto batch = random_batch(model, 3, 4, 31);
    const auto requests = view_requests(batch);

    core::BatchRunner functional_runner(std::make_shared<core::FunctionalBackend>(model),
                                        {.threads = 2});
    const auto functional = functional_runner.run(requests);
    core::BatchRunner sim_runner(
        std::make_shared<core::SiaBackend>(model, sim::SiaConfig{}), {.threads = 2});
    const auto simulated = sim_runner.run(requests);

    ASSERT_EQ(simulated.size(), functional.size());
    for (std::size_t i = 0; i < simulated.size(); ++i) {
        SCOPED_TRACE("item=" + std::to_string(i));
        expect_same(simulated[i], functional[i]);
    }
    // Cached program + resident instances: a second batch through the
    // same backend must also agree.
    const auto again = sim_runner.run(requests);
    ASSERT_EQ(again.size(), simulated.size());
    for (std::size_t i = 0; i < again.size(); ++i) {
        expect_same(again[i], simulated[i], {.cycles = true});
    }
}

TEST(BatchRunner, StatsSeparateSetupFromRunTime) {
    const auto model = conv_model(7);
    const auto batch = random_batch(model, 8, 5, 17);
    // One worker: engine/Sia construction then deterministically happens
    // in the first batch (with more workers a worker that received no
    // items builds its engine in a later batch).
    core::BatchRunner runner(std::make_shared<core::FunctionalBackend>(model),
                             {.threads = 1});

    // First batch pays engine construction; it must be attributed to
    // setup_ms, not folded into the per-item run time.
    const auto requests = view_requests(batch);
    (void)runner.run(requests);
    const auto cold = runner.last_stats();
    EXPECT_GT(cold.setup_ms, 0.0);
    EXPECT_GT(cold.run_ms, 0.0);

    // Warm runner: engines are cached, so a second batch reports zero
    // construction time — the amortization made visible.
    (void)runner.run(requests);
    const auto warm = runner.last_stats();
    EXPECT_EQ(warm.setup_ms, 0.0);
    EXPECT_GT(warm.run_ms, 0.0);

    // Same for the resident simulator path: the first batch through a
    // SiaBackend compiles the program and builds per-worker Sia
    // instances, the second reuses both.
    core::BatchRunner sim_runner(
        std::make_shared<core::SiaBackend>(model, sim::SiaConfig{}), {.threads = 1});
    (void)sim_runner.run(requests);
    EXPECT_GT(sim_runner.last_stats().setup_ms, 0.0);
    (void)sim_runner.run(requests);
    EXPECT_EQ(sim_runner.last_stats().setup_ms, 0.0);
}

TEST(BatchRunner, PoissonEncodingIsThreadCountInvariant) {
    const auto model = conv_model(5);
    const std::int64_t timesteps = 6;

    const auto images = random_images(model, 7, 43);

    std::vector<core::Request> requests;
    for (const auto& img : images) {
        requests.push_back(core::Request::view_poisson(img, timesteps));
    }
    core::BatchRunner one(std::make_shared<core::FunctionalBackend>(model),
                          {.threads = 1, .seed = 77});
    core::BatchRunner eight(std::make_shared<core::FunctionalBackend>(model),
                            {.threads = 8, .seed = 77});
    const auto a = one.run(requests);
    const auto b = eight.run(requests);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("item=" + std::to_string(i));
        expect_same(a[i], b[i]);
    }

    // A different batch seed changes the stochastic encoding.
    core::BatchRunner other(std::make_shared<core::FunctionalBackend>(model),
                            {.threads = 2, .seed = 78});
    const auto c = other.run(requests);
    bool any_diff = false;
    for (std::size_t i = 0; i < c.size(); ++i) {
        any_diff = any_diff || c[i].spike_counts != a[i].spike_counts;
    }
    EXPECT_TRUE(any_diff);
}

TEST(BatchRunner, ItemRngStreamsAreThreadCountInvariant) {
    const auto model = conv_model(7);
    core::BatchRunner one(std::make_shared<core::FunctionalBackend>(model),
                          {.threads = 1, .seed = 99});
    core::BatchRunner eight(std::make_shared<core::FunctionalBackend>(model),
                            {.threads = 8, .seed = 99});
    for (std::size_t item = 0; item < 16; ++item) {
        auto a = one.item_rng(item);
        auto b = eight.item_rng(item);
        for (int draw = 0; draw < 8; ++draw) {
            EXPECT_EQ(a.engine()(), b.engine()());
        }
    }
    // Different items get decorrelated streams.
    auto r0 = one.item_rng(0);
    auto r1 = one.item_rng(1);
    EXPECT_NE(r0.engine()(), r1.engine()());
}

}  // namespace
}  // namespace sia
