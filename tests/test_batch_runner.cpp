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
#include "util/thread_pool.hpp"

namespace sia {
namespace {

// ---- compact random model/stimulus helpers (mirrors test_properties) ----

snn::SnnModel small_model(std::uint64_t seed) {
    util::Rng rng(seed);
    snn::SnnModel model;
    model.input_channels = 2;
    model.input_h = 6;
    model.input_w = 6;

    std::int64_t in_c = model.input_channels;
    for (std::int64_t d = 0; d < 3; ++d) {
        snn::SnnLayer layer;
        layer.op = snn::LayerOp::kConv;
        layer.label = "conv" + std::to_string(d);
        layer.input = static_cast<int>(d) - 1;
        auto& b = layer.main;
        b.in_channels = in_c;
        b.out_channels = 4;
        b.kernel = 3;
        b.stride = 1;
        b.padding = 1;
        b.weights.resize(static_cast<std::size_t>(in_c * 4 * 9));
        for (auto& w : b.weights) w = static_cast<std::int8_t>(rng.integer(-127, 127));
        b.gain.resize(4);
        b.bias.resize(4);
        for (auto& g : b.gain) g = static_cast<std::int16_t>(rng.integer(50, 2000));
        for (auto& h : b.bias) h = static_cast<std::int16_t>(rng.integer(-100, 100));
        layer.out_channels = 4;
        layer.out_h = 6;
        layer.out_w = 6;
        layer.in_h = 6;
        layer.in_w = 6;
        model.layers.push_back(std::move(layer));
        in_c = 4;
    }

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
    model.classes = 4;
    model.validate();
    return model;
}

std::vector<snn::SpikeTrain> random_batch(const snn::SnnModel& model, std::size_t count,
                                          std::int64_t timesteps, std::uint64_t seed) {
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

std::vector<core::Request> view_requests(const std::vector<snn::SpikeTrain>& batch) {
    std::vector<core::Request> requests;
    requests.reserve(batch.size());
    for (const auto& t : batch) requests.push_back(core::Request::view_train(t));
    return requests;
}

void expect_same_result(const core::Response& a, const snn::RunResult& b) {
    EXPECT_EQ(a.logits_per_step, b.logits_per_step);
    EXPECT_EQ(a.spike_counts, b.spike_counts);
    EXPECT_EQ(a.neuron_counts, b.neuron_counts);
    EXPECT_EQ(a.timesteps, b.timesteps);
}

void expect_same_result(const core::Response& a, const core::Response& b) {
    EXPECT_EQ(a.logits_per_step, b.logits_per_step);
    EXPECT_EQ(a.spike_counts, b.spike_counts);
    EXPECT_EQ(a.neuron_counts, b.neuron_counts);
    EXPECT_EQ(a.timesteps, b.timesteps);
}

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
    const auto model = small_model(7);
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
            expect_same_result(results[i], reference[i]);
        }
        EXPECT_EQ(runner.last_stats().inputs, batch.size());
        EXPECT_EQ(runner.last_stats().threads, threads);
    }
}

TEST(BatchRunner, EmptyBatch) {
    const auto model = small_model(7);
    core::BatchRunner runner(std::make_shared<core::FunctionalBackend>(model),
                             {.threads = 2});
    EXPECT_TRUE(runner.run(std::vector<core::Request>{}).empty());
    EXPECT_EQ(runner.last_stats().inputs, 0U);
}

TEST(BatchRunner, OversizedBatchManyMoreItemsThanThreads) {
    const auto model = small_model(3);
    const auto batch = random_batch(model, 33, 3, 23);

    snn::FunctionalEngine engine(model);
    core::BatchRunner runner(std::make_shared<core::FunctionalBackend>(model),
                             {.threads = 4});
    const auto results = runner.run(view_requests(batch));
    ASSERT_EQ(results.size(), 33U);
    for (std::size_t i = 0; i < results.size(); ++i) {
        SCOPED_TRACE("item=" + std::to_string(i));
        expect_same_result(results[i], engine.run(batch[i]));
    }
}

TEST(BatchRunner, RunImagesMatchesManualEncode) {
    const auto model = small_model(5);
    const std::int64_t timesteps = 6;

    std::vector<tensor::Tensor> images;
    util::Rng rng(29);
    for (int i = 0; i < 5; ++i) {
        tensor::Tensor img(tensor::Shape{1, model.input_channels, model.input_h,
                                         model.input_w});
        for (std::int64_t j = 0; j < img.numel(); ++j) img.flat(j) = rng.uniform();
        images.push_back(std::move(img));
    }

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
        expect_same_result(results[i], engine.run(train));
    }
}

TEST(BatchRunner, SimBatchMatchesFunctionalLogits) {
    const auto model = small_model(11);
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
        EXPECT_EQ(simulated[i].logits_per_step, functional[i].logits_per_step);
        EXPECT_EQ(simulated[i].spike_counts, functional[i].spike_counts);
    }
    // Cached program + resident instances: a second batch through the
    // same backend must also agree.
    const auto again = sim_runner.run(requests);
    ASSERT_EQ(again.size(), simulated.size());
    for (std::size_t i = 0; i < again.size(); ++i) {
        EXPECT_EQ(again[i].logits_per_step, simulated[i].logits_per_step);
    }
}

TEST(BatchRunner, StatsSeparateSetupFromRunTime) {
    const auto model = small_model(7);
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
    const auto model = small_model(5);
    const std::int64_t timesteps = 6;

    std::vector<tensor::Tensor> images;
    util::Rng rng(43);
    for (int i = 0; i < 7; ++i) {
        tensor::Tensor img(tensor::Shape{1, model.input_channels, model.input_h,
                                         model.input_w});
        for (std::int64_t j = 0; j < img.numel(); ++j) img.flat(j) = rng.uniform();
        images.push_back(std::move(img));
    }

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
        expect_same_result(a[i], b[i]);
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
    const auto model = small_model(7);
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
