// core::Server tests: concurrent submitters against both backends,
// queue-full backpressure (reject and block), shutdown-drains-queue,
// admission batching, latency stats, and the determinism contract —
// same seed + same arrival order => identical responses, regardless of
// batch formation, thread count, or backend schedule.
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/backend.hpp"
#include "core/compiler.hpp"
#include "core/server.hpp"
#include "snn/encoding.hpp"
#include "snn/engine.hpp"
#include "support.hpp"

namespace sia {
namespace {

using namespace std::chrono_literals;
using namespace test;

/// Test backend whose run_span blocks until release() — used to hold the
/// drain loop mid-batch so tests can fill the admission queue
/// deterministically. Responses echo the request's RNG stream so routing
/// (future <-> request) is verifiable.
class GatedBackend final : public core::Backend {
public:
    explicit GatedBackend(const snn::SnnModel& model) : Backend(model) {}

    [[nodiscard]] std::string_view name() const noexcept override { return "gated"; }
    void prepare(std::size_t) override {}
    void run_span(std::size_t /*worker*/, std::span<const core::Request> requests,
                  std::span<core::Response> responses, std::size_t base,
                  std::uint64_t /*seed*/) override {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            ++entered_;
            cv_.wait(lock, [this] { return open_; });
        }
        for (std::size_t i = 0; i < requests.size(); ++i) {
            core::Response r;
            r.logits_per_step = {{static_cast<std::int64_t>(
                requests[i].rng_stream.value_or(base + i))}};
            r.timesteps = 1;
            responses[i] = std::move(r);
        }
    }

    void release() {
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            open_ = true;
        }
        cv_.notify_all();
    }
    [[nodiscard]] int entered() const {
        const std::lock_guard<std::mutex> lock(mutex_);
        return entered_;
    }

private:
    mutable std::mutex mutex_;
    std::condition_variable cv_;
    bool open_ = false;
    int entered_ = 0;
};

/// Delegating backend that holds every wave until release() — lets a
/// test pin a wave in flight on a REAL backend and queue requests
/// behind it deterministically (unlike GatedBackend, the inner backend
/// actually encodes and runs the requests once released).
class HoldWaves final : public core::Backend {
public:
    HoldWaves(const snn::SnnModel& model, std::shared_ptr<core::Backend> inner)
        : Backend(model), inner_(std::move(inner)) {}

    [[nodiscard]] std::string_view name() const noexcept override {
        return "hold-waves";
    }
    void prepare(std::size_t workers) override { inner_->prepare(workers); }
    void run_span(std::size_t worker, std::span<const core::Request> requests,
                  std::span<core::Response> responses, std::size_t base,
                  std::uint64_t seed) override {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            ++entered_;
            cv_.wait(lock, [this] { return open_; });
        }
        inner_->run_span(worker, requests, responses, base, seed);
    }

    void release() {
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            open_ = true;
        }
        cv_.notify_all();
    }
    [[nodiscard]] int entered() const {
        const std::lock_guard<std::mutex> lock(mutex_);
        return entered_;
    }

private:
    std::shared_ptr<core::Backend> inner_;
    mutable std::mutex mutex_;
    std::condition_variable cv_;
    bool open_ = false;
    int entered_ = 0;
};

// ---- serving correctness under concurrency, per backend ----

TEST(Server, ConcurrentSubmittersFunctionalBackend) {
    const auto model = conv_model(7, 1);
    constexpr std::size_t kSubmitters = 4;
    constexpr std::size_t kPerSubmitter = 6;

    // Sequential references, one engine, per submitter x request.
    snn::FunctionalEngine engine(model);
    std::vector<std::vector<snn::SpikeTrain>> trains(kSubmitters);
    std::vector<std::vector<snn::RunResult>> reference(kSubmitters);
    for (std::size_t s = 0; s < kSubmitters; ++s) {
        for (std::size_t i = 0; i < kPerSubmitter; ++i) {
            trains[s].push_back(random_train(model, 4, 100 * s + i));
            reference[s].push_back(engine.run(trains[s][i]));
        }
    }

    core::Server server(std::make_shared<core::FunctionalBackend>(model),
                        {.threads = 2, .max_batch = 4});
    std::vector<std::thread> submitters;
    std::vector<std::vector<std::future<core::Response>>> futures(kSubmitters);
    for (std::size_t s = 0; s < kSubmitters; ++s) {
        submitters.emplace_back([&, s] {
            for (std::size_t i = 0; i < kPerSubmitter; ++i) {
                futures[s].push_back(
                    server.submit(core::Request::view_train(trains[s][i])));
            }
        });
    }
    for (auto& t : submitters) t.join();

    for (std::size_t s = 0; s < kSubmitters; ++s) {
        for (std::size_t i = 0; i < kPerSubmitter; ++i) {
            SCOPED_TRACE("submitter=" + std::to_string(s) + " item=" +
                         std::to_string(i));
            const auto response = futures[s][i].get();
            expect_same(response, reference[s][i]);
        }
    }

    server.shutdown();
    const auto stats = server.stats();
    EXPECT_EQ(stats.submitted, kSubmitters * kPerSubmitter);
    EXPECT_EQ(stats.completed, kSubmitters * kPerSubmitter);
    EXPECT_EQ(stats.rejected, 0U);
    EXPECT_EQ(stats.failed, 0U);
    EXPECT_EQ(stats.latency_us.count(), kSubmitters * kPerSubmitter);
    EXPECT_GT(stats.latency_us.p50(), 0.0);
    EXPECT_LE(stats.latency_us.p50(), stats.latency_us.p99());
    EXPECT_GE(stats.batches, 1U);
}

TEST(Server, ConcurrentSubmittersSiaBackend) {
    const auto model = conv_model(11, 1);
    constexpr std::size_t kSubmitters = 2;
    constexpr std::size_t kPerSubmitter = 3;

    snn::FunctionalEngine engine(model);
    std::vector<std::vector<snn::SpikeTrain>> trains(kSubmitters);
    std::vector<std::vector<snn::RunResult>> reference(kSubmitters);
    for (std::size_t s = 0; s < kSubmitters; ++s) {
        for (std::size_t i = 0; i < kPerSubmitter; ++i) {
            trains[s].push_back(random_train(model, 3, 7 * s + i + 1));
            reference[s].push_back(engine.run(trains[s][i]));
        }
    }

    core::Server server(std::make_shared<core::SiaBackend>(model),
                        {.threads = 2, .max_batch = 3});
    std::vector<std::thread> submitters;
    std::vector<std::vector<std::future<core::Response>>> futures(kSubmitters);
    for (std::size_t s = 0; s < kSubmitters; ++s) {
        submitters.emplace_back([&, s] {
            for (std::size_t i = 0; i < kPerSubmitter; ++i) {
                futures[s].push_back(
                    server.submit(core::Request::view_train(trains[s][i])));
            }
        });
    }
    for (auto& t : submitters) t.join();

    for (std::size_t s = 0; s < kSubmitters; ++s) {
        for (std::size_t i = 0; i < kPerSubmitter; ++i) {
            SCOPED_TRACE("submitter=" + std::to_string(s) + " item=" +
                         std::to_string(i));
            const auto response = futures[s][i].get();
            // Shared numerics with the functional reference, plus the
            // cycle stats only the simulated accelerator produces.
            expect_same(response, reference[s][i]);
            EXPECT_TRUE(response.has_cycle_stats());
            EXPECT_GT(response.total_cycles(), 0);
        }
    }
    server.shutdown();
    EXPECT_EQ(server.stats().completed, kSubmitters * kPerSubmitter);
}

// ---- backpressure ----

TEST(Server, RejectPolicyShedsLoadWhenQueueFull) {
    const auto model = conv_model(7, 1);
    auto backend = std::make_shared<GatedBackend>(model);
    core::Server server(backend, {.threads = 1,
                                  .max_queue = 2,
                                  .max_batch = 1,
                                  .backpressure = core::BackpressurePolicy::kReject});

    // First request is dequeued into the (gated) in-flight batch...
    auto f0 = server.submit(core::Request{});
    ASSERT_TRUE(eventually([&] { return backend->entered() >= 1; }));
    ASSERT_TRUE(eventually([&] { return server.queue_depth() == 0; }));

    // ...then the queue fills to max_queue...
    auto f1 = server.submit(core::Request{});
    auto f2 = server.submit(core::Request{});
    ASSERT_EQ(server.queue_depth(), 2U);

    // ...and the next submissions are shed, not blocked.
    EXPECT_FALSE(server.try_submit(core::Request{}).has_value());
    EXPECT_THROW((void)server.submit(core::Request{}), std::runtime_error);

    backend->release();
    EXPECT_EQ(f0.get().logits_per_step[0][0], 0);
    EXPECT_EQ(f1.get().logits_per_step[0][0], 1);
    EXPECT_EQ(f2.get().logits_per_step[0][0], 2);

    server.shutdown();
    const auto stats = server.stats();
    EXPECT_EQ(stats.submitted, 3U);
    EXPECT_EQ(stats.completed, 3U);
    EXPECT_EQ(stats.rejected, 2U);
}

TEST(Server, BlockPolicyWaitsForSpaceInsteadOfRejecting) {
    const auto model = conv_model(7, 1);
    auto backend = std::make_shared<GatedBackend>(model);
    core::Server server(backend, {.threads = 1,
                                  .max_queue = 1,
                                  .max_batch = 1,
                                  .backpressure = core::BackpressurePolicy::kBlock});

    auto f0 = server.submit(core::Request{});
    ASSERT_TRUE(eventually([&] { return server.queue_depth() == 0; }));
    auto f1 = server.submit(core::Request{});  // fills the queue

    // A third submission must block (not throw, not drop).
    std::atomic<bool> submitted{false};
    std::future<core::Response> f2;
    std::thread blocked([&] {
        f2 = server.submit(core::Request{});
        submitted.store(true);
    });
    std::this_thread::sleep_for(50ms);
    EXPECT_FALSE(submitted.load());  // still waiting for space

    backend->release();  // drain; space frees; the blocked submit proceeds
    ASSERT_TRUE(eventually([&] { return submitted.load(); }));
    blocked.join();

    EXPECT_EQ(f0.get().logits_per_step[0][0], 0);
    EXPECT_EQ(f1.get().logits_per_step[0][0], 1);
    EXPECT_EQ(f2.get().logits_per_step[0][0], 2);
    server.shutdown();
    EXPECT_EQ(server.stats().rejected, 0U);
    EXPECT_EQ(server.stats().completed, 3U);
}

// ---- shutdown ----

TEST(Server, ShutdownDrainsEveryQueuedRequest) {
    const auto model = conv_model(7, 1);
    auto backend = std::make_shared<GatedBackend>(model);
    core::Server server(backend, {.threads = 1,
                                  .max_queue = 16,
                                  .max_batch = 2});

    std::vector<std::future<core::Response>> futures;
    for (int i = 0; i < 7; ++i) futures.push_back(server.submit(core::Request{}));
    ASSERT_TRUE(eventually([&] { return backend->entered() >= 1; }));

    // Release the gate concurrently with shutdown: shutdown must block
    // until the whole queue has drained through the backend.
    std::thread releaser([&] {
        std::this_thread::sleep_for(20ms);
        backend->release();
    });
    server.shutdown();
    releaser.join();

    for (std::size_t i = 0; i < futures.size(); ++i) {
        ASSERT_EQ(futures[i].wait_for(0s), std::future_status::ready) << i;
        EXPECT_EQ(futures[i].get().logits_per_step[0][0],
                  static_cast<std::int64_t>(i));
    }
    const auto stats = server.stats();
    EXPECT_EQ(stats.completed, 7U);
    EXPECT_EQ(stats.failed, 0U);
    EXPECT_EQ(server.queue_depth(), 0U);
}

TEST(Server, SubmitAfterShutdownIsRefused) {
    const auto model = conv_model(7, 1);
    core::Server server(std::make_shared<core::FunctionalBackend>(model),
                        {.threads = 1});
    server.shutdown();
    EXPECT_TRUE(server.stopping());
    EXPECT_FALSE(server.try_submit(core::Request{}).has_value());
    EXPECT_THROW((void)server.submit(core::Request{}), std::runtime_error);
    EXPECT_EQ(server.stats().rejected, 2U);
    server.shutdown();  // idempotent
}

// ---- continuous batching ----

TEST(Server, ContinuousBatchingFormsWavesFromTheBacklog) {
    const auto model = conv_model(7, 1);
    auto backend = std::make_shared<GatedBackend>(model);
    core::Server server(backend, {.threads = 1,
                                  .max_queue = 16,
                                  .max_batch = 8});

    // While the gate holds the first dispatch, six more requests queue
    // up; the next batch must take all of them at once.
    auto f0 = server.submit(core::Request{});
    ASSERT_TRUE(eventually([&] { return backend->entered() >= 1; }));
    std::vector<std::future<core::Response>> rest;
    for (int i = 0; i < 6; ++i) rest.push_back(server.submit(core::Request{}));
    ASSERT_EQ(server.queue_depth(), 6U);

    backend->release();
    (void)f0.get();
    for (auto& f : rest) (void)f.get();
    server.shutdown();

    const auto stats = server.stats();
    EXPECT_EQ(stats.completed, 7U);
    EXPECT_EQ(stats.batches, 2U);  // {f0}, then the six queued together
    EXPECT_GT(stats.mean_batch_size(), 1.0);
}

// ---- determinism ----

TEST(Server, SameSeedSameArrivalOrderSameResponses) {
    const auto model = conv_model(9, 1);
    const std::int64_t timesteps = 5;
    std::vector<tensor::Tensor> images;
    for (int i = 0; i < 12; ++i) images.push_back(random_image(model, 50 + i));

    // Two servers with wildly different wave formation (thread counts,
    // batch caps, backends' dispatch) must produce bit-identical
    // responses for the same seed and arrival order, because RNG
    // streams are pinned to the admission sequence.
    const auto run_server = [&](core::ServerOptions opts) {
        opts.seed = 2024;
        core::Server server(std::make_shared<core::FunctionalBackend>(model), opts);
        std::vector<std::future<core::Response>> futures;
        for (const auto& img : images) {
            futures.push_back(
                server.submit(core::Request::view_poisson(img, timesteps)));
        }
        std::vector<core::Response> responses;
        for (auto& f : futures) responses.push_back(f.get());
        server.shutdown();
        return responses;
    };

    const auto a = run_server({.threads = 1, .max_batch = 1});
    const auto b = run_server({.threads = 4, .max_batch = 8});
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("item=" + std::to_string(i));
        expect_same(a[i], b[i]);
    }

    // And the server path equals the plain batch path with pinned
    // streams — the serving loop adds no hidden nondeterminism.
    core::BatchRunner runner(std::make_shared<core::FunctionalBackend>(model),
                             {.threads = 2, .seed = 2024});
    std::vector<core::Request> requests;
    for (const auto& img : images) {
        requests.push_back(core::Request::view_poisson(img, timesteps));
    }
    const auto direct = runner.run(requests);
    for (std::size_t i = 0; i < direct.size(); ++i) {
        expect_same(a[i], direct[i]);
    }
}

// ---- shutdown / race regressions (TSan tier) ----

// Submit while shutdown is mid-drain: the gate holds the dispatcher
// inside the first wave, so shutdown() is deterministically blocked in
// its drain when the late submit arrives — it must be refused, never
// enqueued into a dying lane or left hanging, and every request that
// was admitted before shutdown must still complete.
TEST(ServerRaces, SubmitDuringDrainIsRefused) {
    const auto model = conv_model(7, 1);
    auto backend = std::make_shared<GatedBackend>(model);
    core::Server server(backend, {.threads = 1, .max_queue = 16, .max_batch = 2});

    std::vector<std::future<core::Response>> futures;
    for (int i = 0; i < 5; ++i) futures.push_back(server.submit(core::Request{}));
    ASSERT_TRUE(eventually([&] { return backend->entered() >= 1; }));

    std::thread shutter([&] { server.shutdown(); });
    ASSERT_TRUE(eventually([&] { return server.stopping(); }));

    // The drain is provably still in progress (the gate is closed), so
    // this submit races with it — and must lose cleanly.
    EXPECT_FALSE(server.try_submit(core::Request{}).has_value());
    EXPECT_THROW((void)server.submit(core::Request{}), std::runtime_error);

    backend->release();
    shutter.join();
    for (std::size_t i = 0; i < futures.size(); ++i) {
        ASSERT_EQ(futures[i].wait_for(0s), std::future_status::ready) << i;
        EXPECT_EQ(futures[i].get().logits_per_step[0][0],
                  static_cast<std::int64_t>(i));
    }
    const auto stats = server.stats();
    EXPECT_EQ(stats.completed, 5U);
    EXPECT_EQ(stats.rejected, 2U);
}

// A submitter blocked on queue space (kBlock) when shutdown starts must
// neither hang nor be silently enqueued into the dying lane: it wakes
// and is refused with a rejection that names kShuttingDown, so callers
// can tell a shutdown race apart from an unknown model or a full queue.
TEST(ServerRaces, BlockedSubmitterRacingShutdownGetsTaggedRejection) {
    const auto model = conv_model(7, 1);
    auto backend = std::make_shared<GatedBackend>(model);
    core::Server server(backend, {.threads = 1,
                                  .max_queue = 1,
                                  .max_batch = 1,
                                  .backpressure = core::BackpressurePolicy::kBlock});

    auto in_flight = server.submit(core::Request{});
    ASSERT_TRUE(eventually([&] { return backend->entered() >= 1; }));
    auto queued = server.submit(core::Request{});  // fills the queue

    // This submitter blocks for space that will never come: the gate is
    // closed, so the only wake-up is shutdown itself.
    std::string rejection;
    std::thread blocked([&] {
        try {
            (void)server.submit(core::Request{});
            rejection = "(not rejected)";
        } catch (const std::runtime_error& error) {
            rejection = error.what();
        }
    });
    std::this_thread::sleep_for(30ms);  // let it reach the space wait

    std::thread shutter([&] { server.shutdown(); });
    ASSERT_TRUE(eventually([&] { return server.stopping(); }));
    blocked.join();  // must wake promptly — a hang fails the test budget
    EXPECT_NE(rejection.find("kShuttingDown"), std::string::npos) << rejection;

    // A post-shutdown submit carries the same tag.
    backend->release();
    shutter.join();
    try {
        (void)server.submit(core::Request{});
        FAIL() << "submit after shutdown must throw";
    } catch (const std::runtime_error& error) {
        EXPECT_NE(std::string(error.what()).find("kShuttingDown"),
                  std::string::npos)
            << error.what();
    }

    // The requests admitted before shutdown still completed.
    EXPECT_TRUE(in_flight.get().ok());
    EXPECT_TRUE(queued.get().ok());
    const auto stats = server.stats();
    EXPECT_EQ(stats.completed, 2U);
    EXPECT_EQ(stats.rejected, 2U);
}

// Reload racing shutdown and submitters: a barrier releases all three
// at once, and the invariants must hold for every legal interleaving —
// each submitted future resolves exactly once (value or clean refusal),
// the reload either applies or the server was already stopping, and the
// ledger balances (submitted == completed + failed, nothing lost).
TEST(ServerRaces, ReloadDuringDrainKeepsTheLedgerConsistent) {
    const auto model = conv_model(13, 1);
    for (int round = 0; round < 3; ++round) {
        core::Server server(std::make_shared<core::FunctionalBackend>(model),
                            {.threads = 2, .max_queue = 64, .max_batch = 4});
        // Seed the queue so the drain has real work.
        std::vector<std::future<core::Response>> warm;
        for (int i = 0; i < 6; ++i) {
            warm.push_back(server.submit(
                core::Request::from_train(random_train(model, 3, 40 + i))));
        }

        std::atomic<int> late_accepted{0};
        std::atomic<int> late_refused{0};
        std::vector<std::future<core::Response>> late(8);
        std::mutex late_mutex;

        // threads: 1 shutter + 1 reloader + 2 submitters.
        std::barrier barrier(4);
        std::thread shutter([&] {
            barrier.arrive_and_wait();
            server.shutdown();
        });
        std::thread reloader([&] {
            barrier.arrive_and_wait();
            try {
                server.reload_model(core::Server::kDefaultModel,
                                    std::make_shared<core::FunctionalBackend>(model));
            } catch (const std::exception&) {
                // acceptable only if the lane was already gone; with a
                // default-registered lane it never is.
                ADD_FAILURE() << "reload_model threw during drain";
            }
        });
        std::vector<std::thread> submitters;
        for (int s = 0; s < 2; ++s) {
            submitters.emplace_back([&, s] {
                barrier.arrive_and_wait();
                for (int i = 0; i < 4; ++i) {
                    auto f = server.try_submit(
                        core::Request::from_train(random_train(model, 3, 80 + i)));
                    if (f) {
                        const std::lock_guard<std::mutex> lock(late_mutex);
                        late[static_cast<std::size_t>(4 * s + i)] = std::move(*f);
                        late_accepted.fetch_add(1);
                    } else {
                        late_refused.fetch_add(1);
                    }
                }
            });
        }
        shutter.join();
        reloader.join();
        for (auto& t : submitters) t.join();

        for (auto& f : warm) EXPECT_NO_THROW((void)f.get());
        for (auto& f : late) {
            if (f.valid()) {
                EXPECT_NO_THROW((void)f.get());
            }
        }
        const auto stats = server.stats();
        EXPECT_EQ(stats.reloads, 1U);
        EXPECT_EQ(stats.submitted, 6U + static_cast<std::size_t>(late_accepted.load()));
        EXPECT_EQ(stats.completed + stats.failed, stats.submitted);
        EXPECT_EQ(stats.failed, 0U);
        EXPECT_EQ(stats.rejected, static_cast<std::size_t>(late_refused.load()));
        EXPECT_EQ(server.queue_depth(), 0U);
    }
}

// Two submitters racing on an already-full kReject queue, lined up on a
// barrier: both must be refused (same priority — nothing to shed), the
// queue must not over-admit, and the queued requests must be untouched.
TEST(ServerRaces, ConcurrentRejectsOnFullQueueShedNothing) {
    const auto model = conv_model(7, 1);
    auto backend = std::make_shared<GatedBackend>(model);
    core::Server server(backend, {.threads = 1,
                                  .max_queue = 2,
                                  .max_batch = 1,
                                  .backpressure = core::BackpressurePolicy::kReject});

    auto f0 = server.submit(core::Request{});  // held in flight by the gate
    ASSERT_TRUE(eventually([&] { return backend->entered() >= 1; }));
    auto f1 = server.submit(core::Request{});
    auto f2 = server.submit(core::Request{});
    ASSERT_EQ(server.queue_depth(), 2U);

    std::barrier barrier(2);
    std::atomic<int> refused{0};
    std::vector<std::thread> racers;
    for (int r = 0; r < 2; ++r) {
        racers.emplace_back([&] {
            barrier.arrive_and_wait();
            if (!server.try_submit(core::Request{}).has_value()) refused.fetch_add(1);
        });
    }
    for (auto& t : racers) t.join();
    EXPECT_EQ(refused.load(), 2);
    EXPECT_EQ(server.queue_depth(), 2U);

    backend->release();
    EXPECT_EQ(f0.get().logits_per_step[0][0], 0);
    EXPECT_EQ(f1.get().logits_per_step[0][0], 1);
    EXPECT_EQ(f2.get().logits_per_step[0][0], 2);
    server.shutdown();
    EXPECT_EQ(server.stats().shed, 0U);
    EXPECT_EQ(server.stats().rejected, 2U);
}

// ---- borrowed views must not dangle across async dispatch ----

// Regression: a view_* request references caller memory, but submit()
// returns before any worker encodes it. The server must deep-copy the
// view at admission; without that, mutating (or freeing) the buffer
// after submit() corrupts the inference. The gate holds a wave in
// flight so the view request is deterministically still queued when
// the buffer is clobbered.
TEST(Server, BorrowedImageViewCopiedAtAdmission) {
    const auto model = conv_model(23, 1);
    snn::FunctionalEngine engine(model);
    const tensor::Tensor original = random_image(model, 31);
    const auto reference = engine.run(snn::encode_thermometer(original, 4));

    auto gate = std::make_shared<HoldWaves>(
        model, std::make_shared<core::FunctionalBackend>(model));
    core::Server server(gate, {.threads = 1});
    auto blocker = server.submit(core::Request::from_train(random_train(model, 2, 1)));
    ASSERT_TRUE(eventually([&] { return gate->entered() >= 1; }));

    tensor::Tensor img = random_image(model, 31);  // same content as `original`
    auto future = server.submit(core::Request::view_thermometer(img, 4));
    // Clobber the borrowed buffer right after submit returns — the
    // wave that will encode it has not even formed yet.
    for (std::int64_t j = 0; j < img.numel(); ++j) img.flat(j) = 0.0F;

    gate->release();
    blocker.get();
    const auto response = future.get();
    expect_same(response, reference);
    server.shutdown();
}

TEST(Server, BorrowedTrainViewCopiedAtAdmission) {
    const auto model = conv_model(29, 1);
    snn::FunctionalEngine engine(model);
    const auto reference = engine.run(random_train(model, 4, 77));

    auto gate = std::make_shared<HoldWaves>(
        model, std::make_shared<core::FunctionalBackend>(model));
    core::Server server(gate, {.threads = 1});
    auto blocker = server.submit(core::Request::from_train(random_train(model, 2, 1)));
    ASSERT_TRUE(eventually([&] { return gate->entered() >= 1; }));

    snn::SpikeTrain train = random_train(model, 4, 77);
    auto future = server.submit(core::Request::view_train(train));
    train = random_train(model, 4, 78);  // clobber while still queued

    gate->release();
    blocker.get();
    const auto response = future.get();
    expect_same(response, reference);
    server.shutdown();
}

// ---- malformed input on a Sia lane fails alone ----

TEST(Server, MisShapedTrainOnSiaLaneFailsAloneAsInvalidRequest) {
    // A pre-encoded 1x2x2 train against the 2x6x6 model, queued into one
    // wave with well-formed requests: the simulator rejects the wave at
    // admission, bisection isolates the bad request as kInvalidRequest,
    // and its wave-mates complete bit-identically to solo runs.
    const auto model = conv_model(41, 1);
    const sim::SiaConfig config;
    const auto program = core::SiaCompiler(config).compile(model);
    sim::Sia solo(config, model, program);

    auto gate = std::make_shared<HoldWaves>(
        model, std::make_shared<core::SiaBackend>(model, config));
    core::Server server(gate, {.threads = 1});
    auto blocker = server.submit(core::Request::from_train(random_train(model, 2, 1)));
    ASSERT_TRUE(eventually([&] { return gate->entered() >= 1; }));

    std::vector<snn::SpikeTrain> trains;
    for (std::uint64_t i = 0; i < 4; ++i) trains.push_back(random_train(model, 4, 50 + i));
    trains[2] = snn::SpikeTrain(4, snn::SpikeMap(1, 2, 2));
    std::vector<std::future<core::Response>> futures;
    for (const auto& t : trains) futures.push_back(server.submit(core::Request::from_train(t)));

    gate->release();
    EXPECT_TRUE(blocker.get().ok());
    for (std::size_t i = 0; i < futures.size(); ++i) {
        SCOPED_TRACE("item=" + std::to_string(i));
        const auto response = futures[i].get();
        if (i == 2) {
            EXPECT_EQ(response.error_code, core::ErrorCode::kInvalidRequest);
            EXPECT_EQ(response.retries, 0U);
            continue;
        }
        ASSERT_TRUE(response.ok()) << response.error;
        const auto want = solo.run(trains[i]);
        expect_same(response, want, {.cycles = true});
    }
    server.shutdown();
    EXPECT_GE(server.stats().isolated_waves, 1U);
}

}  // namespace
}  // namespace sia
