// Multi-model, multi-tenant serving tests: model registry routing,
// weighted-round-robin tenant fairness, priority lanes (preemption and
// shed-lowest-first eviction), hot reload under load, per-lane
// unregister isolation, a concurrent stress matrix over
// {models x tenants x priorities} x {kBlock, kReject}, and the
// determinism contract across wildly different server configurations.
//
// Wave composition is tested deterministically: a gated backend holds
// the first wave in flight while the test fills the admission queue,
// so the next wave is a pure function of queue state — no timing.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/backend.hpp"
#include "core/server.hpp"
#include "snn/engine.hpp"
#include "support.hpp"

namespace sia {
namespace {

using namespace std::chrono_literals;
using namespace test;
using core::BackpressurePolicy;
using core::Priority;

/// One request as a wave saw it.
struct WaveEntry {
    std::string tenant;
    Priority priority = Priority::kNormal;
    std::uint64_t stream = 0;
};

/// Backend that records every wave it executes (tenant / priority /
/// pinned stream, in wave order) and blocks inside the first wave until
/// release(). While the gate is closed the dispatcher is pinned inside
/// BatchRunner::run, so the test can fill the admission queue and the
/// *next* wave's composition is a deterministic function of queue state.
class RecordingBackend final : public core::Backend {
public:
    explicit RecordingBackend(const snn::SnnModel& model) : Backend(model) {}

    [[nodiscard]] std::string_view name() const noexcept override {
        return "recording";
    }

    void prepare(std::size_t /*workers*/) override {
        // Called once per BatchRunner::run: opens a new wave record.
        const std::lock_guard<std::mutex> lock(mutex_);
        waves_.emplace_back();
    }

    void run_span(std::size_t /*worker*/, std::span<const core::Request> requests,
                  std::span<core::Response> responses, std::size_t base,
                  std::uint64_t /*seed*/) override {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            auto& wave = waves_.back();
            if (wave.size() < base + requests.size()) {
                wave.resize(base + requests.size());
            }
            for (std::size_t i = 0; i < requests.size(); ++i) {
                wave[base + i] = WaveEntry{requests[i].tenant, requests[i].priority,
                                           requests[i].rng_stream.value_or(0)};
            }
            ++entered_;
            cv_.wait(lock, [this] { return open_; });
        }
        for (std::size_t i = 0; i < requests.size(); ++i) {
            core::Response r;
            r.logits_per_step = {
                {static_cast<std::int64_t>(requests[i].rng_stream.value_or(0))}};
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
    [[nodiscard]] std::vector<std::vector<WaveEntry>> waves() const {
        const std::lock_guard<std::mutex> lock(mutex_);
        return waves_;
    }

private:
    mutable std::mutex mutex_;
    std::condition_variable cv_;
    bool open_ = false;
    int entered_ = 0;
    std::vector<std::vector<WaveEntry>> waves_;
};

std::vector<std::uint64_t> streams_of(const std::vector<WaveEntry>& wave) {
    std::vector<std::uint64_t> streams;
    streams.reserve(wave.size());
    for (const auto& e : wave) streams.push_back(e.stream);
    return streams;
}

// ---- wave composition: weighted round-robin fairness ----

TEST(MultiTenantWaves, WeightedRoundRobinInterleavesTenantsBySlots) {
    const auto model = conv_model(3, 1);
    auto backend = std::make_shared<RecordingBackend>(model);
    core::Server server(
        std::static_pointer_cast<core::Backend>(backend),
        {.threads = 1,
         .max_queue = 16,
         .max_batch = 8,
         .tenant_weights = {{"alpha", 2}, {"beta", 1}, {"gamma", 1}}});
    const auto train = random_train(model, 2, 9);

    // Plug: occupies the runner so the backlog accumulates. Stream 0.
    auto plug = server.submit(core::Request::view_train(train));
    ASSERT_TRUE(eventually([&] { return backend->entered() >= 1; }));

    // Backlog, all normal priority. Streams 1..8 in submission order.
    std::vector<std::future<core::Response>> futures;
    for (int i = 0; i < 4; ++i) {
        futures.push_back(server.submit(
            core::Request::view_train(train).with("", "alpha")));
    }
    for (int i = 0; i < 2; ++i) {
        futures.push_back(server.submit(
            core::Request::view_train(train).with("", "beta")));
    }
    for (int i = 0; i < 2; ++i) {
        futures.push_back(server.submit(
            core::Request::view_train(train).with("", "gamma")));
    }
    ASSERT_EQ(server.queue_depth(), 8U);

    backend->release();
    plug.get();
    for (auto& f : futures) f.get();
    server.shutdown();

    // Rotation follows activation order [alpha, beta, gamma]; alpha's
    // weight buys it two slots per visit:
    //   alpha alpha beta gamma alpha alpha beta gamma
    const auto waves = backend->waves();
    ASSERT_EQ(waves.size(), 2U);
    EXPECT_EQ(streams_of(waves[1]),
              (std::vector<std::uint64_t>{1, 2, 5, 7, 3, 4, 6, 8}));
}

TEST(MultiTenantWaves, CursorResumesWhereTheWaveWasCutOff) {
    const auto model = conv_model(4, 1);
    auto backend = std::make_shared<RecordingBackend>(model);
    core::Server server(std::static_pointer_cast<core::Backend>(backend),
                        {.threads = 1,
                         .max_queue = 16,
                         .max_batch = 2,
                         .tenant_weights = {{"alpha", 3}}});
    const auto train = random_train(model, 2, 10);

    auto plug = server.submit(core::Request::view_train(train));
    ASSERT_TRUE(eventually([&] { return backend->entered() >= 1; }));

    // alpha: streams 1,2,3 — beta: streams 4,5.
    std::vector<std::future<core::Response>> futures;
    for (int i = 0; i < 3; ++i) {
        futures.push_back(server.submit(
            core::Request::view_train(train).with("", "alpha")));
    }
    for (int i = 0; i < 2; ++i) {
        futures.push_back(server.submit(
            core::Request::view_train(train).with("", "beta")));
    }

    backend->release();
    plug.get();
    for (auto& f : futures) f.get();
    server.shutdown();

    // max_batch = 2 cuts wave 2 inside alpha's 3-slot quantum, so the
    // cursor stays on alpha: wave 3 opens with alpha's remaining slot
    // (stream 3) before beta's oldest (stream 4) — not [4, 3].
    const auto waves = backend->waves();
    ASSERT_EQ(waves.size(), 4U);
    EXPECT_EQ(streams_of(waves[1]), (std::vector<std::uint64_t>{1, 2}));
    EXPECT_EQ(streams_of(waves[2]), (std::vector<std::uint64_t>{3, 4}));
    EXPECT_EQ(streams_of(waves[3]), (std::vector<std::uint64_t>{5}));
}

// ---- wave composition: priority lanes ----

TEST(MultiTenantWaves, HighLaneEmptiesBeforeNormalBeforeLow) {
    const auto model = conv_model(5, 1);
    auto backend = std::make_shared<RecordingBackend>(model);
    core::Server server(std::static_pointer_cast<core::Backend>(backend),
                        {.threads = 1, .max_queue = 16, .max_batch = 8});
    const auto train = random_train(model, 2, 11);

    auto plug = server.submit(core::Request::view_train(train));
    ASSERT_TRUE(eventually([&] { return backend->entered() >= 1; }));

    // Arrival order deliberately scrambles priorities: N(1) L(2) H(3)
    // N(4) H(5). The high lane preempts formation — its wave carries
    // nothing else, so a high request never waits on lower-priority
    // batchmates — then normal fills before low, FIFO within each
    // lane, regardless of arrival time.
    std::vector<std::future<core::Response>> futures;
    futures.push_back(server.submit(
        core::Request::view_train(train).with("", "", Priority::kNormal)));
    futures.push_back(server.submit(
        core::Request::view_train(train).with("", "", Priority::kLow)));
    futures.push_back(server.submit(
        core::Request::view_train(train).with("", "", Priority::kHigh)));
    futures.push_back(server.submit(
        core::Request::view_train(train).with("", "", Priority::kNormal)));
    futures.push_back(server.submit(
        core::Request::view_train(train).with("", "", Priority::kHigh)));

    backend->release();
    plug.get();
    for (auto& f : futures) f.get();
    server.shutdown();

    const auto waves = backend->waves();
    ASSERT_EQ(waves.size(), 3U);
    EXPECT_EQ(streams_of(waves[1]), (std::vector<std::uint64_t>{3, 5}));
    EXPECT_EQ(waves[1][0].priority, Priority::kHigh);
    EXPECT_EQ(waves[1][1].priority, Priority::kHigh);
    EXPECT_EQ(streams_of(waves[2]), (std::vector<std::uint64_t>{1, 4, 2}));
    EXPECT_EQ(waves[2][2].priority, Priority::kLow);
}

// ---- eviction: shed-lowest-first under kReject ----

TEST(MultiTenant, HighPriorityShedsYoungestOfBusiestLowTenant) {
    const auto model = conv_model(6, 1);
    auto backend = std::make_shared<RecordingBackend>(model);
    core::Server server(std::static_pointer_cast<core::Backend>(backend),
                        {.threads = 1,
                         .max_queue = 3,
                         .max_batch = 8,
                         .backpressure = BackpressurePolicy::kReject});
    const auto train = random_train(model, 2, 12);

    auto plug = server.submit(core::Request::view_train(train));
    ASSERT_TRUE(eventually([&] { return backend->entered() >= 1; }));

    // Fill the queue with low-priority work: loader x2 (streams 1, 2),
    // light x1 (stream 3).
    auto loader_old = server.submit(
        core::Request::view_train(train).with("", "loader", Priority::kLow));
    auto loader_young = server.submit(
        core::Request::view_train(train).with("", "loader", Priority::kLow));
    auto light = server.submit(
        core::Request::view_train(train).with("", "light", Priority::kLow));
    ASSERT_EQ(server.queue_depth(), 3U);

    // A low submit has nothing lower to shed: refused, queue untouched.
    EXPECT_FALSE(server.try_submit(
        core::Request::view_train(train).with("", "light", Priority::kLow)));
    EXPECT_EQ(server.queue_depth(), 3U);

    // A high submit evicts the *youngest* request of the *busiest*
    // low-lane tenant: loader's stream 2.
    auto vip = server.submit(
        core::Request::view_train(train).with("", "vip", Priority::kHigh));
    EXPECT_EQ(server.queue_depth(), 3U);
    EXPECT_THROW(loader_young.get(), std::runtime_error);

    backend->release();
    EXPECT_EQ(plug.get().logits_per_step[0][0], 0);
    EXPECT_EQ(loader_old.get().logits_per_step[0][0], 1);
    EXPECT_EQ(light.get().logits_per_step[0][0], 3);
    EXPECT_EQ(vip.get().logits_per_step[0][0], 4);
    server.shutdown();

    const auto stats = server.stats();
    EXPECT_EQ(stats.submitted, 5U);
    EXPECT_EQ(stats.shed, 1U);
    EXPECT_EQ(stats.rejected, 1U);
    EXPECT_EQ(stats.completed, 4U);
    EXPECT_EQ(stats.tenants.at("loader").shed, 1U);
    EXPECT_EQ(stats.tenants.at("loader").completed, 1U);
    EXPECT_EQ(stats.tenants.at("light").rejected, 1U);
    EXPECT_EQ(stats.tenants.at("vip").completed, 1U);

    // High preempts formation: vip rides alone, then the surviving low
    // lane drains in FIFO order (loader_old, light).
    const auto waves = backend->waves();
    ASSERT_EQ(waves.size(), 3U);
    EXPECT_EQ(streams_of(waves[1]), (std::vector<std::uint64_t>{4}));
    EXPECT_EQ(streams_of(waves[2]), (std::vector<std::uint64_t>{1, 3}));
}

TEST(MultiTenant, EvictionTieBreaksOnLexicographicallyLastTenant) {
    const auto model = conv_model(7, 1);
    auto backend = std::make_shared<RecordingBackend>(model);
    core::Server server(std::static_pointer_cast<core::Backend>(backend),
                        {.threads = 1,
                         .max_queue = 2,
                         .max_batch = 8,
                         .backpressure = BackpressurePolicy::kReject});
    const auto train = random_train(model, 2, 13);

    auto plug = server.submit(core::Request::view_train(train));
    ASSERT_TRUE(eventually([&] { return backend->entered() >= 1; }));

    auto a = server.submit(
        core::Request::view_train(train).with("", "aa", Priority::kLow));
    auto b = server.submit(
        core::Request::view_train(train).with("", "bb", Priority::kLow));

    // Equal FIFO lengths: the lexicographically last tenant sheds.
    auto vip = server.submit(
        core::Request::view_train(train).with("", "vip", Priority::kNormal));
    EXPECT_THROW(b.get(), std::runtime_error);

    backend->release();
    plug.get();
    a.get();
    vip.get();
    server.shutdown();
    EXPECT_EQ(server.stats().tenants.at("bb").shed, 1U);
}

// ---- registry: routing, registration, unregistration ----

TEST(MultiTenant, RoutesByModelNameAndRejectsUnknown) {
    const auto model = conv_model(8, 1);
    core::Server server({.threads = 1, .max_batch = 4});
    EXPECT_TRUE(server.model_names().empty());

    // No models yet: everything is unroutable.
    const auto train = random_train(model, 2, 14);
    EXPECT_FALSE(server.try_submit(core::Request::view_train(train)));

    server.register_model("vgg-a", std::make_shared<core::FunctionalBackend>(model));
    server.register_model("vgg-b", std::make_shared<core::FunctionalBackend>(model));
    EXPECT_EQ(server.model_names(),
              (std::vector<std::string>{"vgg-a", "vgg-b"}));
    EXPECT_THROW(
        server.register_model("vgg-a",
                              std::make_shared<core::FunctionalBackend>(model)),
        std::invalid_argument);
    EXPECT_THROW(static_cast<void>(server.backend()), std::logic_error);  // ambiguous

    // Named routes work; with two models and no "default", an empty
    // model is unroutable; so is a misspelled one.
    auto fa = server.submit(core::Request::view_train(train).with("vgg-a"));
    auto fb = server.submit(core::Request::view_train(train).with("vgg-b"));
    EXPECT_FALSE(server.try_submit(core::Request::view_train(train)));
    EXPECT_FALSE(
        server.try_submit(core::Request::view_train(train).with("vgg-c")));
    EXPECT_THROW(
        (void)server.submit(core::Request::view_train(train).with("vgg-c")),
        std::runtime_error);

    // Identical models + identical pinned streams => identical results.
    const auto ra = fa.get();
    const auto rb = fb.get();
    expect_same(ra, rb);

    server.shutdown();
    const auto stats = server.stats();
    EXPECT_EQ(stats.submitted, 2U);
    EXPECT_EQ(stats.completed, 2U);
    EXPECT_EQ(stats.rejected, 4U);  // the unroutable attempts
}

TEST(MultiTenant, SoleModelServesEmptyModelName) {
    const auto model = conv_model(9, 1);
    core::Server server({.threads = 1});
    server.register_model("only", std::make_shared<core::FunctionalBackend>(model));
    const auto train = random_train(model, 2, 15);
    auto by_blank = server.submit(core::Request::view_train(train));
    auto by_name = server.submit(core::Request::view_train(train).with("only"));
    EXPECT_EQ(by_blank.get().logits_per_step[0], by_name.get().logits_per_step[0]);
    EXPECT_NO_THROW(static_cast<void>(server.backend()));
}

TEST(MultiTenant, UnregisterDrainsItsOwnLaneOnly) {
    const auto model = conv_model(10, 1);
    auto backend_a = std::make_shared<RecordingBackend>(model);
    auto backend_b = std::make_shared<RecordingBackend>(model);
    core::Server server({.threads = 1, .max_queue = 8, .max_batch = 4});
    server.register_model("a", std::static_pointer_cast<core::Backend>(backend_a));
    server.register_model("b", std::static_pointer_cast<core::Backend>(backend_b));
    const auto train = random_train(model, 2, 16);

    // Plug both lanes, then queue two more requests on each.
    auto plug_a = server.submit(core::Request::view_train(train).with("a"));
    auto plug_b = server.submit(core::Request::view_train(train).with("b"));
    ASSERT_TRUE(eventually([&] {
        return backend_a->entered() >= 1 && backend_b->entered() >= 1;
    }));
    std::vector<std::future<core::Response>> futures_a, futures_b;
    for (int i = 0; i < 2; ++i) {
        futures_a.push_back(server.submit(core::Request::view_train(train).with("a")));
        futures_b.push_back(server.submit(core::Request::view_train(train).with("b")));
    }
    ASSERT_EQ(server.queue_depth("a"), 2U);
    ASSERT_EQ(server.queue_depth("b"), 2U);

    // Unregister "a": drains a's queue through a's backend, returns.
    // b's queue must be untouched (its gate is still closed).
    backend_a->release();
    server.unregister_model("a");
    plug_a.get();
    for (auto& f : futures_a) f.get();
    EXPECT_EQ(server.model_names(), (std::vector<std::string>{"b"}));
    EXPECT_EQ(server.queue_depth("b"), 2U);
    EXPECT_FALSE(server.try_submit(core::Request::view_train(train).with("a")));
    EXPECT_THROW(server.unregister_model("a"), std::invalid_argument);

    // a's counters survive unregistration (retired slice).
    auto stats = server.stats();
    EXPECT_EQ(stats.completed, 3U);
    EXPECT_EQ(stats.submitted, 6U);

    backend_b->release();
    plug_b.get();
    for (auto& f : futures_b) f.get();
    server.shutdown();
    stats = server.stats();
    EXPECT_EQ(stats.completed, 6U);
    EXPECT_EQ(stats.submitted, 6U);
    EXPECT_EQ(server.queue_depth(), 0U);
}

// ---- hot reload ----

TEST(MultiTenant, ReloadUnderLoadKeepsResponsesBitIdentical) {
    const auto model = conv_model(12, 1);
    constexpr std::size_t kRequests = 16;

    // Sequential reference through one engine.
    snn::FunctionalEngine engine(model);
    std::vector<snn::SpikeTrain> trains;
    std::vector<snn::RunResult> reference;
    for (std::size_t i = 0; i < kRequests; ++i) {
        trains.push_back(random_train(model, 3, 40 + i));
        reference.push_back(engine.run(trains[i]));
    }

    core::Server server(std::make_shared<core::FunctionalBackend>(model),
                        {.threads = 1, .max_queue = 4, .max_batch = 2});
    std::atomic<bool> done{false};
    std::thread reloader([&] {
        // Hammer reloads while the stream is in flight, alternating the
        // backend kind: functional <-> cycle-accurate. Both engines are
        // bit-equivalent on logits, so a mid-stream swap must be
        // invisible in the responses.
        bool sia = true;
        while (!done.load()) {
            if (sia) {
                server.reload_model(core::Server::kDefaultModel,
                                    std::make_shared<core::SiaBackend>(model));
            } else {
                server.reload_model(core::Server::kDefaultModel,
                                    std::make_shared<core::FunctionalBackend>(model));
            }
            sia = !sia;
            std::this_thread::sleep_for(1ms);
        }
    });

    std::vector<std::future<core::Response>> futures;
    for (std::size_t i = 0; i < kRequests; ++i) {
        futures.push_back(server.submit(core::Request::view_train(trains[i])));
    }
    for (std::size_t i = 0; i < kRequests; ++i) {
        SCOPED_TRACE("request=" + std::to_string(i));
        const auto response = futures[i].get();
        expect_same(response, reference[i]);
    }
    // The stream can finish before the reloader is first scheduled; keep
    // it running until at least one swap has landed.
    while (server.stats().reloads == 0) std::this_thread::sleep_for(1ms);
    done.store(true);
    reloader.join();
    server.shutdown();

    const auto stats = server.stats();
    EXPECT_EQ(stats.completed, kRequests);
    EXPECT_EQ(stats.failed, 0U);
    EXPECT_GE(stats.reloads, 1U);
    EXPECT_THROW(server.reload_model("no-such-model",
                                     std::make_shared<core::FunctionalBackend>(model)),
                 std::invalid_argument);
}

// ---- determinism across server configurations ----

TEST(MultiTenant, DeterministicAcrossConfigsModelsAndPriorities) {
    const auto model = conv_model(13, 1);
    constexpr std::size_t kRequests = 12;
    constexpr std::int64_t kTimesteps = 4;

    // Poisson encoding consumes the per-request RNG stream, which is
    // pinned to the per-lane admission order — the strongest test of
    // the determinism contract under continuous batching.
    std::vector<tensor::Tensor> images;
    for (std::size_t i = 0; i < kRequests; ++i) {
        images.push_back(random_image(model, 60 + i));
    }
    const std::vector<std::string> tenants = {"t0", "t1", "t2"};
    constexpr std::array<Priority, 3> kPriorities = {
        Priority::kHigh, Priority::kNormal, Priority::kLow};

    const auto serve_all = [&](const core::ServerOptions& options) {
        core::Server server(options);
        server.register_model("a", std::make_shared<core::FunctionalBackend>(model));
        server.register_model("b", std::make_shared<core::FunctionalBackend>(model));
        std::vector<std::future<core::Response>> futures;
        for (std::size_t i = 0; i < kRequests; ++i) {
            futures.push_back(server.submit(
                core::Request::poisson(images[i], kTimesteps)
                    .with(i % 2 == 0 ? "a" : "b", tenants[i % 3],
                          kPriorities[i % 3])));
        }
        std::vector<core::Response> responses;
        for (auto& f : futures) responses.push_back(f.get());
        server.shutdown();
        return responses;
    };

    const auto baseline = serve_all({.threads = 1, .max_batch = 1});
    const auto batched = serve_all({.threads = 2,
                                    .max_queue = 4,
                                    .max_batch = 8,
                                    .tenant_weights = {{"t0", 3}, {"t2", 2}}});
    const auto rejecting = serve_all({.threads = 1,
                                      .max_queue = 64,
                                      .max_batch = 5,
                                      .backpressure = BackpressurePolicy::kReject});

    for (std::size_t i = 0; i < kRequests; ++i) {
        SCOPED_TRACE("request=" + std::to_string(i));
        ASSERT_FALSE(baseline[i].logits_per_step.empty());
        expect_same(batched[i], baseline[i]);
        expect_same(rejecting[i], baseline[i]);
    }
}

// ---- concurrent stress matrix ----

struct StressOutcome {
    std::size_t accepted = 0;
    std::size_t refused = 0;
    std::size_t completed = 0;
    std::size_t shed = 0;
};

StressOutcome run_stress(BackpressurePolicy policy) {
    const auto model = conv_model(14, 1);
    constexpr std::size_t kThreads = 6;
    constexpr std::size_t kPerThread = 8;
    constexpr std::array<Priority, 3> kPriorities = {
        Priority::kHigh, Priority::kNormal, Priority::kLow};

    core::Server server({.threads = 1,
                         .max_queue = 4,
                         .max_batch = 4,
                         .backpressure = policy,
                         .tenant_weights = {{"t0", 4}, {"t1", 2}, {"t2", 1}}});
    server.register_model("a", std::make_shared<core::FunctionalBackend>(model));
    server.register_model("b", std::make_shared<core::FunctionalBackend>(model));

    // Pre-built payloads so view_train storage outlives the futures.
    std::vector<std::vector<snn::SpikeTrain>> trains(kThreads);
    for (std::size_t s = 0; s < kThreads; ++s) {
        for (std::size_t i = 0; i < kPerThread; ++i) {
            trains[s].push_back(random_train(model, 3, 100 * s + i));
        }
    }

    // Submitter s: tenant s%3, model s%2, priority cycling per request.
    std::vector<StressOutcome> per_thread(kThreads);
    std::vector<std::thread> submitters;
    std::vector<std::vector<std::future<core::Response>>> futures(kThreads);
    for (std::size_t s = 0; s < kThreads; ++s) {
        submitters.emplace_back([&, s] {
            const std::string tenant = "t" + std::to_string(s % 3);
            const std::string model_name = s % 2 == 0 ? "a" : "b";
            for (std::size_t i = 0; i < kPerThread; ++i) {
                auto request = core::Request::view_train(trains[s][i])
                                   .with(model_name, tenant, kPriorities[i % 3]);
                auto future = server.try_submit(std::move(request));
                if (future) {
                    ++per_thread[s].accepted;
                    futures[s].push_back(std::move(*future));
                } else {
                    ++per_thread[s].refused;
                }
            }
        });
    }
    for (auto& t : submitters) t.join();

    StressOutcome total;
    for (std::size_t s = 0; s < kThreads; ++s) {
        total.accepted += per_thread[s].accepted;
        total.refused += per_thread[s].refused;
        for (auto& f : futures[s]) {
            try {
                const auto response = f.get();
                EXPECT_EQ(response.timesteps, 3);
                ++total.completed;
            } catch (const std::runtime_error&) {
                ++total.shed;  // displaced by a higher-priority request
            }
        }
    }
    server.shutdown();
    EXPECT_EQ(server.queue_depth(), 0U);

    // Ledger invariants: every attempt is accounted exactly once, the
    // per-tenant slices partition the aggregates, and the latency
    // histograms saw exactly the completed requests.
    const auto stats = server.stats();
    EXPECT_EQ(stats.submitted, total.accepted);
    EXPECT_EQ(stats.rejected, total.refused);
    EXPECT_EQ(stats.completed, total.completed);
    EXPECT_EQ(stats.shed, total.shed);
    EXPECT_EQ(stats.failed, 0U);
    EXPECT_EQ(stats.submitted, stats.completed + stats.shed);
    EXPECT_EQ(stats.latency_us.count(), stats.completed);
    EXPECT_GE(stats.batches, (total.completed + 3) / 4);

    std::size_t tenant_submitted = 0, tenant_completed = 0, tenant_rejected = 0,
                tenant_shed = 0, tenant_latency = 0, tenant_slo_total = 0;
    for (const auto& [tenant, slice] : stats.tenants) {
        tenant_submitted += slice.submitted;
        tenant_completed += slice.completed;
        tenant_rejected += slice.rejected;
        tenant_shed += slice.shed;
        tenant_latency += slice.latency_us.count();
        tenant_slo_total += slice.slo.total();
        EXPECT_EQ(slice.latency_us.count(), slice.completed);
        EXPECT_EQ(slice.slo.total(), slice.completed);
        EXPECT_DOUBLE_EQ(slice.slo.threshold(), server.options().slo_us);
    }
    EXPECT_EQ(tenant_submitted, stats.submitted);
    EXPECT_EQ(tenant_completed, stats.completed);
    EXPECT_EQ(tenant_rejected, stats.rejected);
    EXPECT_EQ(tenant_shed, stats.shed);
    EXPECT_EQ(tenant_latency, stats.latency_us.count());
    EXPECT_EQ(tenant_slo_total, stats.completed);
    return total;
}

TEST(MultiTenantStress, BlockingMatrixCompletesEverything) {
    const auto outcome = run_stress(BackpressurePolicy::kBlock);
    EXPECT_EQ(outcome.refused, 0U);
    EXPECT_EQ(outcome.shed, 0U);
    EXPECT_EQ(outcome.completed, 48U);
}

TEST(MultiTenantStress, RejectingMatrixKeepsTheLedgerExact) {
    const auto outcome = run_stress(BackpressurePolicy::kReject);
    // Under kReject every attempt either completed, was refused at the
    // door, or was shed for a higher-priority request — no request is
    // lost or double-counted (the ledger checks live in run_stress).
    EXPECT_EQ(outcome.accepted + outcome.refused, 48U);
    EXPECT_EQ(outcome.completed + outcome.shed, outcome.accepted);
    EXPECT_GE(outcome.completed, 1U);
}

TEST(MultiTenantStress, ReloadStormWhileStressedStaysConsistent) {
    const auto model = conv_model(15, 1);
    constexpr std::size_t kThreads = 3;
    constexpr std::size_t kPerThread = 6;

    core::Server server({.threads = 1, .max_queue = 8, .max_batch = 4});
    server.register_model("a", std::make_shared<core::FunctionalBackend>(model));
    server.register_model("b", std::make_shared<core::FunctionalBackend>(model));

    std::vector<std::vector<snn::SpikeTrain>> trains(kThreads);
    for (std::size_t s = 0; s < kThreads; ++s) {
        for (std::size_t i = 0; i < kPerThread; ++i) {
            trains[s].push_back(random_train(model, 3, 200 + 10 * s + i));
        }
    }

    std::atomic<bool> done{false};
    std::thread reloader([&] {
        // Reload "a" repeatedly; "b" is never quiesced.
        while (!done.load()) {
            server.reload_model("a", std::make_shared<core::FunctionalBackend>(model));
            std::this_thread::sleep_for(1ms);
        }
    });
    // The submitters start once a reload has landed: a reloader scheduled
    // late could otherwise find `done` already set and never reload.
    const bool reloaded = eventually([&] { return server.stats().reloads >= 1; });

    std::vector<std::thread> submitters;
    std::vector<std::vector<std::future<core::Response>>> futures(kThreads);
    for (std::size_t s = 0; s < kThreads; ++s) {
        submitters.emplace_back([&, s] {
            const std::string model_name = s % 2 == 0 ? "a" : "b";
            for (std::size_t i = 0; i < kPerThread; ++i) {
                futures[s].push_back(server.submit(
                    core::Request::view_train(trains[s][i])
                        // std::string lhs dodges GCC 12's -Wrestrict false
                        // positive on operator+(const char*, string&&).
                        .with(model_name, std::string("t") + std::to_string(s))));
            }
        });
    }
    for (auto& t : submitters) t.join();
    for (auto& per_thread : futures) {
        for (auto& f : per_thread) EXPECT_EQ(f.get().timesteps, 3);
    }
    done.store(true);
    reloader.join();
    server.shutdown();
    EXPECT_TRUE(reloaded);

    const auto stats = server.stats();
    EXPECT_EQ(stats.completed, kThreads * kPerThread);
    EXPECT_EQ(stats.failed, 0U);
    EXPECT_EQ(stats.shed, 0U);
    EXPECT_GE(stats.reloads, 1U);
}

}  // namespace
}  // namespace sia
