// Fault-tolerance tests (the `chaos` ctest tier): deterministic fault
// injection (util::FaultInjector + core::FaultyBackend), wave-level
// failure isolation via bisection, per-request deadlines at admission /
// formation / completion, bounded retry with pinned-rng determinism,
// and the per-lane circuit breaker with fallback failover — capped by
// the acceptance storm: under a seeded throw-on-run fault storm across
// both backends and mixed tenants, every non-faulted request completes
// bit-identically to a fault-free run and the completed/failed/retried
// ledger is exact.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/backend.hpp"
#include "core/batch_runner.hpp"
#include "core/faulty_backend.hpp"
#include "core/server.hpp"
#include "snn/engine.hpp"
#include "snn/session.hpp"
#include "support.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace sia {
namespace {

using namespace std::chrono_literals;
using namespace test;

// Injected faults log one warning per failed request; keep chaos-test
// stderr quiet. Runs at static init, before any server thread exists.
const bool g_quiet = [] {
    util::set_log_level(util::LogLevel::kError);
    return true;
}();

/// Gating decorator: holds every run_span until open() so tests can
/// pack a known set of queued requests into one wave, then delegates to
/// the inner backend. Counts the requests that actually ran.
class Gate final : public core::Backend {
public:
    explicit Gate(std::shared_ptr<core::Backend> inner)
        : Backend(inner->model()), inner_(std::move(inner)) {}

    [[nodiscard]] std::string_view name() const noexcept override { return "gate"; }
    void prepare(std::size_t workers) override { inner_->prepare(workers); }
    [[nodiscard]] std::size_t preferred_span(
        std::size_t n, std::size_t workers) const noexcept override {
        return inner_->preferred_span(n, workers);
    }
    void run_span(std::size_t worker, std::span<const core::Request> requests,
                  std::span<core::Response> responses, std::size_t base,
                  std::uint64_t seed) override {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock, [this] { return open_; });
            ran_ += requests.size();
        }
        inner_->run_span(worker, requests, responses, base, seed);
    }

    void open() {
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            open_ = true;
        }
        cv_.notify_all();
    }
    [[nodiscard]] std::size_t ran() const {
        const std::lock_guard<std::mutex> lock(mutex_);
        return ran_;
    }

private:
    std::shared_ptr<core::Backend> inner_;
    mutable std::mutex mutex_;
    std::condition_variable cv_;
    bool open_ = false;
    std::size_t ran_ = 0;
};

// ------------------------------------------------------- FaultInjector

TEST(FaultInjector, DecisionsArePureSeededFunctionsOfTheStream) {
    util::FaultPlan plan;
    plan.seed = 42;
    plan.throw_probability = 0.01;
    const util::FaultInjector a(plan);
    const util::FaultInjector b(plan);

    std::size_t faults = 0;
    for (std::uint64_t s = 0; s < 10'000; ++s) {
        ASSERT_EQ(a.decide(s), b.decide(s)) << "stream " << s;
        ASSERT_EQ(a.decide(s), a.decide(s)) << "stream " << s;  // idempotent
        if (a.decide(s) != util::FaultKind::kNone) ++faults;
    }
    // 1% of 10k streams; a generous binomial band around 100.
    EXPECT_GT(faults, 40U);
    EXPECT_LT(faults, 250U);

    // A different seed poisons a different set.
    plan.seed = 43;
    const util::FaultInjector c(plan);
    std::size_t moved = 0;
    for (std::uint64_t s = 0; s < 10'000; ++s) {
        if (a.decide(s) != c.decide(s)) ++moved;
    }
    EXPECT_GT(moved, 0U);
}

TEST(FaultInjector, ProbabilitiesPartitionInDeclarationOrder) {
    util::FaultPlan plan;
    plan.seed = 7;
    plan.throw_probability = 0.3;
    plan.transient_probability = 0.3;
    plan.corrupt_probability = 0.3;
    const util::FaultInjector inj(plan);
    std::size_t thrown = 0, transient = 0, corrupt = 0, none = 0;
    for (std::uint64_t s = 0; s < 4'000; ++s) {
        switch (inj.decide(s)) {
            case util::FaultKind::kThrow: ++thrown; break;
            case util::FaultKind::kTransient: ++transient; break;
            case util::FaultKind::kCorrupt: ++corrupt; break;
            default: ++none; break;
        }
    }
    EXPECT_GT(thrown, 900U);
    EXPECT_GT(transient, 900U);
    EXPECT_GT(corrupt, 900U);
    EXPECT_GT(none, 200U);
}

TEST(FaultInjector, FailFirstCountsDownThenRecovers) {
    util::FaultPlan plan;
    plan.fail_first = 3;
    util::FaultInjector inj(plan);
    EXPECT_EQ(inj.inject(0, 0), util::FaultKind::kThrow);
    EXPECT_EQ(inj.inject(1, 0), util::FaultKind::kThrow);
    EXPECT_EQ(inj.inject(2, 0), util::FaultKind::kThrow);
    EXPECT_EQ(inj.inject(3, 0), util::FaultKind::kNone);  // recovered
    EXPECT_EQ(inj.inject(0, 0), util::FaultKind::kNone);
    EXPECT_EQ(inj.injected(), 3U);
}

TEST(FaultInjector, TransientFaultsClearAtTheConfiguredAttempt) {
    util::FaultPlan plan;
    plan.transient_probability = 1.0;
    plan.transient_attempts = 2;
    util::FaultInjector inj(plan);
    EXPECT_EQ(inj.inject(5, 0), util::FaultKind::kTransient);
    EXPECT_EQ(inj.inject(5, 1), util::FaultKind::kTransient);
    EXPECT_EQ(inj.inject(5, 2), util::FaultKind::kNone);  // cleared
}

TEST(FaultInjector, ExplicitScheduleAndValidation) {
    util::FaultPlan plan;
    plan.fail_streams = {2, 9};
    util::FaultInjector inj(plan);
    EXPECT_EQ(inj.decide(2), util::FaultKind::kThrow);
    EXPECT_EQ(inj.decide(9), util::FaultKind::kThrow);
    EXPECT_EQ(inj.decide(3), util::FaultKind::kNone);

    util::FaultPlan bad;
    bad.throw_probability = 0.7;
    bad.transient_probability = 0.7;
    EXPECT_THROW(util::FaultInjector{bad}, std::invalid_argument);
    util::FaultPlan zero_attempts;
    zero_attempts.transient_attempts = 0;
    EXPECT_THROW(util::FaultInjector{zero_attempts}, std::invalid_argument);
}

// ------------------------------------------------------ FaultyBackend

TEST(FaultyBackend, ThrowsTypedErrorsAndCorruptsOnlyFaultedRequests) {
    const auto model = conv_model(11, 1);
    core::BatchRunner clean_runner(
        std::make_shared<core::FunctionalBackend>(model),
        core::BatchOptions{.threads = 2});

    std::vector<snn::SpikeTrain> trains;
    std::vector<core::Request> requests;
    for (std::uint64_t i = 0; i < 8; ++i) {
        trains.push_back(random_train(model, 5, 100 + i));
    }
    for (std::uint64_t i = 0; i < 8; ++i) {
        auto r = core::Request::view_train(trains[i]);
        r.rng_stream = i;
        requests.push_back(std::move(r));
    }
    const auto reference = clean_runner.run(requests);

    // Permanent and transient throws carry their type.
    util::FaultPlan throw_plan;
    throw_plan.fail_streams = {4};
    core::BatchRunner throw_runner(
        std::make_shared<core::FaultyBackend>(
            std::make_shared<core::FunctionalBackend>(model), throw_plan),
        core::BatchOptions{.threads = 2});
    EXPECT_THROW((void)throw_runner.run(requests), std::runtime_error);

    util::FaultPlan transient_plan;
    transient_plan.transient_probability = 1.0;
    core::FaultyBackend transient_backend(
        std::make_shared<core::FunctionalBackend>(model), transient_plan);
    std::vector<core::Response> scratch(1);
    transient_backend.prepare(1);
    EXPECT_THROW(
        transient_backend.run_span(0, {requests.data(), 1}, {scratch.data(), 1}, 0,
                                   util::kDefaultSeed),
        core::TransientError);

    // Corruption is deterministic and confined to the faulted streams.
    util::FaultPlan corrupt_plan;
    corrupt_plan.seed = 99;
    corrupt_plan.corrupt_probability = 0.4;
    const util::FaultInjector oracle(corrupt_plan);
    core::BatchRunner corrupt_runner(
        std::make_shared<core::FaultyBackend>(
            std::make_shared<core::FunctionalBackend>(model), corrupt_plan),
        core::BatchOptions{.threads = 2});
    const auto corrupted = corrupt_runner.run(requests);
    std::size_t corrupted_count = 0;
    for (std::uint64_t i = 0; i < 8; ++i) {
        if (oracle.decide(i) == util::FaultKind::kCorrupt) {
            ++corrupted_count;
            EXPECT_NE(corrupted[i].logits_per_step, reference[i].logits_per_step)
                << "stream " << i << " should be corrupted";
        } else {
            SCOPED_TRACE("stream " + std::to_string(i) + " should be untouched");
            expect_same(corrupted[i], reference[i]);
        }
    }
    EXPECT_GT(corrupted_count, 0U) << "plan corrupted nothing; pick a new seed";
}

// ------------------------------------------- wave isolation (server)

TEST(FaultServer, BisectionQuarantinesThePoisonedRequestOnly) {
    const auto model = conv_model(21, 1);
    util::FaultPlan plan;
    plan.fail_streams = {4};  // the 5th admitted request is poisoned
    auto gate = std::make_shared<Gate>(std::make_shared<core::FaultyBackend>(
        std::make_shared<core::FunctionalBackend>(model), plan));
    core::ServerOptions options;
    options.threads = 2;
    options.max_batch = 16;
    core::Server server(gate, options);

    std::vector<snn::SpikeTrain> trains;
    for (std::uint64_t i = 0; i < 9; ++i) {
        trains.push_back(random_train(model, 5, 300 + i));
    }
    // First submission is swallowed into its own wave (the gate holds
    // it); the remaining eight pack into one wave, bisected on release.
    std::vector<std::future<core::Response>> futures;
    futures.push_back(server.submit(core::Request::view_train(trains[0])));
    ASSERT_TRUE(eventually([&] { return server.queue_depth() == 0; }));
    for (std::uint64_t i = 1; i < 9; ++i) {
        futures.push_back(server.submit(core::Request::view_train(trains[i])));
    }
    ASSERT_TRUE(eventually([&] { return server.queue_depth() == 8; }));
    gate->open();

    core::BatchRunner reference(std::make_shared<core::FunctionalBackend>(model),
                                core::BatchOptions{.threads = 2});
    for (std::uint64_t i = 0; i < 9; ++i) {
        auto response = futures[i].get();
        std::vector<core::Request> one;
        one.push_back(core::Request::view_train(trains[i]));
        if (i == 4) {
            EXPECT_FALSE(response.ok());
            EXPECT_EQ(response.error_code, core::ErrorCode::kBackendError);
            EXPECT_NE(response.error.find("injected throw"), std::string::npos)
                << response.error;
        } else {
            ASSERT_TRUE(response.ok()) << response.error;
            SCOPED_TRACE("healthy co-batched request " + std::to_string(i) +
                         " must be bit-identical");
            expect_same(response, reference.run(one)[0]);
        }
    }
    const auto stats = server.stats();
    EXPECT_EQ(stats.completed, 8U);
    EXPECT_EQ(stats.failed, 1U);
    EXPECT_GE(stats.isolated_waves, 1U);
    EXPECT_EQ(stats.failed_over, 0U);
    server.shutdown();
}

// Session windows co-batched with a poisoned request on a two-worker
// Sia lane. The wave's first span finishes before the second throws,
// and the server keeps no snapshot to roll it back: every window must
// still advance its session exactly once, because the runner commits
// session state only when a whole run succeeds.
TEST(FaultServer, BisectedWaveAdvancesEverySessionWindowOnce) {
    const auto model = conv_model(27, 1);
    util::FaultPlan plan;
    plan.fail_streams = {5};  // the stateless request after the first windows
    auto gate = std::make_shared<Gate>(std::make_shared<core::FaultyBackend>(
        std::make_shared<core::SiaBackend>(model), plan));
    core::ServerOptions options;
    options.threads = 2;
    options.max_batch = 16;
    core::Server server(gate, options);

    constexpr std::size_t kSessions = 4;
    std::vector<std::array<snn::SpikeTrain, 2>> windows(kSessions);
    for (std::size_t s = 0; s < kSessions; ++s) {
        windows[s] = {random_train(model, 3, 900 + s), random_train(model, 3, 950 + s)};
    }
    const auto poison = random_train(model, 3, 999);
    const auto session_id = [](std::size_t s) { return "s" + std::to_string(s); };

    // The gate holds the first request's wave; the rest queue behind it.
    // One window per session per wave: the first windows and the poison
    // form the next wave, the second windows the one after.
    auto holder = server.submit(core::Request::view_train(poison));
    ASSERT_TRUE(eventually([&] { return server.queue_depth() == 0; }));
    std::vector<std::future<core::Response>> firsts;
    std::vector<std::future<core::Response>> seconds;
    for (std::size_t s = 0; s < kSessions; ++s) {
        firsts.push_back(server.submit(
            core::Request::view_train(windows[s][0]).with_session(session_id(s))));
    }
    auto poisoned = server.submit(core::Request::view_train(poison));
    for (std::size_t s = 0; s < kSessions; ++s) {
        seconds.push_back(server.submit(
            core::Request::view_train(windows[s][1]).with_session(session_id(s))));
    }
    ASSERT_TRUE(eventually([&] { return server.queue_depth() == 2 * kSessions + 1; }));
    gate->open();

    EXPECT_TRUE(holder.get().ok());
    EXPECT_EQ(poisoned.get().error_code, core::ErrorCode::kBackendError);
    snn::FunctionalEngine engine(model);
    for (std::size_t s = 0; s < kSessions; ++s) {
        snn::SessionState reference;
        const auto r0 = firsts[s].get();
        const auto r1 = seconds[s].get();
        ASSERT_TRUE(r0.ok() && r1.ok()) << r0.error << r1.error;
        expect_same(r0, engine.run_window(windows[s][0], reference));
        expect_same(r1, engine.run_window(windows[s][1], reference));
        EXPECT_EQ(r1.session_steps, 6) << "session " << s;
    }
    EXPECT_GE(server.stats().isolated_waves, 1U);
    server.shutdown();
}

TEST(FaultServer, TransientFaultsRetryToBitIdenticalResults) {
    const auto model = conv_model(23, 1);
    util::FaultPlan plan;
    plan.transient_probability = 1.0;  // every first attempt fails
    plan.transient_attempts = 1;       // ...and every retry succeeds
    core::ServerOptions options;
    options.threads = 2;
    options.fault.max_retries = 2;
    options.fault.retry_backoff_us = 50;
    options.fault.breaker_failures = 100;  // don't trip in this test
    core::Server server(std::make_shared<core::FaultyBackend>(
                            std::make_shared<core::FunctionalBackend>(model), plan),
                        options);

    std::vector<snn::SpikeTrain> trains;
    for (std::uint64_t i = 0; i < 4; ++i) {
        trains.push_back(random_train(model, 5, 500 + i));
    }
    std::vector<std::future<core::Response>> futures;
    for (auto& train : trains) {
        futures.push_back(server.submit(core::Request::view_train(train)));
    }
    core::BatchRunner reference(std::make_shared<core::FunctionalBackend>(model),
                                core::BatchOptions{.threads = 2});
    for (std::uint64_t i = 0; i < 4; ++i) {
        auto response = futures[i].get();
        ASSERT_TRUE(response.ok()) << response.error;
        EXPECT_GE(response.retries, 1U);
        std::vector<core::Request> one;
        one.push_back(core::Request::view_train(trains[i]));
        SCOPED_TRACE("a retried request must be bit-identical to its first attempt");
        expect_same(response, reference.run(one)[0]);
    }
    const auto stats = server.stats();
    EXPECT_EQ(stats.completed, 4U);
    EXPECT_EQ(stats.failed, 0U);
    EXPECT_GE(stats.retried, 4U);
    server.shutdown();
}

TEST(FaultServer, InvalidRequestsAreNeverRetried) {
    const auto model = conv_model(25, 1);
    core::ServerOptions options;
    options.threads = 1;
    core::Server server(std::make_shared<core::FunctionalBackend>(model), options);
    // Image encodings with timesteps <= 0 throw std::invalid_argument
    // inside the backend: the request's own fault, structured as such.
    tensor::Tensor img(
        tensor::Shape{1, model.input_channels, model.input_h, model.input_w});
    auto response = server.submit(core::Request::thermometer(img, 0)).get();
    EXPECT_FALSE(response.ok());
    EXPECT_EQ(response.error_code, core::ErrorCode::kInvalidRequest);
    EXPECT_FALSE(response.error.empty());
    EXPECT_EQ(response.retries, 0U);
    const auto stats = server.stats();
    EXPECT_EQ(stats.failed, 1U);
    EXPECT_EQ(stats.retried, 0U);
    server.shutdown();
}

// -------------------------------------------------------- deadlines

// The lane dispatchers log every failed request through util/log while
// another thread flips the global level: the level is atomic and each
// line one write, so this runs race-free under ThreadSanitizer, and
// logging never disturbs the results or the ledger.
TEST(FaultServer, LogLevelFlipsWhileDispatchersLogFailures) {
    const auto model = conv_model(31, 1);
    util::FaultPlan plan;
    plan.seed = 77;
    plan.throw_probability = 0.25;
    core::Server server(
        std::make_shared<core::FaultyBackend>(std::make_shared<core::FunctionalBackend>(model),
                                              plan),
        {.threads = 2, .max_batch = 4});

    std::atomic<bool> done{false};
    std::atomic<std::size_t> flips{0};
    std::thread flipper([&] {
        // Mostly silent levels, so the test's stderr stays short; kWarn
        // lets some failure lines through while others are being logged.
        const util::LogLevel levels[] = {util::LogLevel::kOff, util::LogLevel::kError,
                                         util::LogLevel::kWarn, util::LogLevel::kOff};
        for (std::size_t i = 0; !done.load(); ++i) {
            util::set_log_level(levels[i % 4]);
            flips.fetch_add(1);
            std::this_thread::yield();
        }
    });
    ASSERT_TRUE(eventually([&] { return flips.load() > 0; }));

    constexpr std::size_t kRequests = 48;
    std::vector<snn::SpikeTrain> trains;
    for (std::size_t i = 0; i < kRequests; ++i) trains.push_back(random_train(model, 3, 700 + i));
    // One submitter: admission order pins request i to rng stream i, so
    // the injector's pure decision names the failed set.
    std::vector<std::future<core::Response>> futures;
    for (const auto& train : trains) {
        futures.push_back(server.submit(core::Request::view_train(train)));
    }
    const util::FaultInjector oracle(plan);
    snn::FunctionalEngine reference(model);
    std::size_t expected_failures = 0;
    for (std::size_t i = 0; i < kRequests; ++i) {
        const core::Response response = futures[i].get();
        if (oracle.decide(i) == util::FaultKind::kThrow) {
            ++expected_failures;
            EXPECT_EQ(response.error_code, core::ErrorCode::kBackendError) << i;
        } else {
            ASSERT_TRUE(response.ok()) << i << ": " << response.error;
            SCOPED_TRACE(i);
            expect_same(response, reference.run(trains[i]));
        }
    }
    done.store(true);
    flipper.join();
    util::set_log_level(util::LogLevel::kError);

    server.shutdown();
    const auto stats = server.stats();
    EXPECT_GT(expected_failures, 0U);
    EXPECT_EQ(stats.failed, expected_failures);
    EXPECT_EQ(stats.completed, kRequests - expected_failures);
}

TEST(FaultDeadlines, BlockedAdmissionGivesUpAtTheDeadline) {
    const auto model = conv_model(31, 1);
    auto gate = std::make_shared<Gate>(std::make_shared<core::FunctionalBackend>(model));
    core::ServerOptions options;
    options.threads = 1;
    options.max_queue = 1;
    options.backpressure = core::BackpressurePolicy::kBlock;
    core::Server server(gate, options);

    const auto train = random_train(model, 4, 600);
    auto in_flight = server.submit(core::Request::view_train(train));
    ASSERT_TRUE(eventually([&] { return server.queue_depth() == 0; }));
    auto queued = server.submit(core::Request::view_train(train));  // fills the queue

    // The queue is full and the gate is shut: this submission can only
    // resolve by deadline.
    auto doomed =
        server.submit(core::Request::view_train(train).with_deadline(30'000));
    auto response = doomed.get();
    EXPECT_EQ(response.error_code, core::ErrorCode::kDeadlineExceeded);

    gate->open();
    EXPECT_TRUE(in_flight.get().ok());
    EXPECT_TRUE(queued.get().ok());
    const auto stats = server.stats();
    EXPECT_EQ(stats.deadline_expired, 1U);
    EXPECT_EQ(stats.rejected, 1U);  // the deadline expiry counts as a refusal
    server.shutdown();
}

TEST(FaultDeadlines, ExpiredRequestsNeverOccupyAWaveSlot) {
    const auto model = conv_model(33, 1);
    auto gate = std::make_shared<Gate>(std::make_shared<core::FunctionalBackend>(model));
    core::ServerOptions options;
    options.threads = 1;
    options.backpressure = core::BackpressurePolicy::kReject;
    core::Server server(gate, options);

    const auto train = random_train(model, 4, 610);
    auto in_flight = server.submit(core::Request::view_train(train));
    ASSERT_TRUE(eventually([&] { return server.queue_depth() == 0; }));
    std::vector<std::future<core::Response>> doomed;
    for (int i = 0; i < 3; ++i) {
        doomed.push_back(
            server.submit(core::Request::view_train(train).with_deadline(20'000)));
    }
    std::this_thread::sleep_for(50ms);  // all three expire behind the gate
    gate->open();
    for (auto& future : doomed) {
        EXPECT_EQ(future.get().error_code, core::ErrorCode::kDeadlineExceeded);
    }
    EXPECT_TRUE(in_flight.get().ok());
    EXPECT_EQ(gate->ran(), 1U) << "expired requests must never reach the backend";
    const auto stats = server.stats();
    EXPECT_EQ(stats.deadline_expired, 3U);
    EXPECT_EQ(stats.failed, 3U);
    EXPECT_EQ(stats.completed, 1U);
    server.shutdown();
}

TEST(FaultDeadlines, LateCompletionResolvesAsDeadlineExceeded) {
    const auto model = conv_model(35, 1);
    auto gate = std::make_shared<Gate>(std::make_shared<core::FunctionalBackend>(model));
    core::ServerOptions options;
    options.threads = 1;
    core::Server server(gate, options);

    const auto train = random_train(model, 4, 620);
    // Dispatched immediately (idle lane) but held past its deadline.
    auto late = server.submit(core::Request::view_train(train).with_deadline(20'000));
    std::this_thread::sleep_for(50ms);
    gate->open();
    EXPECT_EQ(late.get().error_code, core::ErrorCode::kDeadlineExceeded);
    const auto stats = server.stats();
    EXPECT_EQ(stats.deadline_expired, 1U);
    EXPECT_EQ(stats.failed, 1U);
    server.shutdown();
}

// -------------------------------------------- breaker and failover

TEST(FaultBreaker, TripsAfterConsecutiveFailuresThenFailsFast) {
    const auto model = conv_model(41, 1);
    util::FaultPlan plan;
    plan.fail_first = 1'000;  // the primary never recovers in this test
    core::ServerOptions options;
    options.threads = 1;
    options.max_batch = 1;  // one request per wave: countable outcomes
    options.fault.max_retries = 0;
    options.fault.breaker_failures = 3;
    options.fault.breaker_cooldown_ms = 60'000;  // stays open
    core::Server server(std::make_shared<core::FaultyBackend>(
                            std::make_shared<core::FunctionalBackend>(model), plan),
                        options);

    const auto train = random_train(model, 4, 700);
    for (int i = 0; i < 3; ++i) {
        const auto response = server.submit(core::Request::view_train(train)).get();
        EXPECT_EQ(response.error_code, core::ErrorCode::kBackendError);
    }
    auto lane = server.lane_stats();
    EXPECT_EQ(lane.breaker, core::BreakerState::kOpen);
    EXPECT_EQ(lane.breaker_trips, 1U);
    EXPECT_FALSE(lane.has_fallback);

    // Open breaker without a fallback: fail fast, no backend call.
    const auto fast = server.submit(core::Request::view_train(train)).get();
    EXPECT_EQ(fast.error_code, core::ErrorCode::kCircuitOpen);
    EXPECT_NE(fast.error.find("circuit breaker open"), std::string::npos);
    const auto stats = server.stats();
    EXPECT_EQ(stats.failed, 4U);
    EXPECT_EQ(stats.breaker_trips, 1U);
    server.shutdown();
}

TEST(FaultBreaker, SiaLaneFailsOverAndRecoversThroughHalfOpenProbes) {
    const auto model = conv_model(43, 1);
    // A Sia lane whose first four runs fail, then recovers — the
    // acceptance scenario: trip, degrade to the functional fallback,
    // recover via half-open probes.
    util::FaultPlan plan;
    plan.fail_first = 4;
    auto primary = std::make_shared<core::FaultyBackend>(
        std::make_shared<core::SiaBackend>(model), plan);
    core::ServerOptions options;
    options.threads = 1;
    options.max_batch = 1;
    options.fault.max_retries = 0;
    options.fault.breaker_failures = 2;
    options.fault.breaker_cooldown_ms = 30;
    options.fault.breaker_probes = 2;
    core::Server server(primary, options);
    server.set_fallback(core::Server::kDefaultModel,
                        std::make_shared<core::FunctionalBackend>(model));
    EXPECT_TRUE(server.lane_stats().has_fallback);

    const auto train = random_train(model, 4, 710);
    const auto submit_one = [&] {
        return server.submit(core::Request::view_train(train)).get();
    };

    // Two primary failures (fail_first 1-2), each individually failed
    // over: the callers see healthy degraded responses while the trip
    // accumulates.
    const auto r1 = submit_one();
    const auto r2 = submit_one();
    ASSERT_TRUE(r1.ok());
    ASSERT_TRUE(r2.ok());
    EXPECT_TRUE(r1.failed_over);
    EXPECT_TRUE(r2.failed_over);
    EXPECT_FALSE(r1.has_cycle_stats()) << "fallback responses are functional";
    EXPECT_EQ(server.lane_stats().breaker, core::BreakerState::kOpen);
    EXPECT_EQ(server.lane_stats().breaker_trips, 1U);

    // Open breaker: the whole wave degrades without touching the
    // primary (fail_first is not consumed).
    const auto r3 = submit_one();
    ASSERT_TRUE(r3.ok());
    EXPECT_TRUE(r3.failed_over);

    // Two probes still hit the broken primary (fail_first 3-4) and
    // re-open; both are failed over so the callers never notice.
    std::this_thread::sleep_for(40ms);
    const auto r4 = submit_one();
    ASSERT_TRUE(r4.ok());
    EXPECT_TRUE(r4.failed_over);
    EXPECT_EQ(server.lane_stats().breaker, core::BreakerState::kOpen);
    std::this_thread::sleep_for(40ms);
    const auto r5 = submit_one();
    ASSERT_TRUE(r5.ok());
    EXPECT_TRUE(r5.failed_over);

    // The primary has recovered: two successful probes close the
    // breaker and the lane serves cycle-accurate responses again.
    std::this_thread::sleep_for(40ms);
    const auto r6 = submit_one();
    const auto r7 = submit_one();
    ASSERT_TRUE(r6.ok());
    ASSERT_TRUE(r7.ok());
    EXPECT_FALSE(r6.failed_over);
    EXPECT_FALSE(r7.failed_over);
    EXPECT_EQ(server.lane_stats().breaker, core::BreakerState::kClosed);
    const auto r8 = submit_one();
    ASSERT_TRUE(r8.ok());
    EXPECT_TRUE(r8.has_cycle_stats()) << "recovered lane is cycle-accurate again";

    // Degraded and recovered responses agree bit-for-bit (the engines'
    // shared-numerics contract survives failover).
    expect_same(r1, r8);

    const auto lane = server.lane_stats();
    EXPECT_EQ(lane.breaker_trips, 1U);  // re-opens after probes are not fresh trips
    EXPECT_EQ(lane.probes, 4U);         // r4, r5, r6, r7
    EXPECT_EQ(lane.failovers, 5U);      // r1-r5
    const auto stats = server.stats();
    EXPECT_EQ(stats.completed, 8U);
    EXPECT_EQ(stats.failed, 0U);
    EXPECT_EQ(stats.failed_over, 5U);
    server.shutdown();
}

// ---------------------------------------------- the acceptance storm

TEST(FaultStorm, SeededStormKeepsNonFaultedRequestsBitIdenticalWithExactLedger) {
    const auto model = conv_model(51, 1);
    const std::size_t kFunctional = 160;
    const std::size_t kSia = 48;

    util::FaultPlan fn_plan;
    fn_plan.seed = 2024;
    fn_plan.throw_probability = 0.02;
    fn_plan.transient_probability = 0.02;
    util::FaultPlan sia_plan;
    sia_plan.seed = 4048;
    sia_plan.throw_probability = 0.03;

    core::ServerOptions options;
    options.threads = 2;
    options.max_batch = 8;
    options.backpressure = core::BackpressurePolicy::kBlock;
    options.fault.max_retries = 2;
    options.fault.retry_backoff_us = 50;
    options.fault.breaker_failures = 1'000;  // isolate, don't trip
    core::Server server(options);
    server.register_model("fn", std::make_shared<core::FaultyBackend>(
                                    std::make_shared<core::FunctionalBackend>(model),
                                    fn_plan));
    server.register_model("sia", std::make_shared<core::FaultyBackend>(
                                     std::make_shared<core::SiaBackend>(model),
                                     sia_plan));

    // Mixed tenants and priorities over pre-encoded trains. Submission
    // order pins each lane's rng streams 0..N-1, so the faulted set is
    // exactly the injector's pure per-stream decision.
    const std::array<const char*, 3> tenants = {"premium", "standard", "batch"};
    const std::array<core::Priority, 3> priorities = {
        core::Priority::kHigh, core::Priority::kNormal, core::Priority::kLow};
    std::vector<snn::SpikeTrain> fn_trains, sia_trains;
    for (std::size_t i = 0; i < kFunctional; ++i) {
        fn_trains.push_back(random_train(model, 5, 900 + i));
    }
    for (std::size_t i = 0; i < kSia; ++i) {
        sia_trains.push_back(random_train(model, 4, 5000 + i));
    }
    std::vector<std::future<core::Response>> fn_futures, sia_futures;
    for (std::size_t i = 0; i < kFunctional; ++i) {
        fn_futures.push_back(server.submit(
            core::Request::view_train(fn_trains[i])
                .with("fn", tenants[i % 3], priorities[i % 3])));
    }
    for (std::size_t i = 0; i < kSia; ++i) {
        sia_futures.push_back(server.submit(
            core::Request::view_train(sia_trains[i])
                .with("sia", tenants[i % 3], priorities[i % 3])));
    }

    // Fault-free twin: the functional engine is the reference for both
    // lanes (the backends are bit-identical by construction).
    core::BatchRunner reference(std::make_shared<core::FunctionalBackend>(model),
                                core::BatchOptions{.threads = 2});
    const util::FaultInjector fn_oracle(fn_plan);
    const util::FaultInjector sia_oracle(sia_plan);

    const auto check_lane = [&](std::vector<std::future<core::Response>>& futures,
                                const std::vector<snn::SpikeTrain>& trains,
                                const util::FaultInjector& oracle,
                                std::size_t& thrown, std::size_t& transients) {
        for (std::size_t i = 0; i < futures.size(); ++i) {
            auto response = futures[i].get();  // none silently dropped
            const auto kind = oracle.decide(i);
            if (kind == util::FaultKind::kThrow) {
                ++thrown;
                EXPECT_FALSE(response.ok()) << "stream " << i;
                EXPECT_EQ(response.error_code, core::ErrorCode::kBackendError);
                EXPECT_FALSE(response.error.empty());
            } else {
                if (kind == util::FaultKind::kTransient) ++transients;
                ASSERT_TRUE(response.ok())
                    << "stream " << i << ": " << response.error;
                std::vector<core::Request> one;
                one.push_back(core::Request::view_train(trains[i]));
                SCOPED_TRACE("non-faulted stream " + std::to_string(i) +
                             " must be bit-identical to the fault-free run");
                expect_same(response, reference.run(one)[0]);
            }
        }
    };
    std::size_t thrown = 0, transients = 0;
    check_lane(fn_futures, fn_trains, fn_oracle, thrown, transients);
    check_lane(sia_futures, sia_trains, sia_oracle, thrown, transients);
    ASSERT_GT(thrown, 0U) << "storm injected no permanent faults; re-seed";
    ASSERT_GT(transients, 0U) << "storm injected no transient faults; re-seed";

    // The exact ledger: every submitted request is accounted once.
    const auto stats = server.stats();
    EXPECT_EQ(stats.submitted, kFunctional + kSia);
    EXPECT_EQ(stats.completed, kFunctional + kSia - thrown);
    EXPECT_EQ(stats.failed, thrown);
    EXPECT_EQ(stats.retried, transients);  // each transient retries exactly once
    EXPECT_EQ(stats.failed_over, 0U);
    EXPECT_EQ(stats.deadline_expired, 0U);
    EXPECT_EQ(stats.breaker_trips, 0U);
    EXPECT_EQ(stats.shed, 0U);
    EXPECT_EQ(stats.rejected, 0U);
    server.shutdown();
}

// A seeded random schedule of 10k operations on one lane: stateless
// requests and session windows, some with an early-exit criterion, some
// windows closing their session, explicit closes, and hot reloads that
// swap the lane between the functional and the cycle-accurate backend,
// all under a seeded throw + transient fault plan. One submitter pins
// every rng stream, so the faulted set is known up front. Checks: every
// future resolves once; each stateless request matches a sequential
// engine run or fails exactly when its stream is poisoned; each
// session's windows resolve in window_seq order and its successful
// windows match a sequential engine session that skips the failed ones;
// and the server ledger balances exactly.
TEST(FaultStorm, SeededRandomScheduleMatchesSequentialReference) {
    const auto model = conv_model(61, 1);
    constexpr std::size_t kOps = 10'000;
    constexpr std::size_t kSlots = 6;  // concurrently open sessions

    util::FaultPlan plan;
    plan.seed = 6161;
    plan.throw_probability = 0.01;
    plan.transient_probability = 0.01;
    const util::FaultInjector oracle(plan);
    const auto make_backend = [&](bool sia) -> std::shared_ptr<core::Backend> {
        std::shared_ptr<core::Backend> inner;
        if (sia) {
            inner = std::make_shared<core::SiaBackend>(model);
        } else {
            inner = std::make_shared<core::FunctionalBackend>(model);
        }
        return std::make_shared<core::FaultyBackend>(inner, plan);
    };
    core::ServerOptions options;
    options.threads = 2;
    options.max_batch = 8;
    options.max_queue = 64;
    options.fault.max_retries = 1;
    options.fault.retry_backoff_us = 1;
    options.fault.breaker_failures = 0;         // no consecutive trip
    options.fault.breaker_failure_rate = 2.0;   // no rate trip
    core::Server server(make_backend(false), options);

    struct Slot {
        std::string id;
        std::uint64_t next_seq = 0;
        snn::SessionState reference;
    };
    struct Pending {
        std::future<core::Response> future;
        snn::SpikeTrain train;
        std::optional<snn::ExitCriterion> exit;
        std::uint64_t stream = 0;
        std::size_t slot = kSlots;  ///< kSlots = stateless
        std::uint64_t seq = 0;
    };
    std::vector<Slot> slots(kSlots);
    std::size_t sessions_started = 0;
    const auto open_slot = [&](Slot& s) {
        s = Slot{"s" + std::to_string(sessions_started++), 0, {}};
    };
    for (Slot& s : slots) open_slot(s);

    util::Rng rng(616);
    snn::FunctionalEngine engine(model);
    std::vector<Pending> pending;
    std::size_t thrown = 0;
    std::size_t transients = 0;
    bool on_sia = false;
    const auto drain = [&] {
        std::vector<Pending> resolving = std::move(pending);
        pending.clear();
        for (Pending& p : resolving) {
            const core::Response r = p.future.get();
            const util::FaultKind kind = oracle.decide(p.stream);
            if (kind == util::FaultKind::kTransient) ++transients;
            if (kind == util::FaultKind::kThrow) {
                ++thrown;
                ASSERT_EQ(r.error_code, core::ErrorCode::kBackendError) << p.stream;
            } else {
                ASSERT_TRUE(r.ok()) << "stream " << p.stream << ": " << r.error;
            }
            if (p.slot == kSlots) {
                if (!r.ok()) continue;
                const auto want = p.exit ? engine.run(p.train, *p.exit) : engine.run(p.train);
                ASSERT_EQ(r.logits, want.readout) << "stream " << p.stream;
                ASSERT_EQ(r.steps_used, want.timesteps) << "stream " << p.stream;
                continue;
            }
            Slot& s = slots[p.slot];
            ASSERT_EQ(r.window_seq, p.seq) << "stream " << p.stream;
            if (!r.ok()) continue;  // a failed window leaves its session as it was
            snn::SessionState& state = s.reference;
            const auto want = p.exit ? engine.run_window(p.train, state, *p.exit)
                                     : engine.run_window(p.train, state);
            ASSERT_EQ(r.logits, want.readout) << "stream " << p.stream;
            ASSERT_EQ(r.session_steps, state.steps) << "stream " << p.stream;
        }
    };

    for (std::uint64_t op = 0; op < kOps; ++op) {
        Pending p;
        p.stream = op;
        p.train = random_train(model, rng.integer(1, 4), 100'000 + op);
        if (rng.bernoulli(0.3)) {
            p.exit = snn::ExitCriterion{.margin = rng.integer(1, 300),
                                        .min_steps = rng.integer(1, 3)};
        }
        core::Request request = core::Request::view_train(p.train);
        if (p.exit) request = std::move(request).with_early_exit(*p.exit);
        std::size_t ended = kSlots;  // the slot whose session this op ends
        if (rng.bernoulli(0.6)) {
            p.slot = static_cast<std::size_t>(rng.integer(0, kSlots - 1));
            Slot& s = slots[p.slot];
            p.seq = s.next_seq++;
            const bool close = rng.bernoulli(0.05);
            if (close) ended = p.slot;
            request = std::move(request).with_session(s.id, close);
        }
        p.future = server.submit(std::move(request));
        pending.push_back(std::move(p));
        if (ended == kSlots && rng.bernoulli(0.01)) {
            // An explicit close, deferred behind any pending windows.
            ended = static_cast<std::size_t>(rng.integer(0, kSlots - 1));
            EXPECT_EQ(server.close_session(slots[ended].id), slots[ended].next_seq > 0);
        }
        if (ended != kSlots) {
            // Drain so the reference finishes the session before the
            // slot moves on to a fresh id.
            drain();
            open_slot(slots[ended]);
        }
        if (pending.size() >= 256) drain();
        if (op % 2'500 == 2'499) {
            on_sia = !on_sia;
            server.reload_model(core::Server::kDefaultModel, make_backend(on_sia));
        }
        if (HasFatalFailure()) return;
    }
    drain();
    if (HasFatalFailure()) return;
    for (const Slot& s : slots) (void)server.close_session(s.id);
    ASSERT_TRUE(eventually([&] { return server.session_count() == 0; }));
    ASSERT_GT(thrown, 0U) << "schedule injected no permanent faults; re-seed";
    ASSERT_GT(transients, 0U) << "schedule injected no transient faults; re-seed";

    server.shutdown();
    const auto stats = server.stats();
    EXPECT_EQ(stats.submitted, kOps);
    EXPECT_EQ(stats.completed, kOps - thrown);
    EXPECT_EQ(stats.failed, thrown);
    EXPECT_EQ(stats.retried, transients);  // each transient clears on its retry
    EXPECT_EQ(stats.reloads, 4U);
    EXPECT_EQ(stats.breaker_trips, 0U);
    EXPECT_EQ(stats.sessions_opened, stats.sessions_closed);
    EXPECT_EQ(stats.active_sessions, 0U);
}

}  // namespace
}  // namespace sia
