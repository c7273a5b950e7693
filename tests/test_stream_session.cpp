// Streaming-session tests: chunked event windows against a persistent
// session reproduce the monolithic run bit-exactly — at the engine
// level (FunctionalEngine::run_window, Sia::run with a SessionState)
// and through core::Server sessions, across window sizes, thread
// counts, and both backends — plus the session lifecycle (affinity and
// window ordering, idle expiry, explicit close, deferred close,
// shutdown with open sessions).
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/backend.hpp"
#include "core/compiler.hpp"
#include "core/faulty_backend.hpp"
#include "core/server.hpp"
#include "util/fault.hpp"
#include "sim/sia.hpp"
#include "snn/engine.hpp"
#include "snn/session.hpp"
#include "support.hpp"

namespace sia {
namespace {

using namespace std::chrono_literals;
using namespace test;

/// Split a train into consecutive windows of up to `window` steps.
std::vector<snn::SpikeTrain> chunk(const snn::SpikeTrain& train,
                                   std::size_t window) {
    std::vector<snn::SpikeTrain> out;
    for (std::size_t start = 0; start < train.size(); start += window) {
        const std::size_t end = std::min(train.size(), start + window);
        out.emplace_back(train.begin() + static_cast<std::ptrdiff_t>(start),
                         train.begin() + static_cast<std::ptrdiff_t>(end));
    }
    return out;
}

// ---- engine-level chunking identity ----

TEST(StreamSession, FunctionalChunkedWindowsMatchMonolithic) {
    const auto model = conv_model(3, 1);
    const auto train = random_train(model, 8, 42);
    snn::FunctionalEngine engine(model);
    const auto mono = engine.run(train);
    for (const std::size_t w : {1U, 2U, 4U, 8U}) {
        SCOPED_TRACE("window=" + std::to_string(w));
        snn::SessionState session;
        std::vector<std::vector<std::int64_t>> logits;
        for (const auto& win : chunk(train, w)) {
            const auto res = engine.run_window(win, session);
            logits.insert(logits.end(), res.logits_per_step.begin(),
                          res.logits_per_step.end());
        }
        EXPECT_EQ(logits, mono.logits_per_step);
        EXPECT_EQ(session.steps, 8);
        EXPECT_EQ(session.windows, 8U / w);
    }
}

TEST(StreamSession, SiaChunkedWindowsMatchMonolithic) {
    const auto model = conv_model(5, 1);
    const auto train = random_train(model, 8, 9);
    const sim::SiaConfig config;
    const auto program = core::SiaCompiler(config).compile(model);
    sim::Sia sia(config, model, program);
    const auto mono = sia.run(train);
    for (const std::size_t w : {1U, 2U, 4U}) {
        SCOPED_TRACE("window=" + std::to_string(w));
        snn::SessionState session;
        std::vector<std::vector<std::int64_t>> logits;
        for (const auto& win : chunk(train, w)) {
            const auto res = sia.run(win, session, {});
            logits.insert(logits.end(), res.logits_per_step.begin(),
                          res.logits_per_step.end());
        }
        EXPECT_EQ(logits, mono.logits_per_step);
    }
}

TEST(StreamSession, SessionsMigrateBetweenEngines) {
    // The carried representation is engine-agnostic: alternate windows
    // between the functional engine and the simulator mid-stream and
    // the readout still matches the monolithic reference bit-exactly.
    const auto model = conv_model(7, 1);
    const auto train = random_train(model, 8, 17);
    snn::FunctionalEngine engine(model);
    const auto mono = engine.run(train);
    const sim::SiaConfig config;
    const auto program = core::SiaCompiler(config).compile(model);
    sim::Sia sia(config, model, program);

    snn::SessionState session;
    std::vector<std::vector<std::int64_t>> logits;
    bool use_sia = false;
    for (const auto& win : chunk(train, 2)) {
        std::vector<std::vector<std::int64_t>> step_logits;
        if (use_sia) {
            step_logits = sia.run(win, session, {}).logits_per_step;
        } else {
            step_logits = engine.run_window(win, session).logits_per_step;
        }
        logits.insert(logits.end(), step_logits.begin(), step_logits.end());
        use_sia = !use_sia;
    }
    EXPECT_EQ(logits, mono.logits_per_step);
}

TEST(StreamSession, MalformedSessionIsInvalidOnBothBackends) {
    // One geometry rule (snn::check_session): a membrane bank per layer,
    // holding layer.neurons() potentials for a spiking layer and none for
    // a readout layer. Both engines reject a session that breaks it,
    // before running, and leave the session as it was.
    const auto model = conv_model(11, 1);
    const auto train = random_train(model, 3, 5);
    snn::FunctionalEngine engine(model);
    const sim::SiaConfig config;
    const auto program = core::SiaCompiler(config).compile(model);
    sim::Sia sia(config, model, program);
    snn::SessionState valid;
    (void)engine.run_window(train, valid);

    snn::SessionState wrong_layers = valid;
    wrong_layers.membranes.pop_back();
    snn::SessionState wrong_size = valid;
    wrong_size.membranes[0].push_back(0);
    snn::SessionState readout_bank = valid;
    readout_bank.membranes[1].assign(4, 7);  // layer 1 is the readout
    for (const auto& [name, bad] : {std::pair{"layer count", wrong_layers},
                                    std::pair{"spiking-layer size", wrong_size},
                                    std::pair{"readout bank", readout_bank}}) {
        SCOPED_TRACE(name);
        snn::SessionState session = bad;
        EXPECT_THROW((void)engine.run_window(train, session), std::invalid_argument);
        EXPECT_EQ(session, bad);
        session = bad;
        EXPECT_THROW((void)sia.run(train, session, {}), std::invalid_argument);
        EXPECT_EQ(session, bad);
    }

    snn::SessionState engine_session = valid;
    snn::SessionState sia_session = valid;
    expect_same(sia.run(train, sia_session, {}), engine.run_window(train, engine_session));
    EXPECT_EQ(engine_session, sia_session);
}

TEST(StreamSession, EmptyTrainIsInvalidOnBothBackends) {
    // A zero-frame train has no prediction. Every engine entry point
    // rejects it before touching the session, a server lane answers
    // kInvalidRequest on either backend, and a rejected session window
    // leaves its session as it was.
    const auto model = conv_model(31, 1);
    const snn::SpikeTrain empty;
    const snn::ExitCriterion exit{.margin = 1};

    snn::FunctionalEngine engine(model);
    snn::SessionState session;
    EXPECT_THROW((void)engine.run(empty), std::invalid_argument);
    EXPECT_THROW((void)engine.run(empty, exit), std::invalid_argument);
    EXPECT_THROW((void)engine.run_window(empty, session), std::invalid_argument);
    EXPECT_THROW((void)engine.run_window(empty, session, exit), std::invalid_argument);
    const sim::SiaConfig config;
    const auto program = core::SiaCompiler(config).compile(model);
    sim::Sia sia(config, model, program);
    EXPECT_THROW((void)sia.run(empty), std::invalid_argument);
    EXPECT_THROW((void)sia.run(empty, session, exit), std::invalid_argument);
    EXPECT_FALSE(session.initialized);
    EXPECT_EQ(session.windows, 0U);

    const auto train = random_train(model, 3, 9);
    const auto want = engine.run(train);
    for (const bool use_sia : {false, true}) {
        SCOPED_TRACE(use_sia ? "sia" : "functional");
        std::shared_ptr<core::Backend> backend;
        if (use_sia) {
            backend = std::make_shared<core::SiaBackend>(model);
        } else {
            backend = std::make_shared<core::FunctionalBackend>(model);
        }
        core::Server server(std::move(backend), {.threads = 2});
        const auto stateless = server.submit(core::Request::from_train(empty)).get();
        EXPECT_EQ(stateless.error_code, core::ErrorCode::kInvalidRequest);
        const auto window =
            server.submit(core::Request::from_train(empty).with_session("cam")).get();
        EXPECT_EQ(window.error_code, core::ErrorCode::kInvalidRequest);
        const auto next =
            server.submit(core::Request::from_train(train).with_session("cam")).get();
        ASSERT_TRUE(next.ok()) << next.error;
        expect_same(next, want);
        server.shutdown();
        EXPECT_EQ(server.stats().failed, 2U);
    }
}

// ---- server-level chunking identity (the tentpole property) ----

void expect_server_chunk_identity(std::shared_ptr<core::Backend> backend,
                                  const snn::SnnModel& model,
                                  std::size_t threads) {
    const auto train = random_train(model, 8, 21);
    snn::FunctionalEngine engine(model);
    const auto mono = engine.run(train);

    core::Server server(std::move(backend), {.threads = threads, .max_batch = 4});
    for (const std::size_t w : {1U, 2U, 4U, 8U}) {
        SCOPED_TRACE("window=" + std::to_string(w));
        const std::string id = "stream-" + std::to_string(w);
        // Submit every window up front (none awaited) so wave
        // formation actually has to serialize them.
        std::vector<std::future<core::Response>> futures;
        for (auto& win : chunk(train, w)) {
            futures.push_back(server.submit(
                core::Request::from_train(std::move(win)).with_session(id)));
        }
        std::vector<std::vector<std::int64_t>> logits;
        for (std::size_t i = 0; i < futures.size(); ++i) {
            auto response = futures[i].get();
            EXPECT_EQ(response.session, id);
            EXPECT_EQ(response.window_seq, i);
            logits.insert(logits.end(), response.logits_per_step.begin(),
                          response.logits_per_step.end());
        }
        EXPECT_EQ(logits, mono.logits_per_step);
        EXPECT_TRUE(server.close_session(id));
    }
    server.shutdown();
    const auto stats = server.stats();
    EXPECT_EQ(stats.sessions_opened, 4U);
    EXPECT_EQ(stats.sessions_closed, 4U);
    EXPECT_EQ(stats.sessions_expired, 0U);
    EXPECT_EQ(stats.active_sessions, 0U);
    EXPECT_EQ(stats.failed, 0U);
}

TEST(StreamSession, ServerChunkedFunctionalSingleThread) {
    const auto model = conv_model(13, 1);
    expect_server_chunk_identity(std::make_shared<core::FunctionalBackend>(model),
                                 model, 1);
}

TEST(StreamSession, ServerChunkedFunctionalFourThreads) {
    const auto model = conv_model(13, 1);
    expect_server_chunk_identity(std::make_shared<core::FunctionalBackend>(model),
                                 model, 4);
}

TEST(StreamSession, ServerChunkedSiaSingleThread) {
    const auto model = conv_model(19, 1);
    expect_server_chunk_identity(std::make_shared<core::SiaBackend>(model), model, 1);
}

TEST(StreamSession, ServerChunkedSiaFourThreads) {
    const auto model = conv_model(19, 1);
    expect_server_chunk_identity(std::make_shared<core::SiaBackend>(model), model, 4);
}

TEST(StreamSession, BackendsAgreeOnChunkedStreams) {
    const auto model = conv_model(23, 1);
    const auto train = random_train(model, 6, 5);
    std::vector<std::vector<std::vector<std::int64_t>>> per_backend;
    for (const bool use_sia : {false, true}) {
        std::shared_ptr<core::Backend> backend;
        if (use_sia) {
            backend = std::make_shared<core::SiaBackend>(model);
        } else {
            backend = std::make_shared<core::FunctionalBackend>(model);
        }
        core::Server server(std::move(backend), {.threads = 2});
        std::vector<std::future<core::Response>> futures;
        for (auto& win : chunk(train, 2)) {
            futures.push_back(server.submit(
                core::Request::from_train(std::move(win)).with_session("x")));
        }
        std::vector<std::vector<std::int64_t>> logits;
        for (auto& f : futures) {
            auto response = f.get();
            logits.insert(logits.end(), response.logits_per_step.begin(),
                          response.logits_per_step.end());
        }
        per_backend.push_back(std::move(logits));
        server.shutdown();
    }
    EXPECT_EQ(per_backend[0], per_backend[1]);
}

// ---- session lifecycle ----

TEST(StreamSession, IdleSessionExpiresAndRestarts) {
    const auto model = conv_model(29, 1);
    core::Server server(std::make_shared<core::FunctionalBackend>(model),
                        {.threads = 1, .session_idle_ms = 50});
    const auto train = random_train(model, 2, 3);

    const auto r0 =
        server.submit(core::Request::from_train(train).with_session("cam")).get();
    EXPECT_EQ(r0.window_seq, 0U);
    EXPECT_EQ(r0.session_steps, 2);
    EXPECT_TRUE(eventually([&] { return server.session_count() == 1; }));

    std::this_thread::sleep_for(120ms);
    // Expiry is lazy: the next admission sweeps the idle session and
    // opens a fresh one under the same id (window_seq restarts at 0
    // and the carried readout starts over).
    const auto r1 =
        server.submit(core::Request::from_train(train).with_session("cam")).get();
    EXPECT_EQ(r1.window_seq, 0U);
    EXPECT_EQ(r1.session_steps, 2);
    expect_same(r1, r0);

    server.shutdown();
    const auto stats = server.stats();
    EXPECT_EQ(stats.sessions_opened, 2U);
    EXPECT_EQ(stats.sessions_expired, 1U);
}

TEST(StreamSession, CloseWithPendingWindowsDefers) {
    const auto model = conv_model(31, 1);
    core::Server server(std::make_shared<core::FunctionalBackend>(model),
                        {.threads = 1});
    const auto train = random_train(model, 2, 3);
    std::vector<std::future<core::Response>> futures;
    for (int i = 0; i < 4; ++i) {
        futures.push_back(
            server.submit(core::Request::from_train(train).with_session("s")));
    }
    EXPECT_TRUE(server.close_session("s"));
    EXPECT_FALSE(server.close_session("unknown"));
    for (auto& f : futures) static_cast<void>(f.get());
    EXPECT_TRUE(eventually([&] { return server.session_count() == 0; }));
    server.shutdown();
    const auto stats = server.stats();
    EXPECT_EQ(stats.sessions_opened, 1U);
    EXPECT_EQ(stats.sessions_closed, 1U);
    EXPECT_EQ(stats.completed, 4U);
}

TEST(StreamSession, CloseFlagOnFinalWindowRetires) {
    const auto model = conv_model(37, 1);
    core::Server server(std::make_shared<core::FunctionalBackend>(model),
                        {.threads = 1});
    const auto train = random_train(model, 2, 3);
    auto f0 = server.submit(core::Request::from_train(train).with_session("s"));
    auto f1 = server.submit(
        core::Request::from_train(train).with_session("s", /*close=*/true));
    EXPECT_EQ(f0.get().window_seq, 0U);
    const auto last = f1.get();
    EXPECT_EQ(last.window_seq, 1U);
    EXPECT_EQ(last.session_steps, 4);
    EXPECT_TRUE(eventually([&] { return server.session_count() == 0; }));
    server.shutdown();
    EXPECT_EQ(server.stats().sessions_closed, 1U);
}

TEST(StreamSession, ShutdownWithOpenSessionsDrains) {
    const auto model = conv_model(41, 1);
    const auto train_a = random_train(model, 6, 50);
    const auto train_b = random_train(model, 6, 51);
    snn::FunctionalEngine engine(model);
    const auto mono_a = engine.run(train_a);
    const auto mono_b = engine.run(train_b);

    core::Server server(std::make_shared<core::FunctionalBackend>(model),
                        {.threads = 2, .max_batch = 2});
    std::vector<std::future<core::Response>> fa;
    std::vector<std::future<core::Response>> fb;
    for (std::size_t i = 0; i < 3; ++i) {
        fa.push_back(server.submit(
            core::Request::from_train(chunk(train_a, 2)[i]).with_session("a")));
        fb.push_back(server.submit(
            core::Request::from_train(chunk(train_b, 2)[i]).with_session("b")));
    }
    // Shut down with every window still potentially queued: the drain
    // must resolve each one against its session in admission order.
    server.shutdown();
    std::vector<std::vector<std::int64_t>> logits_a;
    std::vector<std::vector<std::int64_t>> logits_b;
    for (std::size_t i = 0; i < 3; ++i) {
        auto ra = fa[i].get();
        auto rb = fb[i].get();
        logits_a.insert(logits_a.end(), ra.logits_per_step.begin(),
                        ra.logits_per_step.end());
        logits_b.insert(logits_b.end(), rb.logits_per_step.begin(),
                        rb.logits_per_step.end());
    }
    EXPECT_EQ(logits_a, mono_a.logits_per_step);
    EXPECT_EQ(logits_b, mono_b.logits_per_step);
    EXPECT_EQ(server.stats().completed, 6U);
    EXPECT_EQ(server.stats().failed, 0U);
}

TEST(StreamSession, SessionWindowsAreNeverShed) {
    // Fill the queue with low-priority session windows, then push a
    // high-priority request under kReject: the high request must be
    // refused rather than a session window evicted (shedding one would
    // desync the stream's carried state).
    const auto model = conv_model(43, 1);
    core::Server server(std::make_shared<core::FunctionalBackend>(model),
                        {.threads = 1,
                         .max_queue = 2,
                         .max_batch = 1,
                         .backpressure = core::BackpressurePolicy::kReject});
    const auto train = random_train(model, 64, 3);
    std::vector<std::future<core::Response>> futures;
    // First submission may dispatch immediately; keep submitting until
    // the queue is full of session windows.
    std::size_t admitted = 0;
    while (admitted < 6) {
        auto f = server.try_submit(core::Request::from_train(train)
                                       .with("", "t-low", core::Priority::kLow)
                                       .with_session("s"));
        if (f) {
            futures.push_back(std::move(*f));
            ++admitted;
        } else {
            break;  // queue full of session windows
        }
    }
    const auto high = server.try_submit(core::Request::from_train(train).with(
        "", "t-high", core::Priority::kHigh));
    if (high.has_value()) {
        // The queue was not full when the high request arrived (drain
        // raced ahead) — nothing to assert about eviction.
        SUCCEED();
    } else {
        EXPECT_EQ(server.stats().shed, 0U);
    }
    server.shutdown();
    for (auto& f : futures) static_cast<void>(f.get());
    EXPECT_EQ(server.stats().shed, 0U);
}

// ---- fault tolerance (chaos x streaming) ----

// A window that fails mid-stream must leave the stream continuing from
// its pre-window state: the failed window's spikes are never applied
// (the dispatcher restores the session snapshot before any re-run), the
// caller gets a structured error, and later windows keep flowing — the
// session is degraded, never wedged.
TEST(StreamSession, FaultedWindowLeavesStreamContinuingFromPriorState) {
    const auto model = conv_model(47, 1);
    const auto train = random_train(model, 6, 60);
    auto windows = chunk(train, 2);
    ASSERT_EQ(windows.size(), 3U);

    // Lane rng streams are pinned to admission order, so the second
    // submitted window (stream 1) is deterministically poisoned.
    util::FaultPlan plan;
    plan.fail_streams = {1};
    core::Server server(
        std::make_shared<core::FaultyBackend>(
            std::make_shared<core::FunctionalBackend>(model), plan),
        {.threads = 1});
    std::vector<std::future<core::Response>> futures;
    for (auto& win : windows) {
        futures.push_back(server.submit(
            core::Request::from_train(std::move(win)).with_session("cam")));
    }
    auto r0 = futures[0].get();
    auto r1 = futures[1].get();
    auto r2 = futures[2].get();
    ASSERT_TRUE(r0.ok()) << r0.error;
    EXPECT_FALSE(r1.ok());
    EXPECT_EQ(r1.error_code, core::ErrorCode::kBackendError);
    EXPECT_EQ(r1.session, "cam");
    EXPECT_EQ(r1.window_seq, 1U);
    ASSERT_TRUE(r2.ok()) << r2.error;
    EXPECT_EQ(r2.window_seq, 2U);
    EXPECT_EQ(r2.session_steps, 4) << "the faulted window's steps never landed";

    // Reference: a fault-free stream that simply skips the faulted
    // window. Window 2 must match bit-for-bit — proof the failed run
    // left the membranes exactly as window 0 did.
    core::Server clean(std::make_shared<core::FunctionalBackend>(model),
                       {.threads = 1});
    auto ref_windows = chunk(train, 2);
    const auto c0 = clean
                        .submit(core::Request::from_train(std::move(ref_windows[0]))
                                    .with_session("cam"))
                        .get();
    const auto c2 = clean
                        .submit(core::Request::from_train(std::move(ref_windows[2]))
                                    .with_session("cam"))
                        .get();
    expect_same(r0, c0);
    expect_same(r2, c2);
    clean.shutdown();

    // The session is still live and closable; nothing leaked.
    EXPECT_TRUE(server.close_session("cam"));
    EXPECT_TRUE(eventually([&] { return server.session_count() == 0; }));
    server.shutdown();
    const auto stats = server.stats();
    EXPECT_EQ(stats.completed, 2U);
    EXPECT_EQ(stats.failed, 1U);
    EXPECT_EQ(stats.sessions_closed, 1U);
}

// Deferred close and idle expiry must survive mid-stream faults: a
// faulted window still releases its pending slot (close fires once the
// backlog drains) and a session whose last window failed still ages
// out. A wedged pending count would hang both paths.
TEST(StreamSession, FaultsDoNotWedgeDeferredCloseOrIdleExpiry) {
    const auto model = conv_model(53, 1);
    const auto train = random_train(model, 2, 61);

    // Deferred close with a poisoned window in the backlog. Streams
    // follow admission order: stream 1 is the second "s" window below,
    // stream 5 the lone "u" window.
    util::FaultPlan plan;
    plan.fail_streams = {1, 5};
    core::Server server(
        std::make_shared<core::FaultyBackend>(
            std::make_shared<core::FunctionalBackend>(model), plan),
        {.threads = 1, .session_idle_ms = 50});
    std::vector<std::future<core::Response>> futures;
    for (int i = 0; i < 4; ++i) {
        futures.push_back(
            server.submit(core::Request::from_train(train).with_session("s")));
    }
    EXPECT_TRUE(server.close_session("s"));  // defers behind 4 windows
    std::size_t failed = 0;
    for (auto& f : futures) {
        if (!f.get().ok()) ++failed;  // every future resolves, none dropped
    }
    EXPECT_EQ(failed, 1U);
    EXPECT_TRUE(eventually([&] { return server.session_count() == 0; }));

    // Idle expiry of a healthy session and of one whose only window
    // faulted: both must age out the same way.
    auto healthy = server.submit(core::Request::from_train(train)
                                     .with_session("t"));  // stream 4
    EXPECT_TRUE(healthy.get().ok());
    auto faulted = server.submit(core::Request::from_train(train)
                                     .with_session("u"));  // stream 5
    EXPECT_FALSE(faulted.get().ok());
    std::this_thread::sleep_for(120ms);
    // Lazy sweep: the next admission retires both idle sessions.
    EXPECT_TRUE(server.submit(core::Request::view_train(train)).get().ok());
    EXPECT_TRUE(eventually([&] { return server.session_count() == 0; }));
    server.shutdown();
    const auto stats = server.stats();
    EXPECT_EQ(stats.sessions_closed, 1U);
    EXPECT_EQ(stats.sessions_expired, 2U);
}

}  // namespace
}  // namespace sia
