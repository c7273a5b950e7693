// dvs-sessions: streaming sessions with temporal early exit.
//
// 8 concurrent DVS sessions, each closed-loop (a stream sends its next
// 8-step window when the previous one resolves), all driven from one
// thread, served by a core::Server SiaBackend lane (threads=4) with a
// margin ExitCriterion armed on every window. Streams come from a pool
// of 256 seeded data::make_event_scene scenes (16x16 sensor, 64 steps,
// about 1% of pixel-steps carry an event); a finished stream is
// followed by the next one in the pool under a fresh session id.
//
// This exercises what cifar-sia-batch bypasses: session restore and
// write-back in the simulator, the ragged retirement/back-fill
// schedule, and the server's per-wave SessionState snapshots. The model
// is VGG-11 (w=8) over 2 polarity channels, calibrated on event frames,
// so its set-up runs the same calibrate/convert/compile path as the
// CIFAR workloads. (VGG-11 needs a sensor side that is a multiple of 16.)
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/e2e/models.hpp"
#include "bench/e2e/workload.hpp"
#include "core/compiler.hpp"
#include "core/convert.hpp"
#include "core/server.hpp"
#include "data/events.hpp"
#include "nn/vgg.hpp"
#include "sim/sia.hpp"
#include "snn/encoding.hpp"
#include "snn/engine.hpp"
#include "snn/exit.hpp"
#include "snn/session.hpp"
#include "snn/spike.hpp"

namespace sia::bench::e2e {

struct DvsSessions {
    static constexpr std::size_t kStreams = 256;
    static constexpr std::size_t kSessions = 8;
    static constexpr std::size_t kThreads = 4;
    static constexpr std::int64_t kTimesteps = 64;
    static constexpr std::int64_t kWindowSteps = 8;
    /// Chosen so that 30-70% of windows exit early.
    static constexpr snn::ExitCriterion kExit{
        .margin = 128, .stable_checks = 0, .min_steps = 2, .hysteresis = 1, .check_interval = 2};

    /// A 16x16 sensor watching one moving object; about 1% of
    /// pixel-steps carry an event.
    static data::EventSceneConfig scene(std::int64_t timesteps, std::uint64_t seed) {
        data::EventSceneConfig cfg;
        cfg.size = 16;
        cfg.timesteps = timesteps;
        cfg.objects = 1;
        cfg.event_rate = 0.25F;
        cfg.noise_rate = 0.001F;
        cfg.seed = seed;
        return cfg;
    }

    /// One seeded scene, rasterized into consecutive session windows.
    static std::vector<snn::SpikeTrain> event_stream(std::uint64_t seed) {
        const data::EventSceneConfig cfg = scene(kTimesteps, seed);
        std::vector<snn::SpikeTrain> windows;
        for (const tensor::Tensor& frames : data::events_to_windows(
                 data::make_event_scene(cfg), cfg.size, kTimesteps, kWindowSteps)) {
            windows.push_back(snn::frames_to_train(frames));
        }
        return windows;
    }

    struct Served {
        std::size_t stream = 0;
        std::size_t window = 0;
        bool ok = false;
        std::vector<std::int64_t> logits;
        std::int64_t steps = 0;
    };

    struct State {
        SetupStages stages;
        snn::SnnModel model;
        std::vector<std::vector<snn::SpikeTrain>> streams;  ///< [stream][window]
        std::uint64_t seed = 0;
        SpanLog log;
        std::unique_ptr<core::Server> server;
        std::uint64_t next_stream = 0;   ///< the lane's admission sequence
        std::uint64_t next_session = 0;  ///< streams started, over every phase
        std::vector<Served> served;
        core::ServerStats before;
        core::ServerStats after;
    };

    static std::unique_ptr<State> build(const Args& args) {
        auto st = std::make_unique<State>();
        st->seed = args.seed;
        // Calibrate on the per-step frames of one fixed scene: batch
        // norm then sees the sparse binary inputs the SNN is fed.
        const data::EventSceneConfig calibration = scene(32, kModelSeed);
        std::int64_t dropped = 0;
        const tensor::Tensor frames = data::events_to_frames(
            data::make_event_scene(calibration), calibration.size, calibration.timesteps,
            &dropped);
        nn::VggConfig config;
        config.width = 8;
        config.input_channels = 2;
        config.input_size = calibration.size;
        std::unique_ptr<nn::Vgg11> ann;
        st->stages.calibrate_ms =
            time_ms([&] { ann = calibrated_ann<nn::Vgg11>(config, frames); });
        st->stages.convert_ms =
            time_ms([&] { st->model = core::AnnToSnnConverter{}.convert(ann->ir()); });
        for (std::size_t k = 0; k < kStreams; ++k) {
            st->streams.push_back(event_stream(util::mix_seed(args.seed, 1000 + k)));
        }
        auto backend = std::make_shared<core::SiaBackend>(st->model);
        st->stages.prepare_ms = warm_up(backend, kThreads, [&](std::size_t i) {
            return core::Request::view_train(st->streams[i][0]);
        });
        st->server = std::make_unique<core::Server>(
            lane_backend(backend, 0, st->log, args.traced()),
            core::ServerOptions{.threads = kThreads});
        return st;
    }

    struct Session {
        std::size_t stream = 0;
        std::string id;
        std::size_t window = 0;
        bool active = false;
        ClientRecord record;
        std::future<core::Response> future;
    };

    static Phase run_phase(State& st, double seconds) {
        const std::size_t windows = st.streams.front().size();
        st.before = st.server->stats();
        Phase phase;
        phase.start = Clock::now();
        const auto deadline = phase.start + seconds_of(seconds);
        std::array<Session, kSessions> sessions;

        const auto send = [&](Session& s, Clock::time_point due) {
            s.record = ClientRecord{};
            s.record.stream = st.next_stream++;
            s.record.due = due;
            s.record.submit = Clock::now();
            const bool last = s.window + 1 == windows;
            s.future = st.server->submit(
                core::Request::view_train(st.streams[s.stream][s.window])
                    .with_session(s.id, last)
                    .with_early_exit(kExit));
        };
        const auto start_stream = [&](Session& s, Clock::time_point due) {
            const std::uint64_t n = st.next_session++;
            s.stream = n % st.streams.size();
            s.id = "dvs-" + std::to_string(n);
            s.window = 0;
            s.active = true;
            send(s, due);
        };
        for (Session& s : sessions) start_stream(s, phase.start);

        std::size_t active = kSessions;
        while (active > 0) {
            bool progressed = false;
            for (Session& s : sessions) {
                if (!s.active ||
                    s.future.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
                    continue;
                }
                progressed = true;
                s.record.complete = Clock::now();
                core::Response r = s.future.get();
                s.record.ok = r.ok();
                st.served.push_back({s.stream, s.window, r.ok(), std::move(r.logits),
                                     r.steps_used});
                phase.requests.push_back(s.record);
                phase.end = s.record.complete;
                if (++s.window < windows) {
                    send(s, s.record.complete);
                } else if (Clock::now() < deadline) {
                    start_stream(s, s.record.complete);
                } else {
                    s.active = false;
                    --active;
                }
            }
            if (!progressed) std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
        st.after = st.server->stats();
        return phase;
    }

    static void verify(State& st, Result& result) {
        // Each stream's windows against a sequential session on the
        // functional engine, computed once per distinct stream.
        std::vector<std::vector<snn::RunResult>> expected(st.streams.size());
        snn::FunctionalEngine reference(st.model, lean_engine());
        for (const Served& s : st.served) {
            std::vector<snn::RunResult>& ref = expected[s.stream];
            if (!ref.empty()) continue;
            snn::SessionState session;
            for (const snn::SpikeTrain& window : st.streams[s.stream]) {
                ref.push_back(reference.run_window(window, session, kExit));
            }
        }
        std::size_t exited = 0;
        for (const Served& s : st.served) {
            const snn::RunResult& ref = expected[s.stream][s.window];
            if (!s.ok || s.logits != ref.readout || s.steps != ref.timesteps) ++result.failed;
            if (ref.timesteps < ref.steps_offered) ++exited;
        }
        result.check(result.failed == 0, std::to_string(result.failed) +
                                             " session windows failed or differ from a "
                                             "sequential FunctionalEngine session");
        std::cerr << "dvs-sessions: " << exited << " of " << st.served.size()
                  << " windows exited early\n";
    }

    static LayerReport layers(State& st, const Phase& traced, Result& /*result*/) {
        LayerReport out;
        out.worker_threads = kThreads;
        const ServerDelta delta = server_delta(st.before, st.after);
        out.wave_size_mean = delta.wave_size_mean;
        sim::CompiledProgram program;
        out.compile_ms = time_ms([&] { program = core::SiaCompiler{}.compile(st.model); });
        snn::FunctionalEngine engine(st.model, lean_engine());
        sim::Sia sia(sim::SiaConfig{}, st.model, program);
        (void)sia.run(st.streams[0][0]);
        for (std::size_t k = 0; k < 4; ++k) {
            // Encoding a DVS window is rasterizing its events.
            const double stream_ms =
                time_ms([&] { (void)event_stream(util::mix_seed(st.seed, 1000 + k)); });
            out.engine.encode_us.push_back(
                1e3 * stream_ms / static_cast<double>(st.streams[k].size()));
            snn::SessionState engine_session;
            snn::SessionState sia_session;
            for (const snn::SpikeTrain& window : st.streams[k]) {
                snn::RunResult run;
                out.engine.add(run, time_ms([&] {
                    run = engine.run_window(window, engine_session, kExit);
                }));
                sim::SiaRunResult sim_run;
                out.sia.add(sim_run,
                            time_ms([&] { sim_run = sia.run(window, sia_session, kExit); }));
            }
        }
        out.steps_per_item = mean_steps(st.served, traced.requests.size());
        return out;
    }
};

}  // namespace sia::bench::e2e
