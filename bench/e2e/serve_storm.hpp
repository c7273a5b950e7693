// serve-storm: the serving layer under an open-loop storm.
//
// One generator thread sends Poisson arrivals from a seeded schedule at
// a fixed mean rate (about 40% of the two lanes' measured capacity,
// 3.7k requests/s on a 4-core x86 VM, when the benchmark was
// introduced) to two core::Server
// functional lanes (VGG-11 w=8, 16x16 px, T=6; 2 worker threads each;
// kBlock). Three tenants share both lanes: premium (kHigh, weight 4,
// 10% of traffic), standard (kNormal, 2, 45%), batch (kLow, 1, 45%).
// Each lane sits behind a core::FaultyBackend whose seeded plan makes 2%
// of requests fail transiently: the wave throws, is bisected, and the
// poisoned request is retried until it succeeds, so no request fails
// and the retry ledger is exact. Per-request engine time is about a
// millisecond, so core.server does most of the work: queueing, wave
// formation, priority preemption, bisection and retries.
//
// Latency runs from each request's due time. A collector thread polls
// the futures as they complete (sleeping at most 100 us between scans),
// so no request waits for the schedule to end before it is timed.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/e2e/models.hpp"
#include "bench/e2e/workload.hpp"
#include "core/compiler.hpp"
#include "core/convert.hpp"
#include "core/faulty_backend.hpp"
#include "core/server.hpp"
#include "nn/vgg.hpp"
#include "sim/sia.hpp"
#include "snn/encoding.hpp"
#include "snn/engine.hpp"
#include "util/fault.hpp"

namespace sia::bench::e2e {

struct ServeStorm {
    static constexpr double kArrivalsPerSecond = 1500.0;
    static constexpr std::int64_t kTimesteps = 6;
    static constexpr std::size_t kPool = 32;
    static constexpr std::size_t kThreadsPerLane = 2;
    static constexpr double kTransientProbability = 0.02;
    static constexpr std::array<const char*, 2> kLanes = {"vgg-a", "vgg-b"};

    struct Tenant {
        const char* name;
        core::Priority priority;
        std::uint32_t weight;
        double share;
    };
    static constexpr std::array<Tenant, 3> kTenants = {{
        {"premium", core::Priority::kHigh, 4, 0.10},
        {"standard", core::Priority::kNormal, 2, 0.45},
        {"batch", core::Priority::kLow, 1, 0.45},
    }};

    struct Served {
        std::size_t train = 0;
        bool ok = false;
        std::vector<std::int64_t> logits;
        std::int64_t steps = 0;
    };

    struct State {
        SetupStages stages;
        snn::SnnModel model;
        std::vector<tensor::Tensor> images;
        std::vector<snn::SpikeTrain> trains;
        std::uint64_t seed = 0;
        std::array<util::FaultPlan, 2> plans;
        SpanLog log;
        std::unique_ptr<core::Server> server;
        std::array<std::uint64_t, 2> next_stream{};  ///< each lane's admission sequence
        std::size_t phases = 0;
        std::vector<Served> served;
        std::vector<ClientRecord> records;  ///< every phase, for the server-latency gate
        core::ServerStats before;           ///< counters at the start of the last phase
        core::ServerStats after;            ///< counters at its end
    };

    static std::unique_ptr<State> build(const Args& args) {
        auto st = std::make_unique<State>();
        st->seed = args.seed;
        util::Rng calibration(kModelSeed);
        nn::VggConfig config;
        config.width = 8;
        config.input_size = 16;
        std::unique_ptr<nn::Vgg11> ann;
        st->stages.calibrate_ms = time_ms(
            [&] { ann = calibrated_ann<nn::Vgg11>(config, uniform_images(2, 3, 16, calibration)); });
        st->stages.convert_ms =
            time_ms([&] { st->model = core::AnnToSnnConverter{}.convert(ann->ir()); });
        st->images = image_pool(kPool, 3, 16, util::mix_seed(args.seed, 1));
        for (const tensor::Tensor& image : st->images) {
            st->trains.push_back(snn::encode_thermometer(image, kTimesteps));
        }

        core::ServerOptions options{
            .threads = kThreadsPerLane,
            .max_queue = 4096,
            .max_batch = 2 * kThreadsPerLane,
            .backpressure = core::BackpressurePolicy::kBlock,
        };
        for (const Tenant& t : kTenants) options.tenant_weights[t.name] = t.weight;
        // The exact retry ledger assumes the breaker never trips.
        options.fault.breaker_failures = 0;
        options.fault.breaker_failure_rate = 2.0;
        st->server = std::make_unique<core::Server>(options);
        for (std::uint32_t lane = 0; lane < 2; ++lane) {
            auto backend = std::make_shared<core::FunctionalBackend>(st->model, lean_engine());
            st->stages.prepare_ms += warm_up(backend, kThreadsPerLane, [&](std::size_t i) {
                return core::Request::view_train(st->trains[i]);
            });
            util::FaultPlan& plan = st->plans[lane];
            plan.seed = util::mix_seed(args.seed, 10 + lane);
            plan.transient_probability = kTransientProbability;
            st->server->register_model(
                kLanes[lane],
                lane_backend(std::make_shared<core::FaultyBackend>(backend, plan), lane,
                             st->log, args.traced()));
        }
        return st;
    }

    struct Arrival {
        double at_s = 0.0;
        std::uint32_t lane = 0;
        std::size_t tenant = 0;
        std::size_t train = 0;
    };

    static std::vector<Arrival> schedule(std::uint64_t seed, double seconds) {
        util::Rng rng(seed);
        std::vector<Arrival> out;
        double t = 0.0;
        while (true) {
            t += -std::log(1.0 - static_cast<double>(rng.uniform())) / kArrivalsPerSecond;
            if (t >= seconds) break;
            Arrival a;
            a.at_s = t;
            const double u = rng.uniform();
            a.tenant = u < kTenants[0].share ? 0 : (u < kTenants[0].share + kTenants[1].share ? 1 : 2);
            a.lane = rng.bernoulli(0.5) ? 1 : 0;
            a.train = static_cast<std::size_t>(rng.integer(0, kPool - 1));
            out.push_back(a);
        }
        return out;
    }

    struct Slot {
        ClientRecord record;
        std::future<core::Response> future;
        Served served;
    };

    static Phase run_phase(State& st, double seconds) {
        const std::vector<Arrival> arrivals =
            schedule(util::mix_seed(st.seed, 100 + st.phases++), seconds);
        std::vector<Slot> slots(arrivals.size());
        std::mutex inbox_mutex;
        std::vector<std::size_t> inbox;  // guarded by inbox_mutex
        std::atomic<bool> generating{true};

        st.before = st.server->stats();
        Phase phase;
        phase.start = Clock::now();
        {
            std::jthread collector([&] {
                std::vector<std::size_t> pending;
                while (true) {
                    const bool last_scan = !generating.load();
                    {
                        const std::lock_guard lock(inbox_mutex);
                        pending.insert(pending.end(), inbox.begin(), inbox.end());
                        inbox.clear();
                    }
                    if (last_scan && pending.empty()) break;
                    bool progressed = false;
                    for (auto it = pending.begin(); it != pending.end();) {
                        Slot& slot = slots[*it];
                        if (slot.future.wait_for(std::chrono::seconds(0)) !=
                            std::future_status::ready) {
                            ++it;
                            continue;
                        }
                        slot.record.complete = Clock::now();
                        try {
                            core::Response r = slot.future.get();
                            slot.served.ok = slot.record.ok = r.ok();
                            slot.served.logits = std::move(r.logits);
                            slot.served.steps = r.steps_used;
                        } catch (const std::exception&) {  // shed: counted as failed
                            slot.served.ok = slot.record.ok = false;
                        }
                        it = pending.erase(it);
                        progressed = true;
                    }
                    if (!progressed) std::this_thread::sleep_for(std::chrono::microseconds(50));
                }
            });
            try {
                for (std::size_t i = 0; i < arrivals.size(); ++i) {
                    const Arrival& a = arrivals[i];
                    Slot& slot = slots[i];
                    slot.record.lane = a.lane;
                    slot.record.stream = st.next_stream[a.lane]++;
                    slot.record.premium = a.tenant == 0;
                    slot.record.due = phase.start + seconds_of(a.at_s);
                    slot.served.train = a.train;
                    std::this_thread::sleep_until(slot.record.due);
                    slot.record.submit = Clock::now();
                    const Tenant& tenant = kTenants[a.tenant];
                    slot.future = st.server->submit(core::Request::view_train(st.trains[a.train])
                                                        .with(kLanes[a.lane], tenant.name,
                                                              tenant.priority));
                    const std::lock_guard lock(inbox_mutex);
                    inbox.push_back(i);
                }
            } catch (...) {
                generating = false;
                throw;
            }
            generating = false;
        }  // joins the collector
        st.after = st.server->stats();

        phase.end = phase.start;
        for (Slot& slot : slots) {
            phase.end = std::max(phase.end, slot.record.complete);
            phase.requests.push_back(slot.record);
            st.records.push_back(slot.record);
            st.served.push_back(std::move(slot.served));
        }
        return phase;
    }

    static void verify(State& st, Result& result) {
        snn::FunctionalEngine reference(st.model, lean_engine());
        std::vector<std::vector<std::int64_t>> expected;
        for (const snn::SpikeTrain& train : st.trains) {
            expected.push_back(reference.run(train).readout);
        }
        for (const Served& s : st.served) {
            if (!s.ok || s.logits != expected[s.train]) ++result.failed;
        }
        result.check(result.failed == 0, std::to_string(result.failed) +
                                             " responses failed or differ from the "
                                             "sequential FunctionalEngine reference");

        // Exact ledger: one retry per seeded transient over each lane's
        // admission range, and nothing else failed or retried.
        std::size_t expected_retries = 0;
        for (std::uint32_t lane = 0; lane < 2; ++lane) {
            const util::FaultInjector oracle(st.plans[lane]);
            for (std::uint64_t s = 0; s < st.next_stream[lane]; ++s) {
                if (oracle.decide(s) == util::FaultKind::kTransient) ++expected_retries;
            }
        }
        const core::ServerStats stats = st.server->stats();
        result.check(stats.retried == expected_retries && stats.failed == 0,
                     "fault ledger: retried=" + std::to_string(stats.retried) +
                         " failed=" + std::to_string(stats.failed) + ", expected " +
                         std::to_string(expected_retries) + " retries and no failures");

        // The client clock encloses the server's admission-to-completion
        // clock, so the client p99 cannot be lower than the server's
        // (less one histogram bucket of quantization).
        std::vector<double> client_us;
        for (const ClientRecord& r : st.records) client_us.push_back(us_between(r.due, r.complete));
        const double bucket = std::pow(10.0, 1.0 / 64.0);
        result.check(quantile(client_us, 0.99) * bucket >= stats.latency_us.p99(),
                     "client p99 " + std::to_string(quantile(client_us, 0.99)) +
                         " us is below the server-side p99 " +
                         std::to_string(stats.latency_us.p99()) + " us");
    }

    static LayerReport layers(State& st, const Phase& traced, Result& /*result*/) {
        LayerReport out;
        out.worker_threads = 2 * kThreadsPerLane;
        const ServerDelta delta = server_delta(st.before, st.after);
        out.wave_size_mean = delta.wave_size_mean;
        out.retried = delta.retried;
        out.isolated_waves = delta.isolated_waves;
        sim::CompiledProgram program;
        out.compile_ms = time_ms([&] { program = core::SiaCompiler{}.compile(st.model); });
        snn::FunctionalEngine engine(st.model, lean_engine());
        sim::Sia sia(sim::SiaConfig{}, st.model, program);
        (void)sia.run(st.trains[0]);
        for (std::size_t k = 0; k < kPool; ++k) {
            snn::SpikeTrain train;
            out.engine.encode_us.push_back(
                1e3 * time_ms([&] { train = snn::encode_thermometer(st.images[k], kTimesteps); }));
            snn::RunResult run;
            out.engine.add(run, time_ms([&] { run = engine.run(train); }));
            if (k < 8) {
                sim::SiaRunResult sim_run;
                out.sia.add(sim_run, time_ms([&] { sim_run = sia.run(train); }));
            }
        }
        out.steps_per_item = mean_steps(st.served, traced.requests.size());
        return out;
    }
};

}  // namespace sia::bench::e2e
