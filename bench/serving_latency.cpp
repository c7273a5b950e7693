// core::Server offered-load sweep: submit pre-encoded requests at a
// controlled arrival rate against each backend (functional engine and
// cycle-accurate sim::Sia) and report achieved throughput plus p50/p95/
// p99 latency from the server's streaming histogram, with the client's
// view (submit to future-ready, recorded by a collector thread) as a
// cross-check: with --check, every load point's client p99 must reach
// the server's p99, less one histogram bucket.
//
// The sweep is self-calibrating: a warm-up batch estimates the
// backend's capacity, then offered load runs at fractions of it. With
// continuous batching there is no admission window: below saturation a
// request's latency is its own service time (the 0.25x load point is
// gated against 2x the measured single-request p99 — the regression
// tripwire for reintroducing a batching wait), above saturation the
// queue dominates.
//
// A mixed-tenant overload scenario then drives two registered models
// with three tenants (premium/kHigh, standard/kNormal, batch/kLow) at
// 2x aggregate capacity under kReject, and reports per-tenant latency,
// shedding, and SLO burn. With --check it gates: premium p99 within 3x
// of its unloaded p99, aggregate throughput within 10% of the
// single-tenant 2x point, ordered percentiles.
//
// With --chaos, the same overload shape runs twice more under kBlock —
// fault-free, then with a seeded 1% throw + 1% transient FaultPlan on
// both lanes — and --check gates the exact fault ledger (zero
// non-faulted requests lost, every seeded fault resolved as a
// structured error or retried success) plus premium p99 within 2x of
// the fault-free twin.
//
// An early-exit section then serves the same pool with a per-request
// margin criterion on each lane and records per-lane mean/p50/p99
// `steps_used` (and the retired fraction) — the serving-side view of
// temporal early exit. With --check it gates the ledger: every request
// completes, steps_used within [min_steps, T], ordered percentiles.
//
// Serving lanes run with readout history off (EngineConfig::
// record_readout_history = false): responses carry the final logits and
// steps_used either way, and per-step history is dead weight at serving
// time.
//
// Emits machine-readable BENCH_SERVING.json.
//
// Flags: --quick (reduced sweep), --check, --chaos, --out <path>,
// --threads <n>.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <future>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/common.hpp"
#include "core/backend.hpp"
#include "core/batch_runner.hpp"
#include "core/convert.hpp"
#include "core/faulty_backend.hpp"
#include "core/server.hpp"
#include "nn/vgg.hpp"
#include "snn/encoding.hpp"
#include "snn/engine.hpp"
#include "snn/exit.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace sia;
using Clock = std::chrono::steady_clock;

// Wave bound of the single-model sweep (also recorded in the JSON).
constexpr std::size_t kMaxBatch = 16;

/// Relative width of one util::StreamingHistogram bucket (64 per decade):
/// the quantization two histogram quantiles may differ by.
const double kHistogramBucket = std::pow(10.0, 1.0 / 64.0);

/// Serving lanes don't read per-step readout history — only the final
/// logits and the exit decision — so the functional lanes drop it.
snn::EngineConfig lean_engine_config() {
    snn::EngineConfig config;
    config.record_readout_history = false;
    return config;
}

std::vector<snn::SpikeTrain> make_pool(const snn::SnnModel& model, std::size_t count,
                                       std::int64_t timesteps) {
    util::Rng rng(123);
    std::vector<snn::SpikeTrain> pool;
    pool.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        tensor::Tensor img(tensor::Shape{1, model.input_channels, model.input_h,
                                         model.input_w});
        for (std::int64_t j = 0; j < img.numel(); ++j) img.flat(j) = rng.uniform();
        pool.push_back(snn::encode_thermometer(img, timesteps));
    }
    return pool;
}

struct LoadPoint {
    std::string backend;
    double fraction = 0.0;  ///< offered load as a fraction of capacity
    double offered_rps = 0.0;
    double achieved_rps = 0.0;
    double p50_us = 0.0;
    double p95_us = 0.0;
    double p99_us = 0.0;
    double client_p99_us = 0.0;  ///< submit to future-ready, seen by the client
    double mean_batch = 0.0;
    std::size_t completed = 0;
    std::size_t rejected = 0;
};

/// Estimate the backend's capacity (requests/sec) with a warm saturated
/// batch through the runner — also warms per-worker engines so the
/// measured load points exclude construction cost.
double calibrate_capacity(const std::shared_ptr<core::Backend>& backend,
                          const std::vector<snn::SpikeTrain>& pool,
                          std::size_t threads, std::size_t requests) {
    core::BatchRunner runner(backend, {.threads = threads});
    std::vector<core::Request> batch;
    for (std::size_t i = 0; i < requests; ++i) {
        batch.push_back(core::Request::view_train(pool[i % pool.size()]));
    }
    (void)runner.run(batch);  // cold: builds engines/programs
    const util::WallTimer timer;
    (void)runner.run(batch);  // warm: the measured capacity
    return 1e3 * static_cast<double>(requests) / timer.millis();
}

/// Closed-loop single-request latency: sequential awaited submits on an
/// otherwise idle server, so every request rides a wave of one. This is
/// the latency floor the low-load sweep points are gated against.
util::StreamingHistogram measure_single_request(
    const std::shared_ptr<core::Backend>& backend,
    const std::vector<snn::SpikeTrain>& pool, std::size_t threads,
    std::size_t requests) {
    core::Server server(backend, {.threads = threads, .max_batch = kMaxBatch});
    util::StreamingHistogram latency;
    for (std::size_t i = 0; i < requests; ++i) {
        const auto t0 = Clock::now();
        (void)server.submit(core::Request::view_train(pool[i % pool.size()])).get();
        latency.add(
            std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
    }
    server.shutdown();
    return latency;
}

/// Open-loop run: `submitters` threads submit `total` requests with
/// uniform inter-arrival spacing summing to `offered_rps`.
LoadPoint run_load(const std::shared_ptr<core::Backend>& backend,
                   const std::string& backend_name,
                   const std::vector<snn::SpikeTrain>& pool, std::size_t threads,
                   double offered_rps, std::size_t total, std::size_t submitters) {
    core::Server server(backend, {.threads = threads,
                                  .max_queue = 4096,
                                  .max_batch = kMaxBatch,
                                  .backpressure = core::BackpressurePolicy::kBlock});

    const double per_submitter_rps = offered_rps / static_cast<double>(submitters);
    const auto interval = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / per_submitter_rps));
    const std::size_t per_submitter = total / submitters;

    // A collector thread records each request's client latency as soon
    // as its future is ready: reading the futures in submission order
    // after the whole schedule would charge every early request the
    // rest of the schedule. Polling can record a completion late, never
    // early, so the client p99 stays an upper view of the server's.
    struct Pending {
        Clock::time_point submitted;
        std::future<core::Response> future;
    };
    std::mutex inbox_mutex;
    std::vector<Pending> inbox;  // guarded by inbox_mutex
    std::atomic<std::size_t> submitting{submitters};
    util::StreamingHistogram client_latency;
    const util::WallTimer wall;
    std::thread collector([&] {
        std::vector<Pending> pending;
        while (true) {
            const bool last_scan = submitting.load() == 0;
            {
                const std::lock_guard<std::mutex> lock(inbox_mutex);
                for (Pending& p : inbox) pending.push_back(std::move(p));
                inbox.clear();
            }
            if (last_scan && pending.empty()) break;
            bool progressed = false;
            for (std::size_t i = 0; i < pending.size();) {
                if (pending[i].future.wait_for(std::chrono::seconds(0)) !=
                    std::future_status::ready) {
                    ++i;
                    continue;
                }
                const auto done = Clock::now();
                try {
                    (void)pending[i].future.get();
                } catch (const std::exception&) {
                    // Counted by the server's ledger, which --check reads.
                }
                client_latency.add(
                    std::chrono::duration<double, std::micro>(done - pending[i].submitted)
                        .count());
                pending[i] = std::move(pending.back());
                pending.pop_back();
                progressed = true;
            }
            if (!progressed) std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
    });
    std::vector<std::thread> threads_vec;
    for (std::size_t s = 0; s < submitters; ++s) {
        threads_vec.emplace_back([&, s] {
            auto next = Clock::now();
            for (std::size_t i = 0; i < per_submitter; ++i) {
                std::this_thread::sleep_until(next);
                next += interval;
                Pending p{Clock::now(), {}};
                p.future = server.submit(
                    core::Request::view_train(pool[(s * per_submitter + i) % pool.size()]));
                const std::lock_guard<std::mutex> lock(inbox_mutex);
                inbox.push_back(std::move(p));
            }
            submitting.fetch_sub(1);
        });
    }
    for (auto& t : threads_vec) t.join();
    collector.join();
    const double wall_ms = wall.millis();
    server.shutdown();

    const auto stats = server.stats();
    LoadPoint point;
    point.backend = backend_name;
    point.offered_rps = offered_rps;
    point.achieved_rps = 1e3 * static_cast<double>(stats.completed) / wall_ms;
    point.p50_us = stats.latency_us.p50();
    point.p95_us = stats.latency_us.p95();
    point.p99_us = stats.latency_us.p99();
    point.client_p99_us = client_latency.p99();
    point.mean_batch = stats.mean_batch_size();
    point.completed = stats.completed;
    point.rejected = stats.rejected;
    return point;
}

// ---- early-exit steps_used accounting ----

struct ExitLanePoint {
    std::string backend;
    std::int64_t margin = 0;
    std::int64_t timesteps = 0;
    std::size_t completed = 0;
    std::size_t exited = 0;  ///< retired before the offered T
    double mean_steps = 0.0;
    double p50_steps = 0.0;
    double p99_steps = 0.0;
};

/// Serve `total` pool requests with a margin criterion armed and record
/// the per-lane steps_used distribution the responses report.
ExitLanePoint measure_early_exit(const std::string& name,
                                 const std::shared_ptr<core::Backend>& backend,
                                 const std::vector<snn::SpikeTrain>& pool,
                                 std::size_t threads, std::int64_t timesteps,
                                 std::int64_t margin, std::size_t total) {
    const snn::ExitCriterion crit{
        .margin = margin, .stable_checks = 0, .min_steps = 2, .hysteresis = 1,
        .check_interval = 1};
    core::Server server(backend, {.threads = threads, .max_batch = kMaxBatch});
    std::vector<std::future<core::Response>> futures;
    futures.reserve(total);
    for (std::size_t i = 0; i < total; ++i) {
        futures.push_back(server.submit(
            core::Request::view_train(pool[i % pool.size()]).with_early_exit(crit)));
    }
    ExitLanePoint point;
    point.backend = name;
    point.margin = margin;
    point.timesteps = timesteps;
    util::StreamingHistogram steps;
    for (auto& f : futures) {
        const auto response = f.get();
        if (!response.ok()) continue;
        ++point.completed;
        steps.add(static_cast<double>(response.steps_used));
        if (response.steps_used < response.steps_offered) ++point.exited;
    }
    server.shutdown();
    point.mean_steps = steps.mean();
    point.p50_steps = steps.p50();
    point.p99_steps = steps.p99();
    return point;
}

// ---- mixed-tenant overload scenario ----

struct TenantSpec {
    std::string name;
    core::Priority priority;
    std::uint32_t weight;
    double share;  ///< fraction of the aggregate offered load
};

struct TenantPoint {
    std::string name;
    std::size_t attempted = 0;
    std::size_t submitted = 0;
    std::size_t completed = 0;
    std::size_t rejected = 0;
    std::size_t shed = 0;
    double p50_us = 0.0;
    double p99_us = 0.0;
    double slo_burn = 0.0;
};

struct MixedResult {
    double offered_rps = 0.0;
    double aggregate_rps = 0.0;
    double unloaded_premium_p99_us = 0.0;
    std::size_t max_batch = 0;
    /// Core-oversubscription factor of the storm: two lanes of
    /// max_batch workers each against the hardware. 1.0 on any box
    /// with enough cores; >1 means even a perfectly scheduled request
    /// inherits the other lane's CPU share in its wall time.
    double oversub = 1.0;
    std::vector<TenantPoint> tenants;
};

constexpr std::array<TenantSpec, 3> kTenants = {{
    {"premium", core::Priority::kHigh, 4, 0.10},
    {"standard", core::Priority::kNormal, 2, 0.45},
    {"batch", core::Priority::kLow, 1, 0.45},
}};

/// Two registered models ("vgg-a"/"vgg-b", same weights) driven at 2x
/// aggregate capacity by three tenants under kReject. Every tenant
/// spreads its traffic over both models round-robin, so each lane sees
/// the full priority mix. The storm wave bound is the effective worker
/// count: the in-flight wave is the latency floor for a just-admitted
/// high-priority request, and a wave of <= workers requests costs about
/// one request-time of wall clock.
MixedResult run_mixed(const snn::SnnModel& model,
                      const std::vector<snn::SpikeTrain>& pool, std::size_t threads,
                      double capacity, std::size_t total) {
    const std::size_t hw = std::max<std::size_t>(1, std::thread::hardware_concurrency());
    const std::size_t eff = threads == 0 ? hw : std::min(threads, hw);
    MixedResult result;
    // Wave cap = 2x the lane's workers: a just-admitted premium
    // request waits at most the in-flight wave (<= 2 service times on
    // a full pipeline) plus its own — inside the 3x budget the premium
    // gate checks — while non-high waves still amortize dispatch.
    const std::size_t workers = std::max<std::size_t>(1, eff);
    result.max_batch = 2 * workers;
    result.offered_rps = 2.0 * capacity;
    result.oversub = std::max(
        1.0, 2.0 * static_cast<double>(workers) / static_cast<double>(hw));

    auto backend_a = std::make_shared<core::FunctionalBackend>(model, lean_engine_config());
    auto backend_b = std::make_shared<core::FunctionalBackend>(model, lean_engine_config());
    (void)calibrate_capacity(backend_a, pool, threads, 8);
    (void)calibrate_capacity(backend_b, pool, threads, 8);

    // Cap each lane's workers at the hardware: two lanes of
    // `threads` workers each would oversubscribe a small box and the
    // resulting thrash would be charged to the scheduler under test.
    const core::ServerOptions storm_options{
        .threads = workers,
        .max_queue = 64,
        .max_batch = result.max_batch,
        .backpressure = core::BackpressurePolicy::kReject,
        .slo_us = 10'000.0,
        .tenant_weights = {{"premium", 4}, {"standard", 2}, {"batch", 1}},
    };

    // Phase 1 — unloaded premium baseline: the same server shape, only
    // premium traffic, sequential awaited submits (client-side clock,
    // which upper-bounds the server's admission-to-completion clock).
    {
        core::ServerOptions unloaded = storm_options;
        unloaded.backpressure = core::BackpressurePolicy::kBlock;
        core::Server server(unloaded);
        server.register_model("vgg-a", backend_a);
        server.register_model("vgg-b", backend_b);
        util::StreamingHistogram latency;
        for (std::size_t i = 0; i < 32; ++i) {
            const auto t0 = Clock::now();
            (void)server
                .submit(core::Request::view_train(pool[i % pool.size()])
                            .with(i % 2 == 0 ? "vgg-a" : "vgg-b", "premium",
                                  core::Priority::kHigh))
                .get();
            latency.add(
                std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
        }
        server.shutdown();
        result.unloaded_premium_p99_us = latency.p99();
    }

    // Phase 2 — the storm. One open-loop submitter per tenant at its
    // share of 2x capacity; kReject sheds the low lane first when a
    // queue fills.
    core::Server server(storm_options);
    server.register_model("vgg-a", backend_a);
    server.register_model("vgg-b", backend_b);

    std::array<TenantPoint, kTenants.size()> points;
    std::vector<std::thread> submitters;
    const util::WallTimer wall;
    for (std::size_t t = 0; t < kTenants.size(); ++t) {
        submitters.emplace_back([&, t] {
            const TenantSpec& spec = kTenants[t];
            TenantPoint& point = points[t];
            point.name = spec.name;
            const auto count = static_cast<std::size_t>(
                spec.share * static_cast<double>(total) + 0.5);
            const auto interval = std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(
                    1.0 / (spec.share * result.offered_rps)));
            std::vector<std::future<core::Response>> futures;
            futures.reserve(count);
            auto next = Clock::now();
            for (std::size_t i = 0; i < count; ++i) {
                std::this_thread::sleep_until(next);
                next += interval;
                ++point.attempted;
                auto future = server.try_submit(
                    core::Request::view_train(pool[(t * 977 + i) % pool.size()])
                        .with(i % 2 == 0 ? "vgg-a" : "vgg-b", spec.name,
                              spec.priority));
                if (future) {
                    futures.push_back(std::move(*future));
                }
            }
            for (auto& f : futures) {
                try {
                    (void)f.get();
                } catch (const std::runtime_error&) {
                    // Shed (displaced by a higher-priority request);
                    // counted from the server's ledger below.
                }
            }
        });
    }
    for (auto& t : submitters) t.join();
    const double wall_ms = wall.millis();
    server.shutdown();

    const auto stats = server.stats();
    result.aggregate_rps = 1e3 * static_cast<double>(stats.completed) / wall_ms;
    for (auto& point : points) {
        const auto it = stats.tenants.find(point.name);
        if (it != stats.tenants.end()) {
            point.submitted = it->second.submitted;
            point.completed = it->second.completed;
            point.rejected = it->second.rejected;
            point.shed = it->second.shed;
            point.p50_us = it->second.latency_us.p50();
            point.p99_us = it->second.latency_us.p99();
            point.slo_burn = it->second.slo.burn_rate();
        }
        result.tenants.push_back(point);
    }
    return result;
}

// ---- chaos storm (fault-injected overload) ----

struct ChaosResult {
    bool run = false;
    double offered_rps = 0.0;
    double aggregate_rps = 0.0;
    double fault_free_premium_p99_us = 0.0;
    double premium_p99_us = 0.0;
    std::size_t total = 0;
    std::size_t completed = 0;
    std::size_t failed = 0;
    std::size_t retried = 0;
    std::size_t failed_over = 0;
    std::size_t isolated_waves = 0;
    std::size_t expected_failed = 0;
    std::size_t expected_retried = 0;
};

/// The mixed-tenant storm shape under kBlock, run twice: a fault-free
/// twin, then the same storm with a seeded 1% throw + 1% transient
/// FaultPlan on both lanes. kBlock means nothing is rejected or shed,
/// so the ledger is exact: faulted streams are the injector's pure
/// per-stream decisions over each lane's admission range, every one of
/// them must resolve as a structured failure (throws) or a retried
/// success (transients), and every other request must complete — zero
/// non-faulted requests lost. --check also gates the premium p99 under
/// the fault storm against 2x its fault-free twin.
ChaosResult run_chaos(const snn::SnnModel& model,
                      const std::vector<snn::SpikeTrain>& pool, std::size_t threads,
                      double capacity, std::size_t total) {
    const std::size_t hw =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
    const std::size_t workers = std::max<std::size_t>(
        1, threads == 0 ? hw : std::min(threads, hw));

    ChaosResult result;
    result.run = true;
    result.offered_rps = 2.0 * capacity;

    util::FaultPlan plan_a;
    plan_a.seed = 0xC4A05;
    plan_a.throw_probability = 0.01;
    plan_a.transient_probability = 0.01;
    util::FaultPlan plan_b = plan_a;
    plan_b.seed = plan_a.seed + 1;

    // Per-tenant submission counts are deterministic (kBlock admits
    // everything), so each lane's admission range — and therefore its
    // exact faulted set — is known client-side before the storm runs.
    std::array<std::size_t, kTenants.size()> counts{};
    std::size_t count_a = 0, count_b = 0;
    result.total = 0;
    for (std::size_t t = 0; t < kTenants.size(); ++t) {
        counts[t] = static_cast<std::size_t>(
            kTenants[t].share * static_cast<double>(total) + 0.5);
        result.total += counts[t];
        count_a += (counts[t] + 1) / 2;  // each tenant alternates, a first
        count_b += counts[t] / 2;
    }
    const util::FaultInjector oracle_a(plan_a), oracle_b(plan_b);
    const auto expect = [](const util::FaultInjector& oracle, std::size_t count,
                           util::FaultKind kind) {
        std::size_t n = 0;
        for (std::uint64_t s = 0; s < count; ++s) {
            if (oracle.decide(s) == kind) ++n;
        }
        return n;
    };
    result.expected_failed = expect(oracle_a, count_a, util::FaultKind::kThrow) +
                             expect(oracle_b, count_b, util::FaultKind::kThrow);
    result.expected_retried =
        expect(oracle_a, count_a, util::FaultKind::kTransient) +
        expect(oracle_b, count_b, util::FaultKind::kTransient);

    core::ServerOptions storm_options{
        .threads = workers,
        .max_queue = 64,
        .max_batch = 2 * workers,
        .backpressure = core::BackpressurePolicy::kBlock,
        .slo_us = 10'000.0,
        .tenant_weights = {{"premium", 4}, {"standard", 2}, {"batch", 1}},
    };
    // The ledger gates assume the breaker never trips (a tripped lane
    // with no fallback would fail-fast healthy requests): a 1% storm is
    // load the lane should absorb request-by-request.
    storm_options.fault.breaker_failures = 0;
    storm_options.fault.breaker_failure_rate = 2.0;

    struct StormOutcome {
        core::ServerStats stats;
        double premium_p99_us = 0.0;
        double wall_ms = 0.0;
    };
    const auto storm = [&](bool faulty) {
        auto base_a = std::make_shared<core::FunctionalBackend>(model, lean_engine_config());
        auto base_b = std::make_shared<core::FunctionalBackend>(model, lean_engine_config());
        (void)calibrate_capacity(base_a, pool, threads, 8);
        (void)calibrate_capacity(base_b, pool, threads, 8);
        core::Server server(storm_options);
        server.register_model(
            "vgg-a", faulty ? std::make_shared<core::FaultyBackend>(base_a, plan_a)
                            : std::static_pointer_cast<core::Backend>(base_a));
        server.register_model(
            "vgg-b", faulty ? std::make_shared<core::FaultyBackend>(base_b, plan_b)
                            : std::static_pointer_cast<core::Backend>(base_b));

        std::vector<std::thread> submitters;
        const util::WallTimer wall;
        for (std::size_t t = 0; t < kTenants.size(); ++t) {
            submitters.emplace_back([&, t] {
                const TenantSpec& spec = kTenants[t];
                const auto interval = std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(
                        1.0 / (spec.share * result.offered_rps)));
                std::vector<std::future<core::Response>> futures;
                futures.reserve(counts[t]);
                auto next = Clock::now();
                for (std::size_t i = 0; i < counts[t]; ++i) {
                    std::this_thread::sleep_until(next);
                    next += interval;
                    futures.push_back(server.submit(
                        core::Request::view_train(pool[(t * 977 + i) % pool.size()])
                            .with(i % 2 == 0 ? "vgg-a" : "vgg-b", spec.name,
                                  spec.priority)));
                }
                // Failures arrive as structured-error values, so every
                // future resolves via get() — none throw, none dropped.
                for (auto& f : futures) (void)f.get();
            });
        }
        for (auto& t : submitters) t.join();
        StormOutcome outcome;
        outcome.wall_ms = wall.millis();
        server.shutdown();
        outcome.stats = server.stats();
        const auto it = outcome.stats.tenants.find("premium");
        if (it != outcome.stats.tenants.end()) {
            outcome.premium_p99_us = it->second.latency_us.p99();
        }
        return outcome;
    };

    const StormOutcome clean = storm(/*faulty=*/false);
    result.fault_free_premium_p99_us = clean.premium_p99_us;
    const StormOutcome chaos = storm(/*faulty=*/true);
    result.premium_p99_us = chaos.premium_p99_us;
    result.aggregate_rps =
        1e3 * static_cast<double>(chaos.stats.completed) / chaos.wall_ms;
    result.completed = chaos.stats.completed;
    result.failed = chaos.stats.failed;
    result.retried = chaos.stats.retried;
    result.failed_over = chaos.stats.failed_over;
    result.isolated_waves = chaos.stats.isolated_waves;
    return result;
}

std::vector<std::string> chaos_check_errors(const ChaosResult& c) {
    std::vector<std::string> errors;
    if (c.completed != c.total - c.expected_failed ||
        c.failed != c.expected_failed) {
        std::ostringstream err;
        err << "chaos ledger: completed=" << c.completed << " failed=" << c.failed
            << " of total=" << c.total << ", expected exactly "
            << c.expected_failed << " seeded failures (a non-faulted request "
            << "was lost or a faulted one silently dropped)";
        errors.push_back(err.str());
    }
    if (c.retried != c.expected_retried) {
        std::ostringstream err;
        err << "chaos ledger: retried=" << c.retried << ", expected "
            << c.expected_retried << " (one retry per seeded transient)";
        errors.push_back(err.str());
    }
    if (c.failed_over != 0) {
        std::ostringstream err;
        err << "chaos ledger: failed_over=" << c.failed_over
            << " with no fallback registered";
        errors.push_back(err.str());
    }
    // The degradation gate: a 1% storm costs bisection re-runs, not a
    // latency regime — premium p99 stays within 2x of its fault-free
    // twin (floored at 1.5ms, same run-to-run noise floor as the
    // mixed-tenant gate).
    const double gate = 2.0 * std::max(c.fault_free_premium_p99_us, 1500.0);
    if (c.completed > 0 && c.premium_p99_us > gate) {
        std::ostringstream err;
        err << "chaos premium p99=" << c.premium_p99_us << "us exceeds " << gate
            << "us (2x fault-free " << c.fault_free_premium_p99_us << "us)";
        errors.push_back(err.str());
    }
    return errors;
}

void write_json(const std::string& path, const std::vector<LoadPoint>& rows,
                const std::vector<std::pair<std::string, double>>& single_p99,
                const std::vector<ExitLanePoint>& exit_rows,
                const MixedResult& mixed, const ChaosResult& chaos, bool quick,
                std::size_t threads) {
    std::ofstream out(path, std::ios::trunc);
    if (!out) {
        std::cerr << "serving_latency: cannot open " << path << "\n";
        std::exit(EXIT_FAILURE);
    }
    out << "{\n  \"bench\": \"serving_latency\",\n"
        << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
        << "  \"threads\": " << threads << ",\n"
        << "  \"max_batch\": " << kMaxBatch << ",\n"
        << "  \"batching\": \"continuous\",\n"
        << "  \"results\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const LoadPoint& r = rows[i];
        out << "    {\"backend\": \"" << r.backend
            << "\", \"fraction\": " << r.fraction
            << ", \"offered_rps\": " << r.offered_rps
            << ", \"achieved_rps\": " << r.achieved_rps
            << ", \"p50_us\": " << r.p50_us << ", \"p95_us\": " << r.p95_us
            << ", \"p99_us\": " << r.p99_us
            << ", \"client_p99_us\": " << r.client_p99_us
            << ", \"mean_batch\": " << r.mean_batch
            << ", \"completed\": " << r.completed
            << ", \"rejected\": " << r.rejected << "}"
            << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"single_request\": [\n";
    for (std::size_t i = 0; i < single_p99.size(); ++i) {
        out << "    {\"backend\": \"" << single_p99[i].first
            << "\", \"p99_us\": " << single_p99[i].second << "}"
            << (i + 1 < single_p99.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"early_exit\": [\n";
    for (std::size_t i = 0; i < exit_rows.size(); ++i) {
        const ExitLanePoint& e = exit_rows[i];
        out << "    {\"backend\": \"" << e.backend
            << "\", \"margin\": " << e.margin
            << ", \"timesteps\": " << e.timesteps
            << ", \"completed\": " << e.completed
            << ", \"exited\": " << e.exited
            << ", \"mean_steps\": " << e.mean_steps
            << ", \"p50_steps\": " << e.p50_steps
            << ", \"p99_steps\": " << e.p99_steps << "}"
            << (i + 1 < exit_rows.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"mixed_tenant\": {\n"
        << "    \"offered_rps\": " << mixed.offered_rps << ",\n"
        << "    \"aggregate_rps\": " << mixed.aggregate_rps << ",\n"
        << "    \"unloaded_premium_p99_us\": " << mixed.unloaded_premium_p99_us
        << ",\n"
        << "    \"max_batch\": " << mixed.max_batch << ",\n"
        << "    \"oversub\": " << mixed.oversub << ",\n"
        << "    \"tenants\": [\n";
    for (std::size_t i = 0; i < mixed.tenants.size(); ++i) {
        const TenantPoint& t = mixed.tenants[i];
        out << "      {\"tenant\": \"" << t.name
            << "\", \"attempted\": " << t.attempted
            << ", \"submitted\": " << t.submitted
            << ", \"completed\": " << t.completed
            << ", \"rejected\": " << t.rejected << ", \"shed\": " << t.shed
            << ", \"p50_us\": " << t.p50_us << ", \"p99_us\": " << t.p99_us
            << ", \"slo_burn\": " << t.slo_burn << "}"
            << (i + 1 < mixed.tenants.size() ? "," : "") << "\n";
    }
    out << "    ]\n  },\n  \"chaos\": {\n"
        << "    \"run\": " << (chaos.run ? "true" : "false") << ",\n"
        << "    \"offered_rps\": " << chaos.offered_rps << ",\n"
        << "    \"aggregate_rps\": " << chaos.aggregate_rps << ",\n"
        << "    \"fault_free_premium_p99_us\": " << chaos.fault_free_premium_p99_us
        << ",\n"
        << "    \"premium_p99_us\": " << chaos.premium_p99_us << ",\n"
        << "    \"total\": " << chaos.total << ",\n"
        << "    \"completed\": " << chaos.completed << ",\n"
        << "    \"failed\": " << chaos.failed << ",\n"
        << "    \"retried\": " << chaos.retried << ",\n"
        << "    \"failed_over\": " << chaos.failed_over << ",\n"
        << "    \"isolated_waves\": " << chaos.isolated_waves << ",\n"
        << "    \"expected_failed\": " << chaos.expected_failed << ",\n"
        << "    \"expected_retried\": " << chaos.expected_retried << "\n"
        << "  }\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
    bool quick = false;
    bool check = false;
    bool with_chaos = false;
    std::string out_path = "BENCH_SERVING.json";
    std::size_t threads = 4;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--check") == 0) {
            check = true;
        } else if (std::strcmp(argv[i], "--chaos") == 0) {
            with_chaos = true;
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
            threads = static_cast<std::size_t>(std::atoll(argv[++i]));
        } else {
            std::cerr << "usage: serving_latency [--quick] [--check] [--chaos] "
                         "[--out <path>] [--threads <n>]\n";
            return EXIT_FAILURE;
        }
    }

    bench::print_header("Serving latency under offered load (core::Server)");

    nn::VggConfig cfg;
    cfg.width = 8;
    cfg.input_size = 16;
    const auto ann = bench::calibrated_model<nn::Vgg11>(cfg);
    const auto model = core::AnnToSnnConverter(core::ConvertOptions{}).convert(ann->ir());
    const std::int64_t timesteps = 6;
    const auto pool = make_pool(model, 32, timesteps);

    // 0.25x stays in both sweeps: it carries the low-load tail gate.
    const std::vector<double> load_fractions =
        quick ? std::vector<double>{0.25, 2.0}
              : std::vector<double>{0.25, 0.5, 1.0, 2.0};
    const std::size_t submitters = 2;

    std::vector<LoadPoint> rows;
    std::vector<std::pair<std::string, double>> single_p99;
    util::Table table("serving_latency" + std::string(quick ? " (quick)" : "") +
                      ", VGG-11 w=8, T=6, threads=" + std::to_string(threads));
    table.header({"backend", "offered r/s", "achieved r/s", "p50 ms", "p95 ms",
                  "p99 ms", "client p99 ms", "mean batch"});

    bool check_failed = false;
    double functional_capacity = 0.0;
    double functional_2x_rps = 0.0;
    const auto sweep = [&](const std::string& name,
                           const std::function<std::shared_ptr<core::Backend>()>&
                               make_backend) {
        // 48 requests even in quick mode: the calibration sets every
        // offered rate and the aggregate-throughput gate's reference —
        // a 16-request sample swings ~20% run-to-run, which dwarfs the
        // 10% the gate polices.
        const double capacity = calibrate_capacity(
            make_backend(), pool, threads, quick ? 48 : 64);
        if (name == "functional") functional_capacity = capacity;

        // Single-request latency floor for this backend: the reference
        // for the low-load tail gate (continuous batching must dispatch
        // a lone request immediately — no admission-window stall).
        auto solo_backend = make_backend();
        (void)calibrate_capacity(solo_backend, pool, threads, quick ? 4 : 8);
        const auto solo =
            measure_single_request(solo_backend, pool, threads, quick ? 8 : 32);
        single_p99.emplace_back(name, solo.p99());

        // Round to a submitter multiple: run_load splits total evenly, so
        // a remainder would be requests the --check gate counts as lost.
        const std::size_t raw_total =
            quick ? 2 * submitters * 8
                  : std::max<std::size_t>(64, static_cast<std::size_t>(capacity / 4));
        const std::size_t total =
            std::max<std::size_t>(1, raw_total / submitters) * submitters;
        for (const double fraction : load_fractions) {
            const double offered = std::max(1.0, capacity * fraction);
            // A fresh backend per point keeps per-point warm-up visible in
            // none of the latency numbers (the calibration already warmed
            // per-worker state on the shared instance; here we re-warm).
            auto backend = make_backend();
            (void)calibrate_capacity(backend, pool, threads, quick ? 4 : 8);
            LoadPoint point = run_load(backend, name, pool, threads, offered,
                                       total, submitters);
            point.fraction = fraction;
            if (name == "functional" && fraction == 2.0) {
                functional_2x_rps = point.achieved_rps;
            }
            rows.push_back(point);
            table.row({name, util::cell(point.offered_rps, 1),
                       util::cell(point.achieved_rps, 1),
                       util::cell(point.p50_us / 1e3, 2),
                       util::cell(point.p95_us / 1e3, 2),
                       util::cell(point.p99_us / 1e3, 2),
                       util::cell(point.client_p99_us / 1e3, 2),
                       util::cell(point.mean_batch, 2)});
            if (check) {
                const bool lost = point.completed != total || point.rejected != 0;
                const bool disordered =
                    !(point.p50_us > 0.0) || point.p50_us > point.p95_us + 1e-9 ||
                    point.p95_us > point.p99_us + 1e-9;
                const bool stalled = !(point.achieved_rps > 0.0);
                // The client clock encloses the server's admission-to-
                // completion clock, so the client p99 cannot be lower
                // than the server's, less one bucket of quantization.
                const bool client_below_server =
                    point.client_p99_us * kHistogramBucket < point.p99_us;
                // The tail gate: at 0.25x load a request should ride a
                // wave of ~1. A reintroduced admission window would add
                // its wait to (nearly) every request, so gate the
                // *median* against the single-request median plus slack
                // — the median of N samples is robust where the p99 (the
                // max, at this sample count) flakes on scheduler noise.
                // The slack is a full solo-median (floored at 1ms): the
                // solo reference runs sequentially while the load point
                // runs submitters + workers concurrently, so contention
                // alone moves the median — this trips on multi-ms
                // stalls, and test_server's continuous-batching test
                // pins the subtle ones deterministically. A loose 8x
                // p99 sanity bound still catches a lone request parked
                // on a timeout.
                const bool tail_stall =
                    fraction == 0.25 &&
                    (point.p50_us > solo.p50() + std::max(1000.0, solo.p50()) ||
                     point.p99_us > 8.0 * std::max(solo.p99(), 1000.0));
                if (lost || disordered || stalled || tail_stall || client_below_server) {
                    check_failed = true;
                    std::cerr << "CHECK FAILED: backend=" << name << " offered="
                              << offered << " completed=" << point.completed << "/"
                              << total << " rejected=" << point.rejected
                              << " p50/p95/p99=" << point.p50_us << "/"
                              << point.p95_us << "/" << point.p99_us
                              << " single_p50/p99=" << solo.p50() << "/"
                              << solo.p99()
                              << " client_p99=" << point.client_p99_us
                              << (tail_stall ? " (low-load tail regression)" : "")
                              << (client_below_server ? " (client p99 below server p99)"
                                                      : "")
                              << "\n";
                }
            }
        }
    };

    sweep("functional", [&] {
        return std::make_shared<core::FunctionalBackend>(model, lean_engine_config());
    });
    table.separator();
    sweep("sia", [&] { return std::make_shared<core::SiaBackend>(model); });

    // Mixed-tenant overload storm (functional backends: the scenario
    // stresses the serving layer, not the engine). Long enough that
    // its aggregate throughput is comparable against the sweep
    // reference within the gate's tolerance — a short storm measures
    // mostly ramp and drain.
    const std::size_t mixed_total =
        quick ? 320
              : std::max<std::size_t>(
                    300, static_cast<std::size_t>(functional_capacity));

    const auto mixed_check_errors = [&](const MixedResult& m) {
        std::vector<std::string> errors;
        const TenantPoint& premium = m.tenants.front();
        // The unloaded baseline is measured on an idle box, but under
        // the storm every request's wall time inherits the other
        // lane's CPU share whenever the two lanes have more workers
        // than the hardware has cores — scale the reference by that
        // oversubscription factor (1.0 on any adequately sized box,
        // including CI) so the gate measures scheduling quality, not
        // core count. The baseline is floored at 1.5ms: it swings
        // ~1.5x run-to-run on a busy box (it is itself a p99 of 32
        // samples), and the gate must not inherit that noise.
        const double premium_gate =
            3.0 * m.oversub * std::max(m.unloaded_premium_p99_us, 1500.0);
        if (premium.completed == 0 || premium.p99_us > premium_gate) {
            std::ostringstream err;
            err << "mixed-tenant premium p99=" << premium.p99_us << "us exceeds "
                << premium_gate << "us (3x unloaded p99 "
                << m.unloaded_premium_p99_us << "us x oversub " << m.oversub << ")";
            errors.push_back(err.str());
        }
        // Both single-tenant references are noisy estimates of the
        // same machine capacity (the calibration run and the 2x sweep
        // point can disagree by 10-20% run-to-run); gate against the
        // more conservative of the two so one high roll on the
        // reference side doesn't fail an unchanged scheduler. Quick
        // mode gets 0.85 instead of 0.9: its storm is short enough
        // that ramp/drain and the smaller wave cap cost a few percent
        // that the full run amortizes away.
        const double aggregate_factor = quick ? 0.85 : 0.9;
        const double single_tenant_rps =
            std::min(functional_2x_rps, functional_capacity);
        if (m.aggregate_rps < aggregate_factor * single_tenant_rps) {
            std::ostringstream err;
            err << "mixed-tenant aggregate " << m.aggregate_rps << " r/s under "
                << aggregate_factor << "x single-tenant " << single_tenant_rps
                << " r/s";
            errors.push_back(err.str());
        }
        for (const TenantPoint& t : m.tenants) {
            if (t.completed > 0 && t.p50_us > t.p99_us + 1e-9) {
                std::ostringstream err;
                err << "mixed-tenant " << t.name << " p50 " << t.p50_us << " > p99 "
                    << t.p99_us;
                errors.push_back(err.str());
            }
            if (t.submitted + t.rejected != t.attempted ||
                t.completed + t.shed != t.submitted) {
                std::ostringstream err;
                err << "mixed-tenant " << t.name << " ledger: attempted="
                    << t.attempted << " submitted=" << t.submitted << " rejected="
                    << t.rejected << " completed=" << t.completed << " shed="
                    << t.shed;
                errors.push_back(err.str());
            }
        }
        return errors;
    };

    MixedResult mixed =
        run_mixed(model, pool, threads, functional_capacity, mixed_total);
    if (check && !mixed_check_errors(mixed).empty()) {
        // One retry before declaring failure: the storm is a sub-second
        // sample on a possibly shared box, and a single CPU-frequency
        // or scheduler hiccup can cost 20% of it. A real scheduling
        // regression fails both attempts.
        mixed = run_mixed(model, pool, threads, functional_capacity, mixed_total);
    }
    table.separator();
    for (const TenantPoint& t : mixed.tenants) {
        table.row({"mixed:" + t.name,
                   util::cell(mixed.offered_rps, 1),
                   util::cell(mixed.aggregate_rps, 1),
                   util::cell(t.p50_us / 1e3, 2), "-",
                   util::cell(t.p99_us / 1e3, 2),
                   util::cell(static_cast<double>(t.shed), 0)});
    }

    if (check) {
        for (const std::string& error : mixed_check_errors(mixed)) {
            check_failed = true;
            std::cerr << "CHECK FAILED: " << error << "\n";
        }
    }

    // Chaos storm (--chaos): the same overload shape with a seeded 1%
    // fault plan on both lanes, gated against its fault-free twin.
    ChaosResult chaos;
    if (with_chaos) {
        // Every injected fault logs one warning; the storm seeds a few
        // dozen of them by design.
        util::set_log_level(util::LogLevel::kError);
        chaos = run_chaos(model, pool, threads, functional_capacity, mixed_total);
        if (check) {
            auto errors = chaos_check_errors(chaos);
            if (!errors.empty()) {
                // The ledger is deterministic; only the p99 gate is
                // noise-sensitive. One retry, same policy as the
                // mixed-tenant gate.
                chaos = run_chaos(model, pool, threads, functional_capacity,
                                  mixed_total);
                errors = chaos_check_errors(chaos);
            }
            for (const std::string& error : errors) {
                check_failed = true;
                std::cerr << "CHECK FAILED: " << error << "\n";
            }
        }
        table.separator();
        table.row({"chaos:clean", util::cell(chaos.offered_rps, 1), "-", "-", "-",
                   util::cell(chaos.fault_free_premium_p99_us / 1e3, 2), "-"});
        table.row({"chaos:storm", util::cell(chaos.offered_rps, 1),
                   util::cell(chaos.aggregate_rps, 1), "-", "-",
                   util::cell(chaos.premium_p99_us / 1e3, 2),
                   util::cell(static_cast<double>(chaos.failed), 0)});
    }

    // Early-exit lanes: the same pool served with a per-request margin
    // criterion on each backend. Responses report steps_used, so this is
    // the serving-side cost model for temporal early exit — the accuracy
    // side lives in BENCH_EARLY_EXIT.json. Both lanes receive the same
    // requests in the same order, and exit decisions are deterministic
    // per item, so the two step distributions must match exactly.
    const std::int64_t exit_margin = 4;
    const std::size_t exit_total = quick ? 32 : 128;
    std::vector<ExitLanePoint> exit_rows;
    exit_rows.push_back(measure_early_exit(
        "functional",
        std::make_shared<core::FunctionalBackend>(model, lean_engine_config()),
        pool, threads, timesteps, exit_margin, exit_total));
    exit_rows.push_back(measure_early_exit(
        "sia", std::make_shared<core::SiaBackend>(model), pool, threads,
        timesteps, exit_margin, exit_total));
    table.separator();
    for (const ExitLanePoint& e : exit_rows) {
        table.row({"exit:" + e.backend, "-", "-",
                   util::cell(e.p50_steps, 2), "-",
                   util::cell(e.p99_steps, 2),
                   util::cell(e.mean_steps, 2)});
    }
    if (check) {
        for (const ExitLanePoint& e : exit_rows) {
            const bool lost = e.completed != exit_total;
            const bool out_of_range =
                e.mean_steps < 2.0 - 1e-9 ||
                e.p99_steps > static_cast<double>(timesteps) + 1e-9;
            const bool disordered = e.p50_steps > e.p99_steps + 1e-9;
            if (lost || out_of_range || disordered || e.exited > e.completed) {
                check_failed = true;
                std::cerr << "CHECK FAILED: early-exit lane " << e.backend
                          << " completed=" << e.completed << "/" << exit_total
                          << " exited=" << e.exited
                          << " steps mean/p50/p99=" << e.mean_steps << "/"
                          << e.p50_steps << "/" << e.p99_steps
                          << " outside [min_steps=2, T=" << timesteps << "]\n";
            }
        }
        const ExitLanePoint& a = exit_rows[0];
        const ExitLanePoint& b = exit_rows[1];
        if (a.exited != b.exited || a.mean_steps != b.mean_steps ||
            a.p50_steps != b.p50_steps || a.p99_steps != b.p99_steps) {
            check_failed = true;
            std::cerr << "CHECK FAILED: early-exit step distributions diverge "
                         "across backends (functional mean/p50/p99="
                      << a.mean_steps << "/" << a.p50_steps << "/" << a.p99_steps
                      << " exited=" << a.exited << ", sia=" << b.mean_steps << "/"
                      << b.p50_steps << "/" << b.p99_steps
                      << " exited=" << b.exited
                      << ") — per-item decisions must be backend-invariant\n";
        }
    }

    table.print(std::cout);
    write_json(out_path, rows, single_p99, exit_rows, mixed, chaos, quick,
               threads);
    std::cout << "wrote " << out_path << "\n";

    if (check_failed) {
        std::cerr << "FATAL: serving loop lost requests or produced degenerate "
                     "latency stats\n";
        return EXIT_FAILURE;
    }
    return EXIT_SUCCESS;
}
