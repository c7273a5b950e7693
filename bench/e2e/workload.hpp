// The run protocol every workload follows, and helpers they share.
//
// A workload type W provides
//   struct State      — inputs, model, lanes; holds `stages` and `log`
//   build(args)       — one set-up repetition, returns the State
//   run_phase(st, s)  — drive the system for s seconds, return the Phase
//   verify(st, r)     — compare every response with a sequential
//                       reference; count mismatches into r.failed
//   layers(st, ph, r) — probes and counters for the per-layer metrics
//
// Untraced run: set up, one phase, end-to-end metrics. Traced run: set
// up, an untraced half (the overhead baseline), a traced half, per-layer
// metrics, and the spans written to the trace file. Both verify.
#pragma once

#include <chrono>
#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "bench/e2e/harness.hpp"
#include "bench/e2e/report.hpp"
#include "bench/e2e/trace.hpp"
#include "core/backend.hpp"
#include "core/batch_runner.hpp"
#include "core/server.hpp"
#include "snn/engine.hpp"

namespace sia::bench::e2e {

/// Serving lanes read only the final readout; per-step history is off.
inline snn::EngineConfig lean_engine() {
    snn::EngineConfig config;
    config.record_readout_history = false;
    return config;
}

inline Clock::duration seconds_of(double s) {
    return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
}

template <typename F>
double time_ms(F&& fn) {
    const auto start = Clock::now();
    fn();
    return ms_between(start, Clock::now());
}

/// Build every worker's engine or resident simulator before anything is
/// timed: one request per worker through a runner of the lane's width.
/// Returns the backend's construction time (BatchStats::setup_ms).
inline double warm_up(const std::shared_ptr<core::Backend>& backend, std::size_t threads,
                      const std::function<core::Request(std::size_t)>& make) {
    core::BatchRunner runner(backend, {.threads = threads});
    std::vector<core::Request> batch;
    for (std::size_t i = 0; i < threads; ++i) batch.push_back(make(i));
    (void)runner.run(batch);
    return runner.last_stats().setup_ms;
}

/// The lane a workload serves through: the backend itself, or the
/// backend behind a TracingBackend in a traced run.
inline std::shared_ptr<core::Backend> lane_backend(std::shared_ptr<core::Backend> backend,
                                                   std::uint32_t lane, SpanLog& log,
                                                   bool traced) {
    if (!traced) return backend;
    return std::make_shared<TracingBackend>(std::move(backend), lane, log);
}

/// Server counters accumulated between two snapshots.
struct ServerDelta {
    double wave_size_mean = 0.0;
    std::size_t retried = 0;
    std::size_t isolated_waves = 0;
};

inline ServerDelta server_delta(const core::ServerStats& before, const core::ServerStats& after) {
    const std::size_t items = after.completed + after.failed - before.completed - before.failed;
    const std::size_t waves = after.batches - before.batches;
    return {ratio(static_cast<double>(items), static_cast<double>(waves), 0.0),
            after.retried - before.retried, after.isolated_waves - before.isolated_waves};
}

template <typename W>
Result run_workload(const Args& args) {
    Result result;
    SetUp<typename W::State> setup =
        set_up<typename W::State>([&] { return W::build(args); });
    typename W::State& state = *setup.state;

    if (!args.traced()) {
        const Phase phase = W::run_phase(state, args.seconds);
        const double rss_mb = peak_rss_mb();
        result.attempted = phase.requests.size();
        W::verify(state, result);
        add_end_to_end(result, setup.seconds, phase, rss_mb);
        return result;
    }

    const Phase untraced = W::run_phase(state, args.seconds / 2);
    state.log.set_enabled(true);
    const Phase traced = W::run_phase(state, args.seconds / 2);
    state.log.set_enabled(false);
    result.attempted = untraced.requests.size() + traced.requests.size();
    W::verify(state, result);

    LayerReport layers = W::layers(state, traced, result);
    layers.setup = setup.stages;
    layers.batch = state.log.sim();
    layers.untraced_p50_ms = quantile(untraced.latency_ms(), 0.50);
    const std::vector<Span> spans = state.log.spans();
    add_per_layer(result, layers, spans, traced);
    result.check(write_trace(args.trace_path, args.workload, args.seed, traced.start, spans,
                             traced.requests),
                 "cannot write trace file " + args.trace_path);
    return result;
}

}  // namespace sia::bench::e2e
