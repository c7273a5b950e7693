// Turning one workload run into the metrics of the result line.
//
// End-to-end metrics come from the untraced phase only. Per-layer
// metrics come from the traced phase, the set-up repetitions, and
// direct single-thread calls into each layer made after the timed
// phases ("probes"). Every workload reports every metric, so a metric
// whose layer a workload does not exercise reads as that layer's idle
// value (0 re-runs, amortization 1, ...).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bench/e2e/harness.hpp"
#include "bench/e2e/trace.hpp"
#include "sim/config.hpp"
#include "sim/sia.hpp"
#include "snn/engine.hpp"

namespace sia::bench::e2e {

/// One measured phase: every request the client completed.
struct Phase {
    Clock::time_point start;
    Clock::time_point end;  ///< the last completion
    std::vector<ClientRecord> requests;

    [[nodiscard]] double seconds() const { return ms_between(start, end) / 1e3; }
    [[nodiscard]] std::vector<double> latency_ms() const {
        std::vector<double> out;
        for (const ClientRecord& r : requests) out.push_back(ms_between(r.due, r.complete));
        return out;
    }
};

/// End-to-end metrics are medians over this many equal spans of a
/// phase (requests binned by completion time), so interference from
/// other tenants of the machine confined to one or two spans does not
/// move them.
inline constexpr std::size_t kWindows = 5;
/// The latency tail percentile. On a shared VM, hypervisor steal stalls
/// every request in flight for milliseconds at a time and owns the
/// p99; p95 is the highest percentile that repeats run to run.
inline constexpr double kTail = 0.95;

inline void add_end_to_end(Result& result, const std::vector<double>& setup_seconds,
                           const Phase& phase, double rss_mb) {
    // With one traffic class, all of it is the most urgent.
    const bool classes = std::any_of(phase.requests.begin(), phase.requests.end(),
                                     [](const ClientRecord& r) { return r.premium; });
    const double window_s = phase.seconds() / static_cast<double>(kWindows);
    std::vector<std::vector<double>> latency(kWindows), premium(kWindows);
    std::vector<double> completed(kWindows, 0.0);
    for (const ClientRecord& r : phase.requests) {
        const auto w = std::min(
            kWindows - 1, static_cast<std::size_t>(ms_between(phase.start, r.complete) /
                                                   (1e3 * window_s)));
        latency[w].push_back(ms_between(r.due, r.complete));
        if (r.premium || !classes) premium[w].push_back(latency[w].back());
        if (r.ok) completed[w] += 1.0;
    }
    std::vector<double> throughput, p50, tail, premium_tail;
    for (std::size_t w = 0; w < kWindows; ++w) {
        throughput.push_back(completed[w] / window_s);
        p50.push_back(quantile(latency[w], 0.50));
        tail.push_back(quantile(latency[w], kTail));
        premium_tail.push_back(quantile(premium[w], kTail));
    }
    result.add("throughput_ips", median(throughput), "1/s");
    result.add("latency_p50_ms", median(p50), "ms");
    result.add("latency_p95_ms", median(tail), "ms");
    result.add("premium_p95_ms", median(premium_tail), "ms");
    result.add("setup_s", median(setup_seconds), "s");
    result.add("peak_rss_mb", rss_mb, "MB");
}

/// Mean timesteps integrated over the last `count` served items.
template <typename Served>
double mean_steps(const std::vector<Served>& served, std::size_t count) {
    double steps = 0.0;
    for (std::size_t i = served.size() - count; i < served.size(); ++i) {
        steps += static_cast<double>(served[i].steps);
    }
    return steps / static_cast<double>(count);
}

/// Direct single-thread FunctionalEngine runs over a workload's inputs.
struct EngineProbe {
    std::vector<double> encode_us;
    std::vector<double> run_ms;
    std::int64_t input_spikes = 0;
    std::int64_t input_sites = 0;
    std::int64_t scatter_steps = 0;
    std::int64_t kernel_steps = 0;

    void add(const snn::RunResult& r, double ms) {
        run_ms.push_back(ms);
        for (const snn::LayerDispatchStats& d : r.layer_dispatch) {
            input_spikes += d.input_spikes;
            input_sites += d.input_sites;
            scatter_steps += d.scatter_steps;
            kernel_steps += d.scatter_steps + d.dense_steps;
        }
    }
};

/// Direct single-thread sim::Sia runs over a workload's inputs.
struct SiaProbe {
    std::vector<double> run_ms;
    std::int64_t compute = 0, aggregate = 0, dma = 0, mmio = 0, overhead = 0;
    std::uint64_t dense_ops = 0;

    void add(const sim::SiaRunResult& r, double ms) {
        run_ms.push_back(ms);
        for (const sim::LayerCycleStats& s : r.layer_stats) {
            compute += s.compute;
            aggregate += s.aggregate;
            dma += s.dma;
            mmio += s.mmio;
            overhead += s.overhead;
            dense_ops += s.dense_ops;
        }
    }
    [[nodiscard]] std::int64_t total() const {
        return compute + aggregate + dma + mmio + overhead;
    }
};

/// Everything a workload measured besides its phases' client records.
struct LayerReport {
    std::vector<SetupStages> setup;
    double compile_ms = 0.0;
    EngineProbe engine;
    SiaProbe sia;
    SimBatchTotals batch;           ///< drained SiaBatchStats of the traced phase
    double steps_per_item = 0.0;    ///< mean timesteps integrated per response
    double wave_size_mean = 0.0;
    std::size_t retried = 0;
    std::size_t isolated_waves = 0;
    std::size_t worker_threads = 0;  ///< summed over every lane or runner
    double untraced_p50_ms = 0.0;
};

inline double ratio(double num, double den, double if_empty) {
    return den > 0.0 ? num / den : if_empty;
}

inline void add_per_layer(Result& result, const LayerReport& layers,
                          const std::vector<Span>& spans, const Phase& traced) {
    std::vector<double> calibrate, convert, prepare;
    for (const SetupStages& s : layers.setup) {
        calibrate.push_back(s.calibrate_ms);
        convert.push_back(s.convert_ms);
        prepare.push_back(s.prepare_ms);
    }
    result.add("nn.calibrate_ms", median(calibrate), "ms");
    result.add("core.convert_ms", median(convert), "ms");
    result.add("core.compiler.compile_ms", layers.compile_ms, "ms");
    result.add("core.backend.prepare_ms", median(prepare), "ms");

    const EngineProbe& e = layers.engine;
    result.add("snn.encoding.encode_us", median(e.encode_us), "us");
    result.add("snn.engine.run_ms", mean(e.run_ms), "ms");
    result.add("snn.engine.input_density",
               ratio(static_cast<double>(e.input_spikes), static_cast<double>(e.input_sites), 0.0),
               "ratio");
    result.add("snn.engine.scatter_frac",
               ratio(static_cast<double>(e.scatter_steps), static_cast<double>(e.kernel_steps),
                     0.0),
               "ratio");

    const SiaProbe& s = layers.sia;
    const auto runs = static_cast<double>(s.run_ms.size());
    const double cycles = static_cast<double>(s.total());
    result.add("sim.sia.run_ms", mean(s.run_ms), "ms");
    result.add("sim.sia.host_ns_per_cycle", ratio(1e6 * mean(s.run_ms) * runs, cycles, 0.0),
               "ns");
    result.add("sim.cycles.compute", ratio(static_cast<double>(s.compute), runs, 0.0), "cycles");
    result.add("sim.cycles.aggregate", ratio(static_cast<double>(s.aggregate), runs, 0.0),
               "cycles");
    result.add("sim.cycles.dma", ratio(static_cast<double>(s.dma), runs, 0.0), "cycles");
    result.add("sim.cycles.mmio", ratio(static_cast<double>(s.mmio), runs, 0.0), "cycles");
    result.add("sim.cycles.overhead", ratio(static_cast<double>(s.overhead), runs, 0.0),
               "cycles");
    result.add("sim.cycles_per_infer", ratio(cycles, runs, 0.0), "cycles");
    // Table IV convention: dense CNN-equivalent ops over PL busy time.
    const double pl_seconds = static_cast<double>(s.compute + s.aggregate + s.dma) /
                              (sim::SiaConfig{}.clock_mhz * 1e6);
    result.add("sim.gops", ratio(static_cast<double>(s.dense_ops) / 1e9, pl_seconds, 0.0),
               "GOPS");
    result.add("sim.steps_per_infer", layers.steps_per_item, "steps");

    const SimBatchTotals& b = layers.batch;
    const auto items = static_cast<double>(b.items);
    result.add("sim.batch.amortization",
               ratio(static_cast<double>(b.sequential_cycles),
                     static_cast<double>(b.resident_cycles), 1.0),
               "ratio");
    result.add("sim.batch.chunk_passes", ratio(static_cast<double>(b.chunk_passes), items, 0.0),
               "1/item");
    result.add("sim.batch.retired_early",
               ratio(static_cast<double>(b.retired_early), items, 0.0), "ratio");
    result.add("sim.batch.backfills", ratio(static_cast<double>(b.backfills), items, 0.0),
               "1/item");
    result.add("sim.batch.step_frac",
               ratio(static_cast<double>(b.steps_executed),
                     static_cast<double>(b.steps_offered), 1.0),
               "ratio");

    const TraceParts parts = join_trace(spans, traced.requests);
    const double capacity_us =
        1e6 * traced.seconds() * static_cast<double>(layers.worker_threads);
    result.add("core.batch_runner.parallel_eff", ratio(parts.busy_us, capacity_us, 0.0),
               "ratio");
    result.add("core.server.queue_wait_p50_us", quantile(parts.queue_us, 0.50), "us");
    result.add("core.server.queue_wait_p99_us", quantile(parts.queue_us, 0.99), "us");
    result.add("core.backend.exec_p50_us", quantile(parts.exec_us, 0.50), "us");
    result.add("core.backend.exec_p99_us", quantile(parts.exec_us, 0.99), "us");
    result.add("core.server.post_p50_us", quantile(parts.post_us, 0.50), "us");
    result.add("core.server.post_p99_us", quantile(parts.post_us, 0.99), "us");
    result.add("core.server.wave_size_mean", layers.wave_size_mean, "items");
    result.add("core.server.retried", static_cast<double>(layers.retried), "count");
    result.add("core.server.isolated_waves", static_cast<double>(layers.isolated_waves),
               "count");
    const auto resolved = static_cast<double>(traced.requests.size());
    result.add("core.server.rerun_frac",
               ratio(static_cast<double>(parts.span_items), resolved, 1.0) - 1.0, "ratio");

    result.add("loadgen.lag_p99_ms", quantile(parts.lag_us, 0.99) / 1e3, "ms");
    result.add("trace.overhead_frac",
               ratio(quantile(traced.latency_ms(), 0.50), layers.untraced_p50_ms, 1.0) - 1.0,
               "ratio");

    result.check(parts.unmatched == 0,
                 std::to_string(parts.unmatched) +
                     " traced requests have no run_span inside their client interval");
    // The parts are disjoint intervals of each request, so their means
    // must add up to the client's mean latency.
    const double parts_sum = mean(parts.lag_us) + mean(parts.queue_us) +
                             mean(parts.exec_us) + mean(parts.post_us);
    result.check(parts_sum > 0.95 * mean(parts.client_us) &&
                     parts_sum < 1.05 * mean(parts.client_us),
                 "trace parts (" + std::to_string(parts_sum) +
                     " us) do not add up to the client latency (" +
                     std::to_string(mean(parts.client_us)) + " us)");
}

}  // namespace sia::bench::e2e
