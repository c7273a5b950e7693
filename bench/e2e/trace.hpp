// Bench-side tracing: spans recorded from outside the program.
//
// TracingBackend decorates a lane's core::Backend (the same pattern as
// core::FaultyBackend) and records one span per run_span call: lane,
// worker, start, end, and the rng streams of the requests it carried.
// The client records a submit/complete pair per request under the same
// (lane, stream) key. A request's time then splits into self times that
// sum to what the client saw:
//
//   lag        due -> submit          (open-loop generator running late)
//   queue      submit -> start of the request's last run_span
//   exec       that run_span          (encode + engine/simulator)
//   post       end of the run_span -> client sees the result
//
// The last span is the one that produced the result; earlier spans of
// the same request are bisection re-runs or retries, counted by
// rerun_frac. Spans stay in memory and are written as JSON at exit.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench/e2e/harness.hpp"
#include "core/backend.hpp"
#include "sim/sia.hpp"

namespace sia::bench::e2e {

struct Span {
    std::uint32_t lane = 0;
    std::uint32_t worker = 0;
    Clock::time_point start;
    Clock::time_point end;
    std::vector<std::uint64_t> streams;
    bool threw = false;
};

/// Batch-schedule accounting summed over every drained SiaBatchStats.
struct SimBatchTotals {
    std::int64_t items = 0;
    std::int64_t resident_cycles = 0;
    std::int64_t sequential_cycles = 0;
    std::int64_t retired_early = 0;
    std::int64_t backfills = 0;
    std::int64_t chunk_passes = 0;
    std::int64_t steps_executed = 0;
    std::int64_t steps_offered = 0;

    void add(const sim::SiaBatchStats& s) {
        items += static_cast<std::int64_t>(s.batch);
        resident_cycles += s.resident_cycles;
        sequential_cycles += s.sequential_cycles;
        retired_early += s.retired_early;
        backfills += s.backfills;
        chunk_passes += s.chunk_passes;
        steps_executed += s.steps_executed;
        steps_offered += s.steps_offered;
    }
};

/// Spans and drained simulator stats of every traced lane. Recording is
/// switched on only for the traced phase, so the untraced phase of the
/// same run pays one relaxed load per span.
class SpanLog {
public:
    void set_enabled(bool on) noexcept { enabled_.store(on, std::memory_order_relaxed); }
    [[nodiscard]] bool enabled() const noexcept {
        return enabled_.load(std::memory_order_relaxed);
    }

    void record(Span span) {
        const std::lock_guard lock(mutex_);
        spans_.push_back(std::move(span));
    }
    void add_sim(const sim::SiaBatchStats& stats) {
        const std::lock_guard lock(mutex_);
        sim_.add(stats);
    }

    [[nodiscard]] std::vector<Span> spans() const {
        const std::lock_guard lock(mutex_);
        return spans_;
    }
    [[nodiscard]] SimBatchTotals sim() const {
        const std::lock_guard lock(mutex_);
        return sim_;
    }

private:
    std::atomic<bool> enabled_{false};
    mutable std::mutex mutex_;
    std::vector<Span> spans_;  // guarded by mutex_
    SimBatchTotals sim_;       // guarded by mutex_
};

/// Forwards the whole Backend protocol to `inner` and records spans into
/// `log` while it is enabled.
class TracingBackend final : public core::Backend {
public:
    TracingBackend(std::shared_ptr<core::Backend> inner, std::uint32_t lane, SpanLog& log)
        : Backend(inner->model()), inner_(std::move(inner)), lane_(lane), log_(log),
          name_("traced+" + std::string(inner_->name())) {}

    [[nodiscard]] std::string_view name() const noexcept override { return name_; }

    void prepare(std::size_t workers) override {
        inner_->prepare(workers);
        add_setup_nanos(inner_->take_setup_nanos());
    }

    [[nodiscard]] std::size_t preferred_span(std::size_t n,
                                             std::size_t workers) const noexcept override {
        return inner_->preferred_span(n, workers);
    }

    void run_span(std::size_t worker, std::span<const core::Request> requests,
                  std::span<core::Response> responses, std::size_t base,
                  std::uint64_t seed) override {
        if (!log_.enabled()) {
            inner_->run_span(worker, requests, responses, base, seed);
            add_setup_nanos(inner_->take_setup_nanos());
            return;
        }
        Span span;
        span.lane = lane_;
        span.worker = static_cast<std::uint32_t>(worker);
        span.streams.reserve(requests.size());
        for (std::size_t i = 0; i < requests.size(); ++i) {
            span.streams.push_back(requests[i].rng_stream.value_or(base + i));
        }
        span.start = Clock::now();
        try {
            inner_->run_span(worker, requests, responses, base, seed);
        } catch (...) {
            span.end = Clock::now();
            span.threw = true;
            log_.record(std::move(span));
            add_setup_nanos(inner_->take_setup_nanos());
            throw;
        }
        span.end = Clock::now();
        log_.record(std::move(span));
        add_setup_nanos(inner_->take_setup_nanos());
    }

    [[nodiscard]] sim::SiaBatchStats take_sim_batch_stats() noexcept override {
        sim::SiaBatchStats stats = inner_->take_sim_batch_stats();
        if (log_.enabled()) log_.add_sim(stats);
        return stats;
    }

private:
    std::shared_ptr<core::Backend> inner_;
    std::uint32_t lane_;
    SpanLog& log_;
    std::string name_;
};

/// One request as the client saw it. `due` is when it should have been
/// sent: its scheduled arrival in an open loop, the moment the client
/// became ready to send (its previous completion) in a closed loop.
struct ClientRecord {
    std::uint32_t lane = 0;
    std::uint64_t stream = 0;
    bool premium = false;  ///< member of the workload's most urgent class
    bool ok = true;        ///< resolved without an error
    Clock::time_point due;
    Clock::time_point submit;
    Clock::time_point complete;
};

/// Self times of every client request, joined to its spans.
struct TraceParts {
    std::vector<double> lag_us, queue_us, exec_us, post_us, client_us;
    std::size_t unmatched = 0;    ///< requests with no span, or a span outside their interval
    std::size_t span_items = 0;   ///< request slots over every span, re-runs included
    double busy_us = 0.0;         ///< summed span durations
};

inline std::uint64_t span_key(std::uint32_t lane, std::uint64_t stream) {
    return (static_cast<std::uint64_t>(lane) << 56) ^ stream;
}

inline TraceParts join_trace(const std::vector<Span>& spans,
                             const std::vector<ClientRecord>& clients) {
    TraceParts parts;
    std::unordered_map<std::uint64_t, const Span*> last;
    last.reserve(clients.size());
    for (const Span& s : spans) {
        parts.busy_us += us_between(s.start, s.end);
        parts.span_items += s.streams.size();
        for (const std::uint64_t stream : s.streams) {
            const Span*& slot = last[span_key(s.lane, stream)];
            if (slot == nullptr || slot->end < s.end) slot = &s;
        }
    }
    for (const ClientRecord& c : clients) {
        const auto it = last.find(span_key(c.lane, c.stream));
        if (it == last.end() || it->second->start < c.submit ||
            it->second->end > c.complete) {
            ++parts.unmatched;
            continue;
        }
        const Span& s = *it->second;
        parts.lag_us.push_back(us_between(c.due, c.submit));
        parts.queue_us.push_back(us_between(c.submit, s.start));
        parts.exec_us.push_back(us_between(s.start, s.end));
        parts.post_us.push_back(us_between(s.end, c.complete));
        parts.client_us.push_back(us_between(c.due, c.complete));
    }
    return parts;
}

/// Spans and client records as JSON, times in microseconds from `epoch`.
inline bool write_trace(const std::string& path, const std::string& workload,
                        std::uint64_t seed, Clock::time_point epoch,
                        const std::vector<Span>& spans,
                        const std::vector<ClientRecord>& clients) {
    std::ofstream out(path, std::ios::trunc);
    if (!out) return false;
    out << "{\"workload\": \"" << workload << "\", \"seed\": " << seed << ", \"spans\": [";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        out << (i > 0 ? ",\n" : "\n") << "{\"lane\": " << s.lane
            << ", \"worker\": " << s.worker << ", \"start_us\": " << us_between(epoch, s.start)
            << ", \"end_us\": " << us_between(epoch, s.end)
            << ", \"threw\": " << (s.threw ? "true" : "false") << ", \"streams\": [";
        for (std::size_t j = 0; j < s.streams.size(); ++j) {
            out << (j > 0 ? ", " : "") << s.streams[j];
        }
        out << "]}";
    }
    out << "],\n\"requests\": [";
    for (std::size_t i = 0; i < clients.size(); ++i) {
        const ClientRecord& c = clients[i];
        out << (i > 0 ? ",\n" : "\n") << "{\"lane\": " << c.lane << ", \"stream\": " << c.stream
            << ", \"premium\": " << (c.premium ? "true" : "false")
            << ", \"due_us\": " << us_between(epoch, c.due)
            << ", \"submit_us\": " << us_between(epoch, c.submit)
            << ", \"complete_us\": " << us_between(epoch, c.complete) << "}";
    }
    out << "]}\n";
    return static_cast<bool>(out);
}

}  // namespace sia::bench::e2e
