#include "core/batch_runner.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

#include "util/timer.hpp"

namespace sia::core {

BatchRunner::BatchRunner(std::shared_ptr<Backend> backend, BatchOptions options)
    : options_(options), pool_(options.threads), backend_(std::move(backend)) {}

BatchRunner::~BatchRunner() = default;

util::Rng BatchRunner::item_rng(std::size_t index) const {
    return util::Rng(util::mix_seed(options_.seed, index));
}

/// The batch protocol: publish the batch shape to stats up front (so a
/// throwing batch is never misattributed to an earlier one), let the
/// backend do its one-time work, fan spans out over the pool, and
/// attribute wall/setup/run time — on success *and* on failure (the
/// stats of a throwing batch cover the work performed before the pool
/// drained, with completed = false).
std::vector<Response> BatchRunner::run(std::span<const Request> requests) {
    Backend& backend = *backend_;
    sim_batch_stats_ = {};
    stats_ = BatchStats{};
    stats_.inputs = requests.size();
    stats_.threads = pool_.size();

    (void)backend.take_setup_nanos();  // drop residue from a failed batch
    backend.prepare(pool_.size());

    const std::size_t n = requests.size();
    const std::size_t span =
        std::max<std::size_t>(1, backend.preferred_span(n, pool_.size()));
    const std::size_t units = (n + span - 1) / span;
    std::vector<Response> responses(n);

    // Setup accumulated before the fan-out (program compilation) is not
    // inside any unit timer and must not be subtracted from them.
    const std::int64_t outside_unit_setup = backend.setup_nanos();
    std::atomic<std::int64_t> unit_nanos{0};
    const util::WallTimer timer;
    const auto finalize = [&](bool completed) {
        stats_.wall_ms = timer.millis();
        const std::int64_t setup_total = backend.take_setup_nanos();
        stats_.setup_ms = static_cast<double>(setup_total) / 1e6;
        // Engine/Sia construction happens inside unit calls; subtract
        // that share so run_ms is pure per-request execution.
        stats_.run_ms = std::max(
            0.0, static_cast<double>(unit_nanos.load() -
                                     (setup_total - outside_unit_setup)) /
                     1e6);
        stats_.completed = completed;
    };
    try {
        pool_.parallel_for(units, [&](std::size_t unit, std::size_t worker) {
            const std::size_t base = unit * span;
            const std::size_t count = std::min(span, n - base);
            const util::WallTimer unit_timer;
            backend.run_span(worker, {requests.data() + base, count},
                             {responses.data() + base, count}, base, options_.seed);
            unit_nanos.fetch_add(static_cast<std::int64_t>(unit_timer.millis() * 1e6),
                                 std::memory_order_relaxed);
        });
    } catch (...) {
        finalize(/*completed=*/false);
        sim_batch_stats_ = backend.take_sim_batch_stats();
        throw;
    }
    finalize(/*completed=*/true);
    sim_batch_stats_ = backend.take_sim_batch_stats();
    // The one commit point for session windows: every span succeeded, so
    // the states the backend staged now become the sessions' state.
    for (std::size_t i = 0; i < n; ++i) {
        if (auto& staged = responses[i].staged_session) {
            *requests[i].session_state = std::move(*staged);
            staged.reset();
        }
    }
    return responses;
}

}  // namespace sia::core
