// BatchRunner: backend-generic parallel batch inference.
//
// The runner owns the fan-out protocol — a fixed util::ThreadPool, the
// work-unit chunking the backend asks for, and the timing/stats
// attribution — while a core::Backend owns all execution state (per-
// worker engines, resident simulators, compiled programs). One
// `run(requests)` entry point serves both of the paper's engines
// through the unified core::Request/core::Response types; core::Server
// layers a long-running admission-batched serving loop on top.
//
// Determinism contract: batched results are bit-identical to running the
// same requests sequentially through a fresh backend, for every thread
// count and span grouping. This holds because
//   * each request is an independent work item writing only its own
//     response slot, so the (nondeterministic) unit->worker assignment
//     is invisible;
//   * backends key per-worker state off the worker index only for
//     *placement*, never for results (each worker's engine fully resets
//     between items);
//   * any stochastic path draws from per-request RNG streams derived
//     from the batch seed and the request's stream index — never from a
//     shared or worker-keyed stream.
//
// Session contract: a batch is all-or-nothing for carried state.
// Backends stage each session window's advanced state on its Response;
// run() writes the staged states into Request::session_state only after
// every span succeeded. A throwing batch leaves every session exactly as
// it was, so a caller can re-run any part of it without restoring
// anything.
//
// The four bespoke pre-Request entry points (run(trains) / run_images /
// run_images_poisson / run_sim) were deprecated in the PR that
// introduced this API and are now removed; build Requests with the
// view_*/from_* factories and pick the backend at construction time
// (migration table in docs/ARCHITECTURE.md §6).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/backend.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace sia::core {

struct BatchOptions {
    /// Worker threads; 0 = hardware concurrency.
    std::size_t threads = 0;
    /// Base seed for the per-request RNG streams handed to stochastic
    /// encoding paths. Results depend on this seed but never on the
    /// thread count.
    std::uint64_t seed = util::kDefaultSeed;
};

/// Timing/throughput aggregates of one batch call.
struct BatchStats {
    std::size_t inputs = 0;
    std::size_t threads = 1;
    /// False when the batch threw: wall_ms/setup_ms/run_ms then cover
    /// the work actually performed up to the failure (the pool drains
    /// in-flight items before rethrowing), inputs/threads still
    /// describe the failed batch, and inputs_per_sec() reports 0 — a
    /// failed batch has no meaningful throughput.
    bool completed = false;
    double wall_ms = 0.0;
    /// Engine/program construction time inside this call: functional
    /// engine builds, program compilation, and sim::Sia constructions.
    /// Summed across workers, so with many threads it can exceed its
    /// share of wall_ms; a warm runner reports ~0 here — the residency
    /// amortization made visible.
    double setup_ms = 0.0;
    /// Per-request execution time (encode + run), summed across workers
    /// and exclusive of setup_ms.
    double run_ms = 0.0;
    [[nodiscard]] double inputs_per_sec() const noexcept {
        return completed && wall_ms > 0.0
                   ? 1e3 * static_cast<double>(inputs) / wall_ms
                   : 0.0;
    }
};

class BatchRunner {
public:
    /// `run(requests)` fans out over `backend`, which owns every
    /// engine/simulator (configure it directly, e.g.
    /// `std::make_shared<FunctionalBackend>(model, engine_config)`). The
    /// runner keeps the backend alive; one backend must not be shared
    /// by concurrently-running runners.
    BatchRunner(std::shared_ptr<Backend> backend, BatchOptions options = {});
    ~BatchRunner();

    BatchRunner(const BatchRunner&) = delete;
    BatchRunner& operator=(const BatchRunner&) = delete;

    /// Run every request through the runner's backend; response order
    /// matches request order. A span views a contiguous slice without
    /// copying (a std::vector<Request> converts implicitly), which is
    /// how the serving layer's wave bisection re-runs halves of a
    /// failed wave in place.
    [[nodiscard]] std::vector<Response> run(std::span<const Request> requests);

    /// Stats of the most recent run call; see BatchStats::completed for
    /// the failed-batch semantics.
    [[nodiscard]] const BatchStats& last_stats() const noexcept { return stats_; }

    /// Residency accounting aggregated over every Sia::run_batch call of
    /// the most recent batch (zero-valued after functional runs); counts
    /// such as `chunk_passes` sum across sub-batches.
    [[nodiscard]] const sim::SiaBatchStats& last_sim_batch_stats() const noexcept {
        return sim_batch_stats_;
    }

    [[nodiscard]] std::size_t threads() const noexcept { return pool_.size(); }

    /// The RNG stream request `index` draws from by default, regardless
    /// of which worker executes it (exposed so tests can assert stream
    /// independence).
    [[nodiscard]] util::Rng item_rng(std::size_t index) const;

private:
    BatchOptions options_;
    util::ThreadPool pool_;
    std::shared_ptr<Backend> backend_;
    BatchStats stats_;
    sim::SiaBatchStats sim_batch_stats_;
};

}  // namespace sia::core
