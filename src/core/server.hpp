// core::Server: a multi-model, multi-tenant serving subsystem — several
// named core::Backends behind one admission surface, with per-tenant
// fairness, priority lanes, continuous batching, and hot model reload.
//
// Request lifecycle:
//
//   submit(Request)                     caller thread; routed by
//     |                                 Request::model to that model's
//     |                                 lane, RNG stream pinned to the
//     |                                 lane's admission sequence
//     v
//   per-model bounded queue             backpressure at max_queue:
//     |                                   kBlock  — submitter waits
//     |                                   kReject — refuse, after first
//     |                                     shedding a queued lower-
//     |                                     priority request if one
//     |                                     exists (low lane sheds first)
//     v
//   wave formation                      per-model dispatcher thread;
//     |                                 continuous batching: a wave is
//     |                                 formed the moment the runner is
//     |                                 free and work is queued — the
//     |                                 in-flight wave IS the batching
//     |                                 window, so an empty queue never
//     |                                 stalls a lone request. The high
//     |                                 lane preempts formation: a wave
//     |                                 with high work carries ONLY high
//     |                                 work (a request waits on its
//     |                                 whole wave, so high never rides
//     |                                 with slower batchmates); else
//     |                                 normal fills before low. Within
//     |                                 a lane, weighted round-robin
//     |                                 over tenants (weight = slots
//     |                                 per cycle).
//     v
//   BatchRunner::run(wave)              backend-generic fan-out over the
//     |                                 lane's worker pool
//     v
//   future<Response> resolves           per-request latency recorded
//                                       (admission -> completion) into
//                                       aggregate + per-tenant
//                                       StreamingHistograms and a
//                                       per-tenant SLO-burn counter
//
// Determinism: each admitted request is pinned to an RNG stream equal to
// its model lane's admission sequence number, so for a fixed seed and
// per-model arrival order the responses are bit-identical regardless of
// wave formation, tenant interleaving, priorities, thread count, or
// backend schedule — scheduling shifts *when* a request runs, never its
// result (responses are grouping-invariant by the Backend contract).
//
// Streaming sessions: a request with a non-empty session id is one
// window of a continuous event stream (the paper's DVS use case). All
// windows of a session route to the same lane in admission order and
// inherit the session's tenant + priority (affinity keeps them in one
// FIFO, which serializes them); admission attaches the session's
// persistent state (per-layer membranes + accumulated readout), wave
// formation never packs two windows of one session into the same wave,
// and eviction never sheds a session window (dropping one mid-stream
// would desync the carried state). Sessions retire explicitly
// (close_session() or Request::close_session) or by idle timeout
// (ServerOptions::session_idle_ms). N windows against one session are
// bit-identical to one monolithic run over the concatenated train.
//
// Temporal early exit: a request carrying Request::early_exit stops
// integrating timesteps once its accumulated readout satisfies the
// criterion (Response::steps_used < steps_offered, exit_reason set).
// Inside a wave the resident sim retires the item's membrane-bank
// context the moment it exits, narrowing the wave or back-filling the
// freed slot from the span's pending items; combined with continuous
// batching — the next wave forms the instant the runner frees — early
// exits translate directly into earlier wave completion and higher
// admission throughput. For session windows the criterion evaluates
// the window's readout delta (never the carried total), and the carried
// SessionState is exactly what a full-attention run of the executed
// steps would leave, so early exit never desyncs a stream. A malformed
// criterion resolves with ErrorCode::kInvalidRequest (never retried).
// Determinism is unchanged: a fixed criterion is a pure function of the
// item's own readout sequence, so results stay bit-identical across
// wave formation, thread count, batch composition, and backend.
//
// Hot reload: reload_model(name, backend) quiesces only that model's
// lane (waits for its in-flight wave), swaps the backend + runner, and
// resumes; queued requests for the model run on the new backend, and
// other models' queues are untouched. unregister_model drains the
// lane's queue through its backend, then removes it.
//
// Shutdown: shutdown() stops admissions on every lane, drains every
// queued request, resolves all futures, and joins the dispatchers.
// Submitters blocked on a full queue at shutdown time are refused
// rather than left hanging.
#pragma once

#include <cstddef>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/backend.hpp"
#include "core/batch_runner.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace sia::core {

/// What submit() does when the target model's queue is at max_queue.
enum class BackpressurePolicy : std::uint8_t {
    kBlock,   ///< wait for space (bounds memory, pushes latency upstream)
    kReject,  ///< fail fast (bounds latency, sheds load — low lane first)
};

/// Circuit-breaker state of a model lane (docs/ARCHITECTURE.md §8).
enum class BreakerState : std::uint8_t {
    kClosed,    ///< healthy: waves run on the primary backend
    kOpen,      ///< tripped: waves fail over to the fallback (or fail fast)
    kHalfOpen,  ///< cooling down: waves probe the primary
};

[[nodiscard]] const char* to_string(BreakerState state) noexcept;

/// Fault-tolerance knobs of the serving layer (retry policy + per-lane
/// circuit breaker). Defaults are production-ish; chaos tests tighten
/// them to make trips observable.
struct FaultOptions {
    /// Same-backend re-runs of a transiently-failing request before it
    /// is treated as a permanent failure (0 = never retry).
    std::uint32_t max_retries = 2;
    /// Backoff before the first retry, in microseconds; doubles per
    /// retry. A retry resumes the pre-wave session state (a failed run
    /// commits none) and re-uses the admission-pinned rng_stream, so a
    /// retried request is bit-identical to its first attempt.
    std::int64_t retry_backoff_us = 200;
    /// Consecutive request failures on the primary backend that trip
    /// the lane's breaker.
    std::uint32_t breaker_failures = 5;
    /// Sliding window (in requests) for the failure-rate trip.
    std::size_t breaker_window = 64;
    /// Trip when the window is full and its failure fraction reaches
    /// this (> 1 disables the rate trip).
    double breaker_failure_rate = 0.5;
    /// Open -> half-open cooldown in milliseconds.
    std::int64_t breaker_cooldown_ms = 50;
    /// Consecutive successful probe waves that close a half-open breaker.
    std::uint32_t breaker_probes = 2;
};

struct ServerOptions {
    /// Worker threads of each model lane's BatchRunner; 0 = hardware
    /// concurrency.
    std::size_t threads = 0;
    /// Per-model admission queue bound (>= 1). The queue holds requests
    /// not yet handed to the runner; in-flight waves are not counted.
    std::size_t max_queue = 256;
    /// Largest wave a lane dispatches (>= 1).
    std::size_t max_batch = 32;
    BackpressurePolicy backpressure = BackpressurePolicy::kBlock;
    /// Base seed for per-request RNG streams (stream = the model lane's
    /// admission sequence number).
    std::uint64_t seed = util::kDefaultSeed;
    /// Latency SLO threshold (same unit as the histograms: µs) feeding
    /// the per-tenant SLO-burn counters.
    double slo_us = 50'000.0;
    /// Fair-queuing weight per tenant: slots per round-robin cycle
    /// within a priority lane. Unlisted tenants weigh 1.
    std::map<std::string, std::uint32_t> tenant_weights;
    /// Idle-session expiry horizon in milliseconds: a streaming session
    /// with no queued or in-flight window for longer than this is
    /// retired (carried state freed) at the next admission or wave
    /// boundary. 0 = sessions never expire (close them explicitly).
    std::int64_t session_idle_ms = 60'000;
    /// Retry + circuit-breaker policy (see FaultOptions).
    FaultOptions fault;
};

/// Per-tenant slice of the server's counters.
struct TenantStats {
    std::size_t submitted = 0;  ///< admitted into a queue
    std::size_t completed = 0;
    std::size_t rejected = 0;  ///< refused at submit
    std::size_t shed = 0;      ///< admitted, then evicted for a higher-priority request
    std::size_t failed = 0;    ///< future resolved with a backend exception
    std::size_t sessions_opened = 0;   ///< streaming sessions created
    std::size_t sessions_closed = 0;   ///< retired by explicit close
    std::size_t sessions_expired = 0;  ///< retired by idle timeout
    util::StreamingHistogram latency_us;
    util::SloBurnCounter slo;

    void merge(const TenantStats& other);
};

/// Snapshot of the server's counters and latency distributions,
/// aggregated across every model lane.
struct ServerStats {
    std::size_t submitted = 0;
    std::size_t rejected = 0;  ///< refused (queue full under kReject, unknown model, or stopping)
    std::size_t shed = 0;      ///< evicted from a queue to admit higher priority
    std::size_t completed = 0;
    std::size_t failed = 0;
    std::size_t batches = 0;  ///< waves dispatched through the runners
    std::size_t reloads = 0;  ///< hot backend swaps performed
    std::size_t sessions_opened = 0;   ///< streaming sessions created
    std::size_t sessions_closed = 0;   ///< retired by explicit close
    std::size_t sessions_expired = 0;  ///< retired by idle timeout
    std::size_t active_sessions = 0;   ///< open sessions at snapshot time
    // --- fault-model counters (docs/ARCHITECTURE.md §8) ---
    std::size_t retried = 0;          ///< same-backend re-runs performed
    std::size_t failed_over = 0;      ///< requests served by a fallback backend
    std::size_t deadline_expired = 0; ///< futures resolved kDeadlineExceeded
    std::size_t breaker_trips = 0;    ///< closed -> open transitions
    std::size_t isolated_waves = 0;   ///< thrown waves quarantined by bisection
    /// Per-request latency, admission to completion, in microseconds.
    util::StreamingHistogram latency_us;
    /// Per-tenant breakdown (latency histogram + SLO burn per tenant).
    std::map<std::string, TenantStats> tenants;

    [[nodiscard]] double mean_batch_size() const noexcept {
        return batches > 0
                   ? static_cast<double>(completed + failed) /
                         static_cast<double>(batches)
                   : 0.0;
    }
};

/// Health snapshot of one model lane's fault machinery.
struct LaneStats {
    BreakerState breaker = BreakerState::kClosed;
    bool has_fallback = false;
    std::size_t breaker_trips = 0;    ///< closed -> open transitions
    std::size_t probes = 0;           ///< half-open probe waves dispatched
    std::size_t failovers = 0;        ///< requests served by the fallback
    std::size_t retries = 0;          ///< same-backend re-runs performed
    std::size_t isolated_waves = 0;   ///< thrown waves quarantined by bisection
    std::size_t deadline_expired = 0; ///< futures resolved kDeadlineExceeded
};

class Server {
public:
    /// Single-model convenience: registers `backend` under
    /// kDefaultModel and starts its lane. Requests with an empty model
    /// route to it.
    explicit Server(std::shared_ptr<Backend> backend, ServerOptions options = {});
    /// Empty server; add models with register_model().
    explicit Server(ServerOptions options = {});
    /// Destructor performs a graceful shutdown (drains every lane).
    ~Server();

    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    static constexpr const char* kDefaultModel = "default";

    /// Register a named model and start its lane (queue + dispatcher +
    /// runner). Throws if the name is taken or the server is stopping.
    void register_model(const std::string& name, std::shared_ptr<Backend> backend);
    /// Hot-swap the backend serving `name`: quiesce that lane's
    /// in-flight wave, swap backend + runner, resume. Queued requests
    /// run on the new backend; other models are unaffected. Throws on
    /// unknown model.
    void reload_model(const std::string& name, std::shared_ptr<Backend> backend);
    /// Register a fallback backend for `name`'s lane (graceful
    /// degradation: same logits contract, different cost). An open
    /// circuit breaker routes whole waves to it; a request whose
    /// primary run fails permanently (retries exhausted) is retried on
    /// it individually. Responses it serves are marked
    /// Response::failed_over. Pass nullptr to clear. Throws on unknown
    /// model.
    void set_fallback(const std::string& name, std::shared_ptr<Backend> backend);
    /// Stop admissions for `name`, drain its queued requests through
    /// its backend, join its dispatcher, and remove it. Other models'
    /// queues are untouched. Throws on unknown model.
    void unregister_model(const std::string& name);
    [[nodiscard]] std::vector<std::string> model_names() const;

    /// Submit one request, routed by request.model (empty = sole
    /// registered model / kDefaultModel). Returns a future that
    /// resolves when the request's wave completes, fails (the Response
    /// then carries a structured ErrorCode + message), or the request
    /// is shed. Throws std::runtime_error when refused — the message is
    /// deterministic and tagged with the ErrorCode name (kQueueFull,
    /// kUnknownModel, or kShuttingDown).
    [[nodiscard]] std::future<Response> submit(Request request);

    /// Non-throwing form: nullopt when refused.
    [[nodiscard]] std::optional<std::future<Response>> try_submit(Request request);

    /// Close a streaming session on `model`'s lane (empty = sole /
    /// default model): retires it immediately when no window of it is
    /// queued or in flight, otherwise after its last pending window
    /// resolves. Returns false when the session (or model) is unknown.
    /// A window submitted under the same id after the close completes
    /// opens a fresh session.
    bool close_session(const std::string& session, const std::string& model = {});
    /// Open streaming sessions across every lane / on one model's lane.
    [[nodiscard]] std::size_t session_count() const;
    [[nodiscard]] std::size_t session_count(const std::string& model) const;

    /// Stop admissions on every lane, drain every queued request,
    /// resolve all futures, join the dispatchers. Idempotent; safe to
    /// call from multiple threads.
    void shutdown();

    [[nodiscard]] bool stopping() const;
    /// Queued (not in-flight) requests across all lanes / in one lane.
    [[nodiscard]] std::size_t queue_depth() const;
    [[nodiscard]] std::size_t queue_depth(const std::string& model) const;
    /// Aggregated across lanes; exact histogram/counter merges.
    [[nodiscard]] ServerStats stats() const;
    /// Fault-machinery snapshot of one model's lane (empty = sole /
    /// default model). Throws std::invalid_argument on unknown model.
    [[nodiscard]] LaneStats lane_stats(const std::string& model = {}) const;
    [[nodiscard]] const ServerOptions& options() const noexcept { return options_; }
    /// Single-model convenience: the sole lane's backend. Throws
    /// std::logic_error unless exactly one model is registered.
    [[nodiscard]] Backend& backend();

private:
    struct ModelLane;  // full definition in server.cpp

    [[nodiscard]] std::shared_ptr<ModelLane> route(const std::string& model) const;
    /// try_submit with the refusal reason surfaced (kOk = admitted);
    /// submit() uses it to throw a deterministic, code-tagged message.
    [[nodiscard]] std::optional<std::future<Response>> try_submit(Request request,
                                                                  ErrorCode& why);
    void lane_loop(ModelLane& lane);
    static void stop_lane(ModelLane& lane);

    ServerOptions options_;

    /// Guards the lane map and the server-wide flags/counters. Lock
    /// order: registry_mutex_ before any lane mutex, never the reverse.
    mutable std::mutex registry_mutex_;
    std::map<std::string, std::shared_ptr<ModelLane>> lanes_;
    bool stopping_ = false;
    std::size_t unroutable_ = 0;  ///< rejects with no lane to account them to
    ServerStats retired_;  ///< stats carried over from unregistered lanes
};

}  // namespace sia::core
