// Unified inference API: one request/response surface over both of the
// paper's engines — the functional SNN engine (snn::FunctionalEngine)
// and the cycle-accurate simulated accelerator (sim::Sia) — so anything
// layered above (core::BatchRunner, core::Server) is backend-agnostic.
//
// A Backend owns all per-worker execution state (engines, resident
// simulators, compiled programs) and exposes a span-oriented run
// protocol the runner fans out over a thread pool:
//
//   prepare(workers)        one-time per-batch work, caller's thread
//   run_span(worker, ...)   encode + run a contiguous request slice
//
// Determinism contract (inherited from BatchRunner, extended to
// backends): for a fixed backend, results are bit-identical to running
// the same requests sequentially through a fresh engine, for every
// thread count and span grouping. Stochastic encodings draw from
// per-request RNG streams derived from (seed, stream index) only —
// `stream index` defaults to the request's batch position and can be
// pinned via Request::rng_stream (core::Server pins it to the admission
// sequence number so batch formation, a timing artifact, can never
// influence results).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/compiler.hpp"
#include "sim/config.hpp"
#include "sim/program.hpp"
#include "sim/sia.hpp"
#include "sim/sia_cluster.hpp"
#include "snn/engine.hpp"
#include "snn/exit.hpp"
#include "snn/model.hpp"
#include "snn/session.hpp"
#include "snn/spike.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace sia::core {

/// Input spike encoding applied by the backend worker, per request.
enum class Encoding : std::uint8_t {
    kPreEncoded,   ///< request carries a ready snn::SpikeTrain
    kThermometer,  ///< thermometer-encode the raw image (deterministic)
    kPoisson,      ///< Poisson-rate-encode from the request's RNG stream
};

/// Scheduling lane of a request inside core::Server. Lower value = more
/// urgent: the high lane preempts wave formation (its requests fill a
/// forming wave before any normal/low request regardless of arrival
/// time), the low lane is shed first when a full queue must make room
/// under BackpressurePolicy::kReject. Priority never affects results —
/// only when a request runs.
enum class Priority : std::uint8_t {
    kHigh = 0,
    kNormal = 1,
    kLow = 2,
};
inline constexpr std::size_t kPriorityLanes = 3;

/// Structured failure code of a request's Response (the serving fault
/// model; see docs/ARCHITECTURE.md §8). A backend failure resolves the
/// request's future with a *value* carrying the code + message — never
/// a silently-dropped exception — so callers can distinguish "your
/// request is malformed" from "the backend is unhealthy" from "you ran
/// out of time".
enum class ErrorCode : std::uint8_t {
    kOk = 0,
    kInvalidRequest,    ///< malformed request (never retried or failed over)
    kBackendError,      ///< backend failure (after any retries/failover)
    kDeadlineExceeded,  ///< deadline_us elapsed before completion
    kCircuitOpen,       ///< lane breaker open and no fallback registered
    kShuttingDown,      ///< refused: server/lane draining
    kQueueFull,         ///< refused: queue at max_queue, nothing sheddable
    kUnknownModel,      ///< refused: no lane for Request::model
};

[[nodiscard]] const char* to_string(ErrorCode code) noexcept;

/// Failure a backend classifies as retriable: the serving layer re-runs
/// the request (bounded, exponential backoff) before treating it as a
/// permanent kBackendError. Any other exception type is permanent.
struct TransientError : std::runtime_error {
    using std::runtime_error::runtime_error;
};

/// One inference request. Inputs may be owned (`from_*` factories — the
/// serving path, where the submitter hands the data off) or borrowed
/// (`view_*` factories — the zero-copy batch path; the caller keeps the
/// referenced train/image alive until the batch returns).
struct Request {
    Encoding encoding = Encoding::kPreEncoded;
    /// Timesteps to encode (image encodings only; pre-encoded trains
    /// carry their own length).
    std::int64_t timesteps = 0;

    snn::SpikeTrain train;  ///< owned pre-encoded input
    tensor::Tensor image;   ///< owned raw image
    const snn::SpikeTrain* train_view = nullptr;  ///< borrowed alternative to `train`
    const tensor::Tensor* image_view = nullptr;   ///< borrowed alternative to `image`

    /// RNG stream index for stochastic encodings. Defaults to the
    /// request's position in the submitted batch; pin it (as the server
    /// does, to the admission sequence) when the same request must
    /// encode identically regardless of how batches are formed.
    std::optional<std::uint64_t> rng_stream;

    // --- serving routing (core::Server; ignored by plain BatchRunner) ---
    /// Registered model to route to. Empty = the server's sole model
    /// (single-model servers), otherwise must name a registered model.
    std::string model;
    /// Tenant the request is accounted (fairness weight, per-tenant
    /// latency/SLO stats) under. Empty is a valid tenant.
    std::string tenant;
    Priority priority = Priority::kNormal;
    /// Completion deadline relative to submission, in microseconds
    /// (0 = none). The server enforces it at admission (a kBlock wait
    /// gives up at the deadline), wave formation (an expired request
    /// never occupies a wave slot), and completion/retry — the future
    /// then resolves with ErrorCode::kDeadlineExceeded. Ignored for
    /// session windows: skipping one would desync the stream's carried
    /// state, so session windows always run.
    std::int64_t deadline_us = 0;
    /// Retry attempt number of this run (0 = first). Managed by the
    /// serving layer; backends may key fault recovery off it.
    std::uint32_t attempt = 0;

    // --- streaming sessions (persistent membranes across windows) ---
    /// Logical streaming session this request is one window of. Empty =
    /// stateless one-shot inference. Non-empty: the serving path routes
    /// every window of the id to the same lane in admission order, and
    /// each window resumes the attached session_state and saves it back,
    /// so N chunked windows are bit-identical to one monolithic run.
    std::string session;
    /// Window sequence number within the session. Assigned by the
    /// server at admission; echoed in the response.
    std::uint64_t window_seq = 0;
    /// Retire the session once this window resolves (server-side).
    bool close_session = false;
    /// Carried state (membranes + readout) the window resumes from; see
    /// Response::staged_session for how it advances. The server attaches
    /// the lane's table entry at admission; callers driving BatchRunner
    /// directly attach their own — but must not submit two windows of
    /// one session into the same batch (both would resume from the same
    /// state).
    std::shared_ptr<snn::SessionState> session_state;

    // --- temporal early exit (anytime inference) ---
    /// Optional per-request confidence criterion: the backend stops
    /// integrating timesteps once the accumulated readout satisfies it
    /// (Response::steps_used < steps_offered, exit_reason set). Absent
    /// or disabled = full train. For session windows the criterion
    /// evaluates the *window's* readout delta, so a carried readout
    /// lead from earlier windows never triggers an instant exit, and
    /// the carried SessionState stays exactly what a full-attention
    /// run of the executed steps would leave. A malformed criterion
    /// resolves the request with ErrorCode::kInvalidRequest.
    std::optional<snn::ExitCriterion> early_exit;

    /// Chainable routing tag for rvalue requests:
    ///   server.submit(Request::view_train(t).with("vgg", "tenant-a",
    ///                                             Priority::kHigh));
    [[nodiscard]] Request with(std::string model_name, std::string tenant_name = {},
                               Priority prio = Priority::kNormal) &&;
    /// Chainable session tag for rvalue requests:
    ///   server.submit(Request::from_train(w).with_session("cam-0"));
    [[nodiscard]] Request with_session(std::string session_id, bool close = false) &&;
    /// Chainable deadline for rvalue requests.
    [[nodiscard]] Request with_deadline(std::int64_t us) &&;
    /// Chainable early-exit criterion for rvalue requests:
    ///   server.submit(Request::view_train(t).with_early_exit(
    ///       {.margin = 40, .min_steps = 8}));
    [[nodiscard]] Request with_early_exit(snn::ExitCriterion criterion) &&;

    /// Deep-copy borrowed views (train_view/image_view) into owned
    /// storage and drop the pointers, leaving the request
    /// self-contained. The server calls this at admission: dispatch is
    /// asynchronous, so a borrowed buffer can die between submit()
    /// returning and a worker encoding the request.
    void own_views();

    [[nodiscard]] static Request from_train(snn::SpikeTrain t);
    [[nodiscard]] static Request view_train(const snn::SpikeTrain& t);
    [[nodiscard]] static Request thermometer(tensor::Tensor img, std::int64_t timesteps);
    [[nodiscard]] static Request view_thermometer(const tensor::Tensor& img,
                                                  std::int64_t timesteps);
    [[nodiscard]] static Request poisson(tensor::Tensor img, std::int64_t timesteps);
    [[nodiscard]] static Request view_poisson(const tensor::Tensor& img,
                                              std::int64_t timesteps);

    /// The pre-encoded train (borrowed or owned). Valid when
    /// encoding == kPreEncoded.
    [[nodiscard]] const snn::SpikeTrain& pre_encoded() const noexcept {
        return train_view != nullptr ? *train_view : train;
    }
    /// The raw image (borrowed or owned). Valid for image encodings.
    [[nodiscard]] const tensor::Tensor& raw_image() const noexcept {
        return image_view != nullptr ? *image_view : image;
    }
};

/// One inference response: the union of what the two engines report.
/// Core fields (logits, spike/neuron counts, timesteps) are filled by
/// every backend and are bit-identical across backends by the engines'
/// shared-numerics construction; the per-layer extras are
/// backend-specific and empty elsewhere.
struct Response {
    /// Per-step accumulated readout rows. Only filled when the backend's
    /// EngineConfig/record keeps history (serving configs turn it off);
    /// `logits` below is always present.
    std::vector<std::vector<std::int64_t>> logits_per_step;  ///< [T][classes]
    /// Final accumulated readout after the steps actually integrated —
    /// the row predictions are defined on, filled by every backend
    /// whether or not per-step history is recorded.
    std::vector<std::int64_t> logits;
    std::vector<std::int64_t> spike_counts;                  ///< per layer
    std::vector<std::int64_t> neuron_counts;                 ///< per layer
    /// Per-layer step and input-density counters (FunctionalBackend only).
    std::vector<snn::LayerDispatchStats> layer_dispatch;
    /// Cycle-accurate per-layer stats (SiaBackend only).
    std::vector<sim::LayerCycleStats> layer_stats;
    std::int64_t timesteps = 0;

    // --- temporal early exit accounting ---
    /// Timesteps actually integrated (== timesteps; alias kept explicit
    /// for the serving stats surface).
    std::int64_t steps_used = 0;
    /// Timesteps the request offered (train length / Request::timesteps).
    std::int64_t steps_offered = 0;
    /// Why integration stopped (kNone = ran the full train).
    snn::ExitReason exit_reason = snn::ExitReason::kNone;

    // --- streaming session echo (empty / zero for stateless requests) ---
    std::string session;       ///< session id of the request
    std::uint64_t window_seq = 0;  ///< window index within the session
    /// Timesteps the session has integrated in total, this window
    /// included. logits_per_step.back() is the readout accumulated over
    /// all session_steps, not just this window's timesteps.
    std::int64_t session_steps = 0;
    /// The state this session window leaves behind, staged by the
    /// backend. BatchRunner::run moves it into Request::session_state
    /// once every request of the batch has succeeded, and leaves this
    /// empty; a batch that throws commits nothing.
    std::optional<snn::SessionState> staged_session;

    // --- structured failure (serving fault model; see ErrorCode) ---
    ErrorCode error_code = ErrorCode::kOk;
    /// Human-readable failure detail; empty on success.
    std::string error;
    /// Same-backend re-runs the serving layer performed for this request.
    std::uint32_t retries = 0;
    /// True when the lane's registered fallback backend served this
    /// response (primary failed or its breaker was open).
    bool failed_over = false;

    [[nodiscard]] bool ok() const noexcept { return error_code == ErrorCode::kOk; }

    /// Prediction after timestep `t` (argmax of accumulated logits).
    [[nodiscard]] std::int64_t predicted_class(std::int64_t t) const;
    /// Prediction of the final readout (`logits`; argmax, first-index
    /// wins) — valid with or without per-step history.
    [[nodiscard]] std::int64_t predicted() const;
    /// True when the backend attached cycle stats (i.e. it simulates
    /// the accelerator rather than just the numerics).
    [[nodiscard]] bool has_cycle_stats() const noexcept { return !layer_stats.empty(); }
    [[nodiscard]] std::int64_t total_cycles() const noexcept;

    [[nodiscard]] static Response from(snn::RunResult r);
    [[nodiscard]] static Response from(sim::SiaRunResult r);
};

/// Backend-polymorphic execution surface. Implementations own per-worker
/// state indexed by the `worker` id the runner passes in; slot `w` is
/// only ever touched from pool worker `w`, which is what makes the
/// per-worker caches race-free without locks. A Backend must not be
/// driven by two concurrently-running batches (one BatchRunner/Server
/// at a time).
class Backend {
public:
    explicit Backend(const snn::SnnModel& model);
    virtual ~Backend() = default;

    Backend(const Backend&) = delete;
    Backend& operator=(const Backend&) = delete;

    [[nodiscard]] virtual std::string_view name() const noexcept = 0;

    /// One-time per-batch work on the caller's thread before the
    /// fan-out (program compilation, worker-slot sizing). `workers` is
    /// the number of distinct worker ids subsequent run_span calls may
    /// use. Heavy work must be self-reported via add_setup_nanos so the
    /// runner can attribute it to BatchStats::setup_ms.
    virtual void prepare(std::size_t workers) = 0;

    /// Preferred work-unit size for a batch of `n` requests over
    /// `workers` workers: 1 = fan out per request (the default);
    /// chunked backends (resident sim) return ceil(n / workers) so a
    /// whole contiguous sub-batch lands on one worker.
    [[nodiscard]] virtual std::size_t preferred_span(
        std::size_t n, std::size_t workers) const noexcept {
        (void)n;
        (void)workers;
        return 1;
    }

    /// Encode and run `requests` — a contiguous slice of a batch whose
    /// first element has batch index `base` — on worker `worker`,
    /// writing `responses[i]` for request i. Stochastic encodings for
    /// request i must draw from util::Rng(util::mix_seed(seed, s))
    /// where s = requests[i].rng_stream.value_or(base + i). A session
    /// window runs on a copy of its Request::session_state and stages
    /// the result on Response::staged_session; the request's own state
    /// is never written here.
    virtual void run_span(std::size_t worker, std::span<const Request> requests,
                          std::span<Response> responses, std::size_t base,
                          std::uint64_t seed) = 0;

    /// Drain the residency accounting accumulated since the last call
    /// (sim backends; zero-valued elsewhere).
    [[nodiscard]] virtual sim::SiaBatchStats take_sim_batch_stats() noexcept {
        return {};
    }

    [[nodiscard]] const snn::SnnModel& model() const noexcept { return model_; }

    // --- setup-time protocol (BatchRunner's stats attribution) ---
    [[nodiscard]] std::int64_t setup_nanos() const noexcept {
        return setup_nanos_.load(std::memory_order_relaxed);
    }
    std::int64_t take_setup_nanos() noexcept { return setup_nanos_.exchange(0); }

protected:
    void add_setup_nanos(std::int64_t nanos) noexcept {
        setup_nanos_.fetch_add(nanos, std::memory_order_relaxed);
    }
    /// Resolve a request to the train to run: pass through pre-encoded
    /// inputs, or encode the raw image into `scratch` (Poisson draws
    /// from the stream derived from (seed, stream)). Throws
    /// std::invalid_argument on malformed requests (image encodings
    /// with timesteps <= 0).
    [[nodiscard]] static const snn::SpikeTrain& materialize(const Request& request,
                                                            std::uint64_t seed,
                                                            std::uint64_t stream,
                                                            snn::SpikeTrain& scratch);
    /// materialize() a whole span into simulator batch items carrying
    /// each request's criterion (`scratch` holds the encoded trains the
    /// items view). A session window's item runs on a copy of its state
    /// staged on `responses[i]`.
    [[nodiscard]] static std::vector<sim::BatchItem> materialize_batch(
        std::span<const Request> requests, std::span<Response> responses,
        std::size_t base, std::uint64_t seed, std::vector<snn::SpikeTrain>& scratch);

private:
    const snn::SnnModel& model_;
    std::atomic<std::int64_t> setup_nanos_{0};
};

/// Functional (bit-accurate, cycle-agnostic) backend: one private
/// snn::FunctionalEngine per worker, built lazily on the worker's first
/// request and reused across batches, configured by EngineConfig;
/// responses carry the per-layer step counters.
///
/// Intra-inference parallelism: prepare(workers) builds one
/// snn::TileTeam of workers - 1 helper threads, shared by the backend's
/// engines, unless no step of the model can ever split
/// (snn::tiling_possible). A span that is the backend's only span in
/// flight lends the team to its engine for each inference
/// (snn::TeamLoan), so a lone request's heavy conv layer-steps run on
/// the cores the idle workers would otherwise leave unused. Concurrent
/// spans run serially, exactly as without a team. Results are
/// bit-identical either way.
class FunctionalBackend final : public Backend {
public:
    explicit FunctionalBackend(const snn::SnnModel& model,
                               snn::EngineConfig config = {});

    [[nodiscard]] std::string_view name() const noexcept override {
        return "functional";
    }
    void prepare(std::size_t workers) override;
    void run_span(std::size_t worker, std::span<const Request> requests,
                  std::span<Response> responses, std::size_t base,
                  std::uint64_t seed) override;

    [[nodiscard]] const snn::EngineConfig& engine_config() const noexcept {
        return config_;
    }

private:
    [[nodiscard]] snn::FunctionalEngine& engine(std::size_t worker);

    snn::EngineConfig config_;
    std::vector<std::unique_ptr<snn::FunctionalEngine>> engines_;
    std::unique_ptr<snn::TileTeam> team_;  ///< null with one worker or no heavy layer
    std::atomic<std::size_t> spans_in_flight_{0};
};

/// Cycle-accurate backend: the compiled program is cached inside the
/// backend (compiled once in prepare()), and each worker keeps a
/// resident sim::Sia whose BRAM weights and program survive across spans
/// and batches; a whole request span goes through one Sia::run_batch, so
/// weight residency amortizes across it. Responses carry per-layer cycle
/// stats; spikes/logits are bit-identical to FunctionalBackend by the
/// engines' shared-numerics construction.
class SiaBackend final : public Backend {
public:
    explicit SiaBackend(const snn::SnnModel& model, sim::SiaConfig config = {});

    [[nodiscard]] std::string_view name() const noexcept override { return "sia"; }
    void prepare(std::size_t workers) override;
    [[nodiscard]] std::size_t preferred_span(std::size_t n,
                                             std::size_t workers) const noexcept override;
    void run_span(std::size_t worker, std::span<const Request> requests,
                  std::span<Response> responses, std::size_t base,
                  std::uint64_t seed) override;
    [[nodiscard]] sim::SiaBatchStats take_sim_batch_stats() noexcept override;

    [[nodiscard]] const sim::SiaConfig& config() const noexcept { return config_; }

private:
    [[nodiscard]] sim::Sia& resident(std::size_t worker);

    sim::SiaConfig config_;
    std::optional<sim::CompiledProgram> program_;
    /// One resident simulator slot per worker, filled lazily, reused
    /// across batches.
    std::vector<std::unique_ptr<sim::Sia>> sias_;
    /// Residency accounting accumulated across concurrent run_span
    /// calls (hence the lock; spans on different workers race on it).
    std::mutex stats_mutex_;
    sim::SiaBatchStats batch_stats_;
};

/// Sharded cycle-accurate backend: one sim::SiaCluster — N resident Sia
/// shards partitioned by SiaCompiler::compile_sharded — serves every
/// span. The cluster drives its own worker pool, so the backend claims
/// the whole batch as a single span (preferred_span = n) and runs it on
/// one runner worker. Logits/spikes/sessions are bit-identical to
/// SiaBackend by the sharding equivalence contract (sim/shard.hpp), so
/// a cluster lane composes with batching, sessions, retries, and
/// failover unchanged.
class ShardedSiaBackend final : public Backend {
public:
    ShardedSiaBackend(const snn::SnnModel& model, sim::SiaConfig config,
                      ShardOptions shard_options,
                      sim::SiaClusterOptions cluster_options = {});

    [[nodiscard]] std::string_view name() const noexcept override {
        return "sia-cluster";
    }
    void prepare(std::size_t workers) override;
    [[nodiscard]] std::size_t preferred_span(std::size_t n,
                                             std::size_t workers) const noexcept override;
    void run_span(std::size_t worker, std::span<const Request> requests,
                  std::span<Response> responses, std::size_t base,
                  std::uint64_t seed) override;

    /// Drain the cluster accounting accumulated since the last call.
    [[nodiscard]] sim::ShardStats take_shard_stats() noexcept;

    [[nodiscard]] const sim::SiaConfig& config() const noexcept { return config_; }
    [[nodiscard]] const ShardOptions& shard_options() const noexcept {
        return shard_options_;
    }
    /// The resident cluster (nullptr before the first prepare()).
    [[nodiscard]] const sim::SiaCluster* cluster() const noexcept {
        return cluster_.get();
    }

private:
    sim::SiaConfig config_;
    ShardOptions shard_options_;
    sim::SiaClusterOptions cluster_options_;
    std::unique_ptr<sim::SiaCluster> cluster_;
    std::mutex stats_mutex_;
    sim::ShardStats shard_stats_;
};

}  // namespace sia::core
