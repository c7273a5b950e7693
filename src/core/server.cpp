#include "core/server.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <set>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>

#include "util/log.hpp"

namespace sia::core {

namespace {

using Clock = std::chrono::steady_clock;

/// Fair-queuing weight of a tenant: slots per round-robin cycle within
/// a priority lane. Unlisted tenants weigh 1; 0 is clamped to 1 (a
/// zero-weight tenant would starve outright, which fairness forbids).
std::uint32_t weight_of(const ServerOptions& options, const std::string& tenant) {
    const auto it = options.tenant_weights.find(tenant);
    return it == options.tenant_weights.end() ? 1U
                                              : std::max<std::uint32_t>(1, it->second);
}

/// One admitted request awaiting wave formation.
struct Queued {
    Request request;
    std::promise<Response> promise;
    Clock::time_point enqueued;
    /// Completion deadline (admission time + Request::deadline_us);
    /// time_point::max() when none. Session windows never carry one —
    /// skipping a window would desync the stream's carried state.
    Clock::time_point expiry = Clock::time_point::max();
};

/// Lifecycle record of one streaming session on a lane. `state` is
/// shared with every queued window of the session; the lane's runner
/// writes it once a window's run succeeds, and the
/// one-window-per-session-per-wave rule in form_wave (plus the lane's
/// single in-flight wave) is what makes that race-free and
/// admission-ordered.
struct SessionEntry {
    std::shared_ptr<snn::SessionState> state;
    std::string tenant;  ///< adopted by every later window (affinity)
    Priority priority = Priority::kNormal;
    std::uint64_t next_seq = 0;  ///< window sequence number to assign
    std::size_t pending = 0;     ///< windows queued or in flight
    bool close_after_pending = false;
    Clock::time_point last_activity;
};

/// Scheduling state of one priority lane: per-tenant FIFOs plus the
/// weighted round-robin rotation over tenants with queued work. The
/// rotation is ordered by activation (first enqueue), so selection is a
/// pure function of admission history — no timing, no hashing.
struct PriorityLaneState {
    std::map<std::string, std::deque<Queued>> per_tenant;
    std::vector<std::string> rotation;
    std::size_t cursor = 0;  ///< next tenant to serve in `rotation`
    std::size_t size = 0;    ///< total requests across per_tenant

    void deactivate(const std::string& tenant) {
        per_tenant.erase(tenant);
        const auto it = std::find(rotation.begin(), rotation.end(), tenant);
        const auto idx = static_cast<std::size_t>(it - rotation.begin());
        rotation.erase(it);
        if (rotation.empty()) {
            cursor = 0;
        } else {
            if (idx < cursor) --cursor;
            cursor %= rotation.size();
        }
    }
};

/// Outcome of executing one wave outside the lane lock.
struct WaveExecResult {
    std::vector<Response> responses;           ///< one per wave slot
    std::vector<std::uint8_t> primary_failed;  ///< ultimate primary outcome (breaker feed)
    std::size_t retried = 0;    ///< same-backend re-runs performed
    std::size_t failovers = 0;  ///< requests served by the fallback
    bool bisected = false;      ///< the wave threw and was quarantined
};

/// Executes one wave with failure isolation (docs/ARCHITECTURE.md §8).
///
/// A throwing wave is bisected: both halves re-run independently, so
/// only sub-spans containing a genuinely poisoned request keep failing
/// and healthy co-batched requests complete normally. At span size 1
/// the failure is classified — std::invalid_argument resolves as
/// kInvalidRequest (the request's own fault, never retried);
/// TransientError is retried with exponential backoff up to
/// FaultOptions::max_retries; anything else is a permanent backend
/// failure. A request whose primary runs are exhausted fails over to
/// the lane's fallback runner when one is registered, else resolves as
/// kBackendError.
///
/// Correctness of every re-run rests on two invariants: (a) the
/// request's rng_stream was pinned at admission, so a re-run encodes
/// bit-identically to the first attempt; (b) BatchRunner::run commits
/// session state only when the whole run succeeds, so a failed attempt
/// leaves every session of its span exactly as it was before the wave.
/// A window that ultimately fails leaves its session untouched — as if
/// the window never ran — and the stream continues from there.
class WaveExecutor {
public:
    WaveExecutor(BatchRunner& runner, BatchRunner* fallback,
                 const std::string& lane_name, const FaultOptions& fault,
                 std::vector<Request>& requests,
                 const std::vector<Clock::time_point>& expiry)
        : runner_(runner), fallback_(fallback), lane_(lane_name), fault_(fault),
          requests_(requests), expiry_(expiry) {
        result_.responses.resize(requests.size());
        result_.primary_failed.assign(requests.size(), 0);
    }

    [[nodiscard]] WaveExecResult run() {
        solve(0, requests_.size());
        return std::move(result_);
    }

private:
    struct Classified {
        bool transient = false;
        bool invalid = false;
        std::string what;
    };

    [[nodiscard]] static Classified classify(const std::exception_ptr& failure) {
        Classified c;
        try {
            std::rethrow_exception(failure);
        } catch (const TransientError& e) {
            c.transient = true;
            c.what = e.what();
        } catch (const std::invalid_argument& e) {
            c.invalid = true;
            c.what = e.what();
        } catch (const std::exception& e) {
            c.what = e.what();
        } catch (...) {
            c.what = "unknown error";
        }
        return c;
    }

    /// Run [lo, hi) through `runner`, filling the response slots on
    /// success. Returns the failure instead of throwing.
    [[nodiscard]] std::exception_ptr try_run(BatchRunner& runner, std::size_t lo,
                                             std::size_t hi) {
        try {
            auto responses = runner.run(
                std::span<const Request>(requests_.data() + lo, hi - lo));
            for (std::size_t i = lo; i < hi; ++i) {
                result_.responses[i] = std::move(responses[i - lo]);
            }
            return nullptr;
        } catch (...) {
            return std::current_exception();
        }
    }

    /// Invariant: every session state in [lo, hi) is at its pre-wave
    /// value on entry; a successful run advances it exactly once.
    void solve(std::size_t lo, std::size_t hi) {
        if (lo == hi) return;
        const std::exception_ptr failure = try_run(runner_, lo, hi);
        if (!failure) return;
        if (hi - lo > 1) {
            result_.bisected = true;
            const std::size_t mid = lo + (hi - lo) / 2;
            solve(lo, mid);
            solve(mid, hi);
            return;
        }
        resolve_single(lo, failure);
    }

    void fail(std::size_t i, ErrorCode code, std::string what,
              std::uint32_t attempts) {
        Response r;
        r.session = requests_[i].session;
        r.window_seq = requests_[i].window_seq;
        r.error_code = code;
        r.error = std::move(what);
        r.retries = attempts;
        result_.responses[i] = std::move(r);
    }

    void resolve_single(std::size_t i, const std::exception_ptr& failure) {
        Classified c = classify(failure);
        util::log_warn("Server: lane '", lane_, "': request (stream ",
                       requests_[i].rng_stream.value_or(0), ") failed: ", c.what);
        if (c.invalid) {
            // The request itself is malformed: not the backend's fault,
            // so it is never retried or failed over and does not feed
            // the lane's breaker.
            fail(i, ErrorCode::kInvalidRequest, std::move(c.what), 0);
            return;
        }
        std::uint32_t attempts = 0;
        while (c.transient && attempts < fault_.max_retries) {
            if (Clock::now() >= expiry_[i]) {
                fail(i, ErrorCode::kDeadlineExceeded,
                     "deadline exceeded during retry; last error: " + c.what,
                     attempts);
                result_.primary_failed[i] = 1;
                return;
            }
            std::this_thread::sleep_for(
                std::chrono::microseconds(fault_.retry_backoff_us << attempts));
            ++attempts;
            ++result_.retried;
            requests_[i].attempt = attempts;
            const std::exception_ptr retry_failure = try_run(runner_, i, i + 1);
            if (!retry_failure) {
                result_.responses[i].retries = attempts;
                return;
            }
            c = classify(retry_failure);
            if (c.invalid) {
                fail(i, ErrorCode::kInvalidRequest, std::move(c.what), attempts);
                return;
            }
        }
        result_.primary_failed[i] = 1;
        if (fallback_ != nullptr) {
            requests_[i].attempt = 0;
            const std::exception_ptr fb_failure = try_run(*fallback_, i, i + 1);
            if (!fb_failure) {
                result_.responses[i].retries = attempts;
                result_.responses[i].failed_over = true;
                ++result_.failovers;
                return;
            }
            c.what += "; fallback: " + classify(fb_failure).what;
        }
        fail(i, ErrorCode::kBackendError, std::move(c.what), attempts);
    }

    BatchRunner& runner_;
    BatchRunner* fallback_;
    const std::string& lane_;
    const FaultOptions& fault_;
    std::vector<Request>& requests_;
    const std::vector<Clock::time_point>& expiry_;
    WaveExecResult result_;
};

}  // namespace

const char* to_string(BreakerState state) noexcept {
    switch (state) {
        case BreakerState::kClosed: return "closed";
        case BreakerState::kOpen: return "open";
        case BreakerState::kHalfOpen: return "half-open";
    }
    return "?";
}

void TenantStats::merge(const TenantStats& other) {
    submitted += other.submitted;
    completed += other.completed;
    rejected += other.rejected;
    shed += other.shed;
    failed += other.failed;
    sessions_opened += other.sessions_opened;
    sessions_closed += other.sessions_closed;
    sessions_expired += other.sessions_expired;
    latency_us.merge(other.latency_us);
    // A default-constructed slot (e.g. a fresh map entry during
    // aggregation) adopts the incoming threshold before the exact
    // counter merge.
    if (slo.total() == 0 && slo.threshold() != other.slo.threshold()) {
        slo = util::SloBurnCounter(other.slo.threshold());
    }
    slo.merge(other.slo);
}

/// One registered model: its backend + runner, its admission queue
/// (priority lanes over per-tenant FIFOs), its dispatcher thread, and
/// the stats slice it owns. `mutex` guards every mutable field; the
/// dispatcher only drops it while a wave is in flight (in_flight > 0),
/// which is exactly the window reload_model waits out before swapping
/// backend/runner.
struct Server::ModelLane {
    std::string name;
    std::shared_ptr<Backend> backend;
    std::unique_ptr<BatchRunner> runner;
    /// Registered fallback (set_fallback): an open breaker routes whole
    /// waves here; a permanently-failing request retries here
    /// individually. Swapped only while in_flight == 0 (same quiesce
    /// protocol as reload), so the dispatcher's unlocked use is stable.
    std::shared_ptr<Backend> fallback;
    std::unique_ptr<BatchRunner> fallback_runner;

    mutable std::mutex mutex;
    std::condition_variable work_cv;   ///< wakes the dispatcher
    std::condition_variable space_cv;  ///< wakes blocked submitters
    std::condition_variable idle_cv;   ///< wakes reload waiting for quiesce

    std::array<PriorityLaneState, kPriorityLanes> prio;
    std::size_t queued = 0;     ///< across all priority lanes
    std::size_t in_flight = 0;  ///< requests of the wave being executed
    bool stopping = false;      ///< shutdown or unregister drain
    bool paused = false;        ///< reload quiesce: no new waves
    std::uint64_t next_stream = 0;  ///< admission sequence number

    // Circuit breaker (state machine in docs/ARCHITECTURE.md §8).
    BreakerState breaker = BreakerState::kClosed;
    Clock::time_point breaker_opened{};
    std::uint32_t probe_successes = 0;       ///< consecutive half-open probe wins
    std::size_t consecutive_failures = 0;    ///< consecutive primary request failures
    std::deque<bool> outcome_window;         ///< recent primary outcomes (true = failed)
    std::size_t window_failures = 0;         ///< failures inside outcome_window

    // Stats slice (merged by Server::stats()).
    std::size_t submitted = 0;
    std::size_t rejected = 0;
    std::size_t shed = 0;
    std::size_t completed = 0;
    std::size_t failed = 0;
    std::size_t batches = 0;
    std::size_t reloads = 0;
    std::size_t sessions_opened = 0;
    std::size_t sessions_closed = 0;
    std::size_t sessions_expired = 0;
    std::size_t retried = 0;
    std::size_t failed_over = 0;
    std::size_t deadline_expired = 0;
    std::size_t breaker_trips = 0;
    std::size_t probes = 0;
    std::size_t isolated_waves = 0;
    util::StreamingHistogram latency_us;
    std::map<std::string, TenantStats> tenants;

    /// Streaming sessions keyed by id; guarded by `mutex`.
    std::map<std::string, SessionEntry> sessions;

    std::thread dispatcher;
    std::once_flag join_once;

    TenantStats& tenant_slot(const std::string& tenant, double slo_us) {
        const auto [it, fresh] = tenants.try_emplace(tenant);
        if (fresh) it->second.slo = util::SloBurnCounter(slo_us);
        return it->second;
    }

    /// Remove `it` from the session table, accounting the retirement
    /// as an explicit close or an idle expiry. Caller holds `mutex`.
    void retire_session(std::map<std::string, SessionEntry>::iterator it,
                        bool expired, double slo_us) {
        TenantStats& slice = tenant_slot(it->second.tenant, slo_us);
        if (expired) {
            ++sessions_expired;
            ++slice.sessions_expired;
        } else {
            ++sessions_closed;
            ++slice.sessions_closed;
        }
        sessions.erase(it);
    }

    /// Lazily retire sessions idle past the configured horizon (no
    /// queued or in-flight window). Runs at admission and after each
    /// wave; caller holds `mutex`.
    void expire_idle(const ServerOptions& options, Clock::time_point now) {
        if (options.session_idle_ms <= 0) return;
        const auto horizon = std::chrono::milliseconds(options.session_idle_ms);
        for (auto it = sessions.begin(); it != sessions.end();) {
            const auto next = std::next(it);
            if (it->second.pending == 0 && now - it->second.last_activity > horizon) {
                retire_session(it, /*expired=*/true, options.slo_us);
            }
            it = next;
        }
    }

    void enqueue(Queued q) {
        auto& lane = prio[static_cast<std::size_t>(q.request.priority)];
        const auto [it, fresh] = lane.per_tenant.try_emplace(q.request.tenant);
        if (fresh) lane.rotation.push_back(q.request.tenant);
        it->second.push_back(std::move(q));
        ++lane.size;
        ++queued;
    }

    /// Form the next wave (up to max_batch) from the queues. The high
    /// lane preempts batch formation: a wave that contains
    /// high-priority work contains nothing else — a request's future
    /// resolves when its whole wave completes, so batching premium
    /// requests with lower-priority ones would make them wait on their
    /// own batchmates. When the high lane is empty, normal fills first
    /// and low tops the wave up. Within a lane, weighted round-robin
    /// over tenants (each tenant takes up to `weight` slots per
    /// visit); when the wave fills mid-quantum the cursor stays on
    /// that tenant, so the next wave resumes where this one was cut
    /// off.
    ///
    /// Streaming constraint: a wave carries at most ONE window per
    /// session — two in one wave would race the shared carried state
    /// and could retire out of order. A blocked session head also
    /// blocks the rest of its tenant's FIFO for this wave (windows of
    /// one session must run in admission order, and skipping past the
    /// head could overtake it). The first window of a session taken
    /// into an empty wave is never blocked, so formation always makes
    /// progress; a stall counter stops the rotation scan once every
    /// remaining tenant head is blocked.
    /// Deadline sweep (fault model): an expired request visited during
    /// formation is siphoned into `expired` instead of the wave — it
    /// never occupies a wave slot and never reaches a backend. Only
    /// stateless requests carry an expiry (see Queued::expiry).
    [[nodiscard]] std::vector<Queued> form_wave(const ServerOptions& options,
                                                Clock::time_point now,
                                                std::vector<Queued>& expired) {
        std::vector<Queued> wave;
        wave.reserve(std::min(options.max_batch, queued));
        std::set<std::string> wave_sessions;
        for (std::size_t p = 0; p < kPriorityLanes; ++p) {
            if (p == 1 && !wave.empty()) break;  // high preempts formation
            auto& lane = prio[p];
            std::size_t stalled = 0;  ///< consecutive tenants yielding nothing
            while (lane.size > 0 && wave.size() < options.max_batch &&
                   stalled < lane.rotation.size()) {
                const std::string tenant = lane.rotation[lane.cursor];
                auto& fifo = lane.per_tenant[tenant];
                const std::uint32_t quantum = weight_of(options, tenant);
                std::uint32_t took = 0;
                bool blocked = false;
                while (took < quantum && !fifo.empty() &&
                       wave.size() < options.max_batch) {
                    if (fifo.front().expiry <= now) {
                        expired.push_back(std::move(fifo.front()));
                        fifo.pop_front();
                        --lane.size;
                        --queued;
                        continue;
                    }
                    const Request& head = fifo.front().request;
                    if (!head.session.empty() &&
                        !wave_sessions.insert(head.session).second) {
                        blocked = true;
                        break;
                    }
                    wave.push_back(std::move(fifo.front()));
                    fifo.pop_front();
                    --lane.size;
                    --queued;
                    ++took;
                }
                if (fifo.empty()) {
                    lane.deactivate(tenant);
                    stalled = 0;
                } else if (blocked || took == quantum) {
                    lane.cursor = (lane.cursor + 1) % lane.rotation.size();
                    stalled = took == 0 ? stalled + 1 : 0;
                }
            }
        }
        return wave;
    }

    /// Under kReject with a full queue: make room for an incoming
    /// request by evicting a queued one of *strictly lower* priority —
    /// the low lane sheds first. The victim is the youngest *sheddable*
    /// request of the busiest sheddable tenant in the lowest-priority
    /// non-empty lane (deterministic given queue state; sheds from
    /// whoever is loading the queue hardest, and the youngest request
    /// loses the least invested waiting time). Session windows are
    /// never shed — dropping one mid-stream would desync the session's
    /// carried state — so a tenant queueing only session windows is
    /// passed over. nullopt when nothing sheddable outranks.
    [[nodiscard]] std::optional<Queued> try_evict(Priority incoming) {
        const auto sheddable = [](const Queued& q) {
            return q.request.session.empty();
        };
        for (std::size_t p = kPriorityLanes; p-- > 0;) {
            if (p <= static_cast<std::size_t>(incoming)) break;
            auto& lane = prio[p];
            if (lane.size == 0) continue;
            const std::string* busiest = nullptr;
            std::size_t longest = 0;
            for (const auto& [tenant, fifo] : lane.per_tenant) {
                if (std::any_of(fifo.begin(), fifo.end(), sheddable) &&
                    fifo.size() >= longest) {
                    longest = fifo.size();
                    busiest = &tenant;
                }
            }
            if (busiest == nullptr) continue;
            const std::string tenant = *busiest;
            auto& fifo = lane.per_tenant[tenant];
            for (auto it = fifo.rbegin(); it != fifo.rend(); ++it) {
                if (!sheddable(*it)) continue;
                Queued victim = std::move(*it);
                fifo.erase(std::next(it).base());
                --lane.size;
                --queued;
                if (fifo.empty()) lane.deactivate(tenant);
                return victim;
            }
        }
        return std::nullopt;
    }

    void merge_into(ServerStats& out) const {
        out.submitted += submitted;
        out.rejected += rejected;
        out.shed += shed;
        out.completed += completed;
        out.failed += failed;
        out.batches += batches;
        out.reloads += reloads;
        out.sessions_opened += sessions_opened;
        out.sessions_closed += sessions_closed;
        out.sessions_expired += sessions_expired;
        out.active_sessions += sessions.size();
        out.retried += retried;
        out.failed_over += failed_over;
        out.deadline_expired += deadline_expired;
        out.breaker_trips += breaker_trips;
        out.isolated_waves += isolated_waves;
        out.latency_us.merge(latency_us);
        for (const auto& [tenant, slice] : tenants) out.tenants[tenant].merge(slice);
    }
};

// ------------------------------------------------------------------ Server

Server::Server(ServerOptions options) : options_(std::move(options)) {
    if (options_.max_queue == 0) {
        throw std::invalid_argument("Server: max_queue must be >= 1");
    }
    if (options_.max_batch == 0) {
        throw std::invalid_argument("Server: max_batch must be >= 1");
    }
}

Server::Server(std::shared_ptr<Backend> backend, ServerOptions options)
    : Server(std::move(options)) {
    register_model(kDefaultModel, std::move(backend));
}

Server::~Server() { shutdown(); }

void Server::register_model(const std::string& name,
                            std::shared_ptr<Backend> backend) {
    if (name.empty()) {
        throw std::invalid_argument("Server::register_model: empty model name");
    }
    if (!backend) {
        throw std::invalid_argument("Server::register_model: null backend");
    }
    auto lane = std::make_shared<ModelLane>();
    lane->name = name;
    lane->backend = std::move(backend);
    lane->runner = std::make_unique<BatchRunner>(
        lane->backend,
        BatchOptions{.threads = options_.threads, .seed = options_.seed});

    const std::lock_guard<std::mutex> lock(registry_mutex_);
    if (stopping_) {
        throw std::runtime_error("Server::register_model: shutting down");
    }
    if (lanes_.count(name) != 0) {
        throw std::invalid_argument("Server::register_model: duplicate model '" +
                                    name + "'");
    }
    // Start the dispatcher while still holding the registry lock:
    // shutdown() also takes it first, so a lane is never visible in the
    // map with its dispatcher not yet joinable.
    lane->dispatcher = std::thread([this, lane] { lane_loop(*lane); });
    lanes_.emplace(name, std::move(lane));
}

void Server::reload_model(const std::string& name, std::shared_ptr<Backend> backend) {
    if (!backend) {
        throw std::invalid_argument("Server::reload_model: null backend");
    }
    std::shared_ptr<ModelLane> lane;
    {
        const std::lock_guard<std::mutex> lock(registry_mutex_);
        const auto it = lanes_.find(name);
        if (it == lanes_.end()) {
            throw std::invalid_argument("Server::reload_model: unknown model '" +
                                        name + "'");
        }
        lane = it->second;
    }
    // Build the replacement runner before quiescing so its pool spin-up
    // is off the pause window.
    auto runner = std::make_unique<BatchRunner>(
        backend, BatchOptions{.threads = options_.threads, .seed = options_.seed});
    {
        std::unique_lock<std::mutex> lock(lane->mutex);
        lane->paused = true;
        lane->idle_cv.wait(lock, [&] { return lane->in_flight == 0; });
        lane->backend = std::move(backend);
        lane->runner = std::move(runner);
        ++lane->reloads;
        lane->paused = false;
    }
    lane->work_cv.notify_all();
}

void Server::set_fallback(const std::string& name, std::shared_ptr<Backend> backend) {
    std::shared_ptr<ModelLane> lane;
    {
        const std::lock_guard<std::mutex> lock(registry_mutex_);
        const auto it = lanes_.find(name);
        if (it == lanes_.end()) {
            throw std::invalid_argument("Server::set_fallback: unknown model '" +
                                        name + "'");
        }
        lane = it->second;
    }
    std::unique_ptr<BatchRunner> runner;
    if (backend) {
        runner = std::make_unique<BatchRunner>(
            backend,
            BatchOptions{.threads = options_.threads, .seed = options_.seed});
    }
    // Same quiesce protocol as reload: the dispatcher uses the fallback
    // runner unlocked while a wave is in flight, so swap only at
    // in_flight == 0.
    {
        std::unique_lock<std::mutex> lock(lane->mutex);
        lane->paused = true;
        lane->idle_cv.wait(lock, [&] { return lane->in_flight == 0; });
        lane->fallback = std::move(backend);
        lane->fallback_runner = std::move(runner);
        lane->paused = false;
    }
    lane->work_cv.notify_all();
}

LaneStats Server::lane_stats(const std::string& model) const {
    const std::shared_ptr<ModelLane> lane = route(model);
    if (!lane) {
        throw std::invalid_argument("Server::lane_stats: unknown model '" + model +
                                    "'");
    }
    const std::lock_guard<std::mutex> lock(lane->mutex);
    LaneStats out;
    out.breaker = lane->breaker;
    out.has_fallback = lane->fallback_runner != nullptr;
    out.breaker_trips = lane->breaker_trips;
    out.probes = lane->probes;
    out.failovers = lane->failed_over;
    out.retries = lane->retried;
    out.isolated_waves = lane->isolated_waves;
    out.deadline_expired = lane->deadline_expired;
    return out;
}

void Server::unregister_model(const std::string& name) {
    std::shared_ptr<ModelLane> lane;
    {
        const std::lock_guard<std::mutex> lock(registry_mutex_);
        const auto it = lanes_.find(name);
        if (it == lanes_.end()) {
            throw std::invalid_argument("Server::unregister_model: unknown model '" +
                                        name + "'");
        }
        lane = it->second;
        lanes_.erase(it);
    }
    stop_lane(*lane);  // drains the lane's queue through its backend
    const std::lock_guard<std::mutex> registry_lock(registry_mutex_);
    const std::lock_guard<std::mutex> lane_lock(lane->mutex);
    // Open sessions die with the lane; account them as closed so the
    // retired slice never reports them active.
    while (!lane->sessions.empty()) {
        lane->retire_session(lane->sessions.begin(), /*expired=*/false,
                             options_.slo_us);
    }
    lane->merge_into(retired_);
}

std::vector<std::string> Server::model_names() const {
    const std::lock_guard<std::mutex> lock(registry_mutex_);
    std::vector<std::string> names;
    names.reserve(lanes_.size());
    for (const auto& [name, lane] : lanes_) names.push_back(name);
    return names;
}

std::shared_ptr<Server::ModelLane> Server::route(const std::string& model) const {
    const std::lock_guard<std::mutex> lock(registry_mutex_);
    if (!model.empty()) {
        const auto it = lanes_.find(model);
        return it != lanes_.end() ? it->second : nullptr;
    }
    if (lanes_.size() == 1) return lanes_.begin()->second;
    const auto it = lanes_.find(kDefaultModel);
    return it != lanes_.end() ? it->second : nullptr;
}

std::optional<std::future<Response>> Server::try_submit(Request request) {
    ErrorCode why = ErrorCode::kOk;
    return try_submit(std::move(request), why);
}

std::optional<std::future<Response>> Server::try_submit(Request request,
                                                        ErrorCode& why) {
    why = ErrorCode::kOk;
    // Borrowed views (view_train / view_thermometer / view_poisson)
    // reference caller memory that can die the moment submit returns;
    // dispatch is asynchronous, so self-contain the request before it
    // is queued.
    request.own_views();
    const std::shared_ptr<ModelLane> lane = route(request.model);
    if (!lane) {
        const std::lock_guard<std::mutex> lock(registry_mutex_);
        ++unroutable_;
        why = stopping_ ? ErrorCode::kShuttingDown : ErrorCode::kUnknownModel;
        return std::nullopt;
    }

    // Session windows never carry a deadline: skipping one would desync
    // the stream's carried state (same reason they are never shed).
    const auto now = Clock::now();
    const auto expiry = (request.deadline_us > 0 && request.session.empty())
                            ? now + std::chrono::microseconds(request.deadline_us)
                            : Clock::time_point::max();

    std::optional<Queued> victim;
    std::future<Response> future;
    {
        std::unique_lock<std::mutex> lock(lane->mutex);
        if (options_.backpressure == BackpressurePolicy::kBlock) {
            const auto space = [&] {
                return lane->stopping || lane->queued < options_.max_queue;
            };
            if (expiry == Clock::time_point::max()) {
                lane->space_cv.wait(lock, space);
            } else if (!lane->space_cv.wait_until(lock, expiry, space)) {
                // Deadline elapsed while blocked on a full queue:
                // resolve deterministically instead of waiting forever.
                ++lane->rejected;
                ++lane->deadline_expired;
                ++lane->tenant_slot(request.tenant, options_.slo_us).rejected;
                std::promise<Response> promise;
                Response response;
                response.error_code = ErrorCode::kDeadlineExceeded;
                response.error =
                    "Server: deadline exceeded while waiting for queue space";
                promise.set_value(std::move(response));
                return promise.get_future();
            }
        }
        if (lane->stopping) {
            // Admission raced shutdown (or an unregister drain): a
            // deterministic kShuttingDown rejection, never a
            // blocked-forever future.
            ++lane->rejected;
            ++lane->tenant_slot(request.tenant, options_.slo_us).rejected;
            why = ErrorCode::kShuttingDown;
            return std::nullopt;
        }
        lane->expire_idle(options_, Clock::now());
        // A window of a known session inherits the session's routing
        // (tenant + priority): affinity keeps every window in one
        // tenant FIFO of one priority lane, which is what serializes
        // them in admission order.
        if (!request.session.empty()) {
            const auto sit = lane->sessions.find(request.session);
            if (sit != lane->sessions.end()) {
                request.tenant = sit->second.tenant;
                request.priority = sit->second.priority;
            }
        }
        if (lane->queued >= options_.max_queue) {
            victim = lane->try_evict(request.priority);
            if (!victim) {
                ++lane->rejected;
                ++lane->tenant_slot(request.tenant, options_.slo_us).rejected;
                why = ErrorCode::kQueueFull;
                return std::nullopt;
            }
            ++lane->shed;
            ++lane->tenant_slot(victim->request.tenant, options_.slo_us).shed;
        }
        // Pin the RNG stream to the lane's admission sequence (unless
        // the caller pinned one already): wave formation, priorities,
        // and tenant interleaving are scheduling artifacts and must
        // never influence stochastic encodings.
        if (!request.rng_stream) request.rng_stream = lane->next_stream;
        ++lane->next_stream;
        ++lane->submitted;
        ++lane->tenant_slot(request.tenant, options_.slo_us).submitted;
        // Open or extend the streaming session now that admission is
        // certain: attach the shared carried state, stamp the window's
        // sequence number, and record the pending window.
        if (!request.session.empty()) {
            const auto [sit, fresh] = lane->sessions.try_emplace(request.session);
            SessionEntry& entry = sit->second;
            if (fresh) {
                entry.state = std::make_shared<snn::SessionState>();
                entry.tenant = request.tenant;
                entry.priority = request.priority;
                ++lane->sessions_opened;
                ++lane->tenant_slot(entry.tenant, options_.slo_us).sessions_opened;
            }
            request.window_seq = entry.next_seq++;
            request.session_state = entry.state;
            ++entry.pending;
            if (request.close_session) entry.close_after_pending = true;
            entry.last_activity = Clock::now();
        }
        Queued pending{std::move(request), std::promise<Response>{}, Clock::now(),
                       expiry};
        future = pending.promise.get_future();
        lane->enqueue(std::move(pending));
    }
    lane->work_cv.notify_one();
    // Resolve the shed victim outside the lane lock (its waiter may
    // immediately re-enter the server).
    if (victim) {
        victim->promise.set_exception(std::make_exception_ptr(std::runtime_error(
            "Server: request shed (displaced by a higher-priority request)")));
    }
    return future;
}

std::future<Response> Server::submit(Request request) {
    ErrorCode why = ErrorCode::kOk;
    auto future = try_submit(std::move(request), why);
    if (!future) {
        // Deterministic, code-tagged refusal: callers racing shutdown
        // can distinguish kShuttingDown from kQueueFull/kUnknownModel.
        throw std::runtime_error(std::string("Server::submit: rejected (") +
                                 to_string(why) + ")");
    }
    return std::move(*future);
}

bool Server::close_session(const std::string& session, const std::string& model) {
    const std::shared_ptr<ModelLane> lane = route(model);
    if (!lane) return false;
    const std::lock_guard<std::mutex> lock(lane->mutex);
    const auto it = lane->sessions.find(session);
    if (it == lane->sessions.end()) return false;
    if (it->second.pending > 0) {
        // Windows are queued or in flight: let them resolve (each sees
        // the state its predecessors left), then retire at the wave
        // boundary that drains the last one.
        it->second.close_after_pending = true;
    } else {
        lane->retire_session(it, /*expired=*/false, options_.slo_us);
    }
    return true;
}

std::size_t Server::session_count() const {
    std::vector<std::shared_ptr<ModelLane>> lanes;
    {
        const std::lock_guard<std::mutex> lock(registry_mutex_);
        for (const auto& [name, lane] : lanes_) lanes.push_back(lane);
    }
    std::size_t count = 0;
    for (const auto& lane : lanes) {
        const std::lock_guard<std::mutex> lock(lane->mutex);
        count += lane->sessions.size();
    }
    return count;
}

std::size_t Server::session_count(const std::string& model) const {
    const std::shared_ptr<ModelLane> lane = route(model);
    if (!lane) return 0;
    const std::lock_guard<std::mutex> lock(lane->mutex);
    return lane->sessions.size();
}

void Server::shutdown() {
    std::vector<std::shared_ptr<ModelLane>> lanes;
    {
        const std::lock_guard<std::mutex> lock(registry_mutex_);
        stopping_ = true;
        lanes.reserve(lanes_.size());
        for (const auto& [name, lane] : lanes_) lanes.push_back(lane);
    }
    for (const auto& lane : lanes) stop_lane(*lane);
}

void Server::stop_lane(ModelLane& lane) {
    {
        const std::lock_guard<std::mutex> lock(lane.mutex);
        lane.stopping = true;
    }
    lane.work_cv.notify_all();
    lane.space_cv.notify_all();
    std::call_once(lane.join_once, [&] {
        if (lane.dispatcher.joinable()) lane.dispatcher.join();
    });
}

bool Server::stopping() const {
    const std::lock_guard<std::mutex> lock(registry_mutex_);
    return stopping_;
}

std::size_t Server::queue_depth() const {
    std::vector<std::shared_ptr<ModelLane>> lanes;
    {
        const std::lock_guard<std::mutex> lock(registry_mutex_);
        for (const auto& [name, lane] : lanes_) lanes.push_back(lane);
    }
    std::size_t depth = 0;
    for (const auto& lane : lanes) {
        const std::lock_guard<std::mutex> lock(lane->mutex);
        depth += lane->queued;
    }
    return depth;
}

std::size_t Server::queue_depth(const std::string& model) const {
    const std::shared_ptr<ModelLane> lane = route(model);
    if (!lane) return 0;
    const std::lock_guard<std::mutex> lock(lane->mutex);
    return lane->queued;
}

ServerStats Server::stats() const {
    std::vector<std::shared_ptr<ModelLane>> lanes;
    ServerStats out;
    {
        const std::lock_guard<std::mutex> lock(registry_mutex_);
        for (const auto& [name, lane] : lanes_) lanes.push_back(lane);
        out = retired_;
        out.rejected += unroutable_;
    }
    for (const auto& lane : lanes) {
        const std::lock_guard<std::mutex> lock(lane->mutex);
        lane->merge_into(out);
    }
    return out;
}

Backend& Server::backend() {
    const std::lock_guard<std::mutex> lock(registry_mutex_);
    if (lanes_.size() != 1) {
        throw std::logic_error("Server::backend: not a single-model server");
    }
    return *lanes_.begin()->second->backend;
}

void Server::lane_loop(ModelLane& lane) {
    /// How a wave is routed by the lane's breaker state.
    enum class Route : std::uint8_t {
        kPrimary,   ///< closed: primary backend, failures feed the breaker
        kProbe,     ///< half-open: primary as a probe
        kFallback,  ///< open with a fallback: whole wave on the fallback
        kFailFast,  ///< open, no fallback: resolve kCircuitOpen, run nothing
    };
    const FaultOptions& fault = options_.fault;

    std::unique_lock<std::mutex> lock(lane.mutex);
    for (;;) {
        lane.work_cv.wait(lock, [&] {
            return !lane.paused && (lane.stopping || lane.queued > 0);
        });
        if (lane.queued == 0) return;  // stopping, fully drained

        // Continuous batching: the wave forms from whatever accumulated
        // while the previous wave executed — the in-flight wave is the
        // batching window. A lone request on an idle lane dispatches
        // immediately; under load, wave size adapts to the backlog.
        const auto formed_at = Clock::now();
        std::vector<Queued> expired;
        std::vector<Queued> wave = lane.form_wave(options_, formed_at, expired);
        for (const Queued& q : expired) {
            ++lane.failed;
            ++lane.deadline_expired;
            ++lane.tenant_slot(q.request.tenant, options_.slo_us).failed;
        }
        const auto resolve_expired = [&expired] {
            for (Queued& q : expired) {
                Response response;
                response.error_code = ErrorCode::kDeadlineExceeded;
                response.error = "Server: deadline exceeded before dispatch";
                q.promise.set_value(std::move(response));
            }
            expired.clear();
        };
        if (wave.empty()) {  // everything visited had expired
            lock.unlock();
            lane.space_cv.notify_all();
            resolve_expired();
            lock.lock();
            continue;
        }
        ++lane.batches;
        lane.in_flight = wave.size();

        // Breaker routing, decided under the lock. The cooldown
        // transition (open -> half-open) also happens here: the next
        // wave after the cooldown probes the primary.
        if (lane.breaker == BreakerState::kOpen &&
            formed_at - lane.breaker_opened >=
                std::chrono::milliseconds(fault.breaker_cooldown_ms)) {
            lane.breaker = BreakerState::kHalfOpen;
            lane.probe_successes = 0;
            util::log_info("Server: lane '", lane.name,
                           "': breaker half-open, probing primary");
        }
        Route route = Route::kPrimary;
        if (lane.breaker == BreakerState::kOpen) {
            route = lane.fallback_runner ? Route::kFallback : Route::kFailFast;
        } else if (lane.breaker == BreakerState::kHalfOpen) {
            route = Route::kProbe;
            ++lane.probes;
        }
        // Stable across the unlocked region: reload_model/set_fallback
        // only swap runners after waiting for in_flight == 0.
        BatchRunner& runner = *lane.runner;
        BatchRunner* fallback = lane.fallback_runner.get();
        lock.unlock();
        lane.space_cv.notify_all();
        resolve_expired();

        std::vector<Request> requests;
        requests.reserve(wave.size());
        for (auto& q : wave) requests.push_back(std::move(q.request));
        std::vector<Clock::time_point> expiries;
        expiries.reserve(wave.size());
        for (const auto& q : wave) expiries.push_back(q.expiry);

        WaveExecResult res;
        switch (route) {
            case Route::kPrimary:
            case Route::kProbe:
                res = WaveExecutor(runner, fallback, lane.name, fault, requests,
                                   expiries)
                          .run();
                break;
            case Route::kFallback: {
                // Open breaker: the whole wave degrades to the fallback
                // backend (same logits contract); nothing feeds the
                // primary's breaker stats while it cools down.
                res = WaveExecutor(*fallback, nullptr, lane.name, fault, requests,
                                   expiries)
                          .run();
                res.primary_failed.assign(requests.size(), 0);
                for (Response& r : res.responses) {
                    if (r.ok()) {
                        r.failed_over = true;
                        ++res.failovers;
                    }
                }
                break;
            }
            case Route::kFailFast: {
                res.responses.resize(requests.size());
                res.primary_failed.assign(requests.size(), 0);
                for (std::size_t i = 0; i < requests.size(); ++i) {
                    Response& r = res.responses[i];
                    r.session = requests[i].session;
                    r.window_seq = requests[i].window_seq;
                    r.error_code = ErrorCode::kCircuitOpen;
                    r.error = "Server: lane '" + lane.name +
                              "' circuit breaker open, no fallback registered";
                }
                break;
            }
        }
        const auto now = Clock::now();

        lock.lock();
        lane.in_flight = 0;
        for (std::size_t i = 0; i < wave.size(); ++i) {
            Response& r = res.responses[i];
            if (r.ok() && now >= wave[i].expiry) {
                // Completed, but past its deadline: the caller has
                // given up, so resolve with the deadline error instead
                // of delivering a late result.
                Response late;
                late.session = std::move(r.session);
                late.window_seq = r.window_seq;
                late.retries = r.retries;
                late.failed_over = r.failed_over;
                late.error_code = ErrorCode::kDeadlineExceeded;
                late.error = "Server: deadline exceeded before completion";
                r = std::move(late);
            }
            TenantStats& slice = lane.tenant_slot(requests[i].tenant, options_.slo_us);
            if (!r.ok()) {
                ++lane.failed;
                ++slice.failed;
                if (r.error_code == ErrorCode::kDeadlineExceeded) {
                    ++lane.deadline_expired;
                }
            } else {
                ++lane.completed;
                ++slice.completed;
                const double us =
                    std::chrono::duration<double, std::micro>(now - wave[i].enqueued)
                        .count();
                lane.latency_us.add(us);
                slice.latency_us.add(us);
                slice.slo.add(us);
            }
        }
        lane.retried += res.retried;
        lane.failed_over += res.failovers;
        if (res.bisected) ++lane.isolated_waves;

        // Breaker bookkeeping from the wave's primary outcomes.
        if (route == Route::kPrimary) {
            for (std::size_t i = 0; i < wave.size(); ++i) {
                const bool failed = res.primary_failed[i] != 0;
                lane.outcome_window.push_back(failed);
                if (failed) ++lane.window_failures;
                if (lane.outcome_window.size() > fault.breaker_window) {
                    if (lane.outcome_window.front()) --lane.window_failures;
                    lane.outcome_window.pop_front();
                }
                lane.consecutive_failures =
                    failed ? lane.consecutive_failures + 1 : 0;
            }
            const bool consecutive_trip =
                fault.breaker_failures > 0 &&
                lane.consecutive_failures >= fault.breaker_failures;
            const bool rate_trip =
                fault.breaker_window > 0 &&
                lane.outcome_window.size() >= fault.breaker_window &&
                static_cast<double>(lane.window_failures) >=
                    fault.breaker_failure_rate *
                        static_cast<double>(lane.outcome_window.size());
            if (consecutive_trip || rate_trip) {
                lane.breaker = BreakerState::kOpen;
                lane.breaker_opened = now;
                ++lane.breaker_trips;
                lane.consecutive_failures = 0;
                lane.outcome_window.clear();
                lane.window_failures = 0;
                util::log_warn("Server: lane '", lane.name,
                               "': circuit breaker tripped (",
                               lane.fallback_runner
                                   ? "failing over to fallback"
                                   : "no fallback registered, failing fast",
                               ")");
            }
        } else if (route == Route::kProbe) {
            const bool any_failed =
                std::any_of(res.primary_failed.begin(), res.primary_failed.end(),
                            [](std::uint8_t f) { return f != 0; });
            if (any_failed) {
                lane.breaker = BreakerState::kOpen;  // probe failed: re-open
                lane.breaker_opened = now;
            } else if (++lane.probe_successes >= fault.breaker_probes) {
                lane.breaker = BreakerState::kClosed;
                lane.consecutive_failures = 0;
                lane.outcome_window.clear();
                lane.window_failures = 0;
                util::log_info("Server: lane '", lane.name,
                               "': circuit breaker closed (primary recovered)");
            }
        }

        // Session bookkeeping for the retired wave: a resolved window
        // (completed OR failed — either way it will never run again)
        // stops pending on its session; deferred closes fire once the
        // last pending window is gone.
        for (const Request& request : requests) {
            if (request.session.empty()) continue;
            const auto sit = lane.sessions.find(request.session);
            if (sit == lane.sessions.end()) continue;
            SessionEntry& entry = sit->second;
            if (entry.pending > 0) --entry.pending;
            entry.last_activity = now;
            if (entry.pending == 0 && entry.close_after_pending) {
                lane.retire_session(sit, /*expired=*/false, options_.slo_us);
            }
        }
        lane.expire_idle(options_, now);
        lock.unlock();
        lane.idle_cv.notify_all();

        // Resolve futures outside the lock: promise continuations must
        // not observe a held lane mutex. Failures resolve with a value
        // carrying a structured error — never a dropped exception.
        for (std::size_t i = 0; i < wave.size(); ++i) {
            wave[i].promise.set_value(std::move(res.responses[i]));
        }
        lock.lock();
    }
}

}  // namespace sia::core
