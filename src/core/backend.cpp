#include "core/backend.hpp"

#include <stdexcept>
#include <utility>

#include "core/compiler.hpp"
#include "snn/encoding.hpp"
#include "util/timer.hpp"

namespace sia::core {

const char* to_string(ErrorCode code) noexcept {
    switch (code) {
        case ErrorCode::kOk: return "kOk";
        case ErrorCode::kInvalidRequest: return "kInvalidRequest";
        case ErrorCode::kBackendError: return "kBackendError";
        case ErrorCode::kDeadlineExceeded: return "kDeadlineExceeded";
        case ErrorCode::kCircuitOpen: return "kCircuitOpen";
        case ErrorCode::kShuttingDown: return "kShuttingDown";
        case ErrorCode::kQueueFull: return "kQueueFull";
        case ErrorCode::kUnknownModel: return "kUnknownModel";
    }
    return "?";
}

// ---------------------------------------------------------------- Request

Request Request::with(std::string model_name, std::string tenant_name,
                      Priority prio) && {
    model = std::move(model_name);
    tenant = std::move(tenant_name);
    priority = prio;
    return std::move(*this);
}

Request Request::with_session(std::string session_id, bool close) && {
    session = std::move(session_id);
    close_session = close;
    return std::move(*this);
}

Request Request::with_deadline(std::int64_t us) && {
    deadline_us = us;
    return std::move(*this);
}

Request Request::with_early_exit(snn::ExitCriterion criterion) && {
    early_exit = criterion;
    return std::move(*this);
}

void Request::own_views() {
    if (train_view != nullptr) {
        train = *train_view;
        train_view = nullptr;
    }
    if (image_view != nullptr) {
        image = *image_view;
        image_view = nullptr;
    }
}

Request Request::from_train(snn::SpikeTrain t) {
    Request r;
    r.encoding = Encoding::kPreEncoded;
    r.train = std::move(t);
    return r;
}

Request Request::view_train(const snn::SpikeTrain& t) {
    Request r;
    r.encoding = Encoding::kPreEncoded;
    r.train_view = &t;
    return r;
}

Request Request::thermometer(tensor::Tensor img, std::int64_t timesteps) {
    Request r;
    r.encoding = Encoding::kThermometer;
    r.image = std::move(img);
    r.timesteps = timesteps;
    return r;
}

Request Request::view_thermometer(const tensor::Tensor& img, std::int64_t timesteps) {
    Request r;
    r.encoding = Encoding::kThermometer;
    r.image_view = &img;
    r.timesteps = timesteps;
    return r;
}

Request Request::poisson(tensor::Tensor img, std::int64_t timesteps) {
    Request r;
    r.encoding = Encoding::kPoisson;
    r.image = std::move(img);
    r.timesteps = timesteps;
    return r;
}

Request Request::view_poisson(const tensor::Tensor& img, std::int64_t timesteps) {
    Request r;
    r.encoding = Encoding::kPoisson;
    r.image_view = &img;
    r.timesteps = timesteps;
    return r;
}

// --------------------------------------------------------------- Response

std::int64_t Response::predicted_class(std::int64_t t) const {
    return static_cast<std::int64_t>(
        snn::argmax_first(logits_per_step.at(static_cast<std::size_t>(t))));
}

std::int64_t Response::predicted() const {
    return static_cast<std::int64_t>(snn::argmax_first(logits));
}

std::int64_t Response::total_cycles() const noexcept {
    std::int64_t total = 0;
    for (const auto& s : layer_stats) total += s.total();
    return total;
}

Response Response::from(snn::RunResult r) {
    Response resp;
    resp.logits_per_step = std::move(r.logits_per_step);
    resp.logits = std::move(r.readout);
    resp.spike_counts = std::move(r.spike_counts);
    resp.neuron_counts = std::move(r.neuron_counts);
    resp.layer_dispatch = std::move(r.layer_dispatch);
    resp.timesteps = r.timesteps;
    resp.steps_used = r.timesteps;
    resp.steps_offered = r.steps_offered;
    resp.exit_reason = r.exit_reason;
    return resp;
}

Response Response::from(sim::SiaRunResult r) {
    Response resp = from(static_cast<snn::RunResult&&>(r));
    resp.layer_stats = std::move(r.layer_stats);
    return resp;
}

// ---------------------------------------------------------------- Backend

Backend::Backend(const snn::SnnModel& model) : model_(model) { model_.validate(); }

const snn::SpikeTrain& Backend::materialize(const Request& request, std::uint64_t seed,
                                            std::uint64_t stream,
                                            snn::SpikeTrain& scratch) {
    switch (request.encoding) {
        case Encoding::kPreEncoded:
            return request.pre_encoded();
        case Encoding::kThermometer:
            if (request.timesteps <= 0) {
                throw std::invalid_argument(
                    "core::Request: image encodings need timesteps > 0");
            }
            scratch = snn::encode_thermometer(request.raw_image(), request.timesteps);
            return scratch;
        case Encoding::kPoisson: {
            if (request.timesteps <= 0) {
                throw std::invalid_argument(
                    "core::Request: image encodings need timesteps > 0");
            }
            util::Rng rng(util::mix_seed(seed, stream));
            scratch = snn::encode_poisson(request.raw_image(), request.timesteps, rng);
            return scratch;
        }
    }
    throw std::invalid_argument("core::Request: unknown encoding");
}

std::vector<sim::BatchItem> Backend::materialize_batch(std::span<const Request> requests,
                                                       std::span<Response> responses,
                                                       std::size_t base, std::uint64_t seed,
                                                       std::vector<snn::SpikeTrain>& scratch) {
    scratch.resize(requests.size());
    std::vector<sim::BatchItem> items(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const Request& r = requests[i];
        items[i].frames = materialize(r, seed, r.rng_stream.value_or(base + i), scratch[i]);
        if (r.session_state) {
            items[i].session = &responses[i].staged_session.emplace(*r.session_state);
        }
        if (r.early_exit) items[i].exit = &*r.early_exit;
    }
    return items;
}

namespace {

/// Fill a finished response's request echo: session id, window sequence
/// and the staged session's step count.
void echo(const Request& request, Response& response) {
    response.session = request.session;
    response.window_seq = request.window_seq;
    if (response.staged_session) response.session_steps = response.staged_session->steps;
}

/// Hand a simulator batch's results back as the span's responses,
/// keeping the sessions materialize_batch staged on them.
void respond(std::vector<sim::SiaRunResult>&& results, std::span<const Request> requests,
             std::span<Response> responses) {
    for (std::size_t i = 0; i < results.size(); ++i) {
        Response r = Response::from(std::move(results[i]));
        r.staged_session = std::move(responses[i].staged_session);
        responses[i] = std::move(r);
        echo(requests[i], responses[i]);
    }
}

}  // namespace

// ------------------------------------------------------ FunctionalBackend

FunctionalBackend::FunctionalBackend(const snn::SnnModel& model,
                                     snn::EngineConfig config)
    : Backend(model), config_(config) {}

void FunctionalBackend::prepare(std::size_t workers) {
    if (engines_.size() < workers) engines_.resize(workers);
    if (!weights_) {
        const util::WallTimer timer;
        weights_ = snn::compute::event_weights(model());
        add_setup_nanos(static_cast<std::int64_t>(timer.millis() * 1e6));
    }
    const std::size_t helpers =
        workers > 1 && snn::tiling_possible(model()) ? workers - 1 : 0;
    if ((team_ ? team_->helpers() : 0) != helpers) {
        team_ = helpers > 0 ? std::make_unique<snn::TileTeam>(helpers) : nullptr;
    }
}

snn::FunctionalEngine& FunctionalBackend::engine(std::size_t worker) {
    auto& slot = engines_[worker];
    if (!slot) {
        const util::WallTimer timer;
        slot = std::make_unique<snn::FunctionalEngine>(model(), config_, weights_);
        add_setup_nanos(static_cast<std::int64_t>(timer.millis() * 1e6));
    }
    return *slot;
}

void FunctionalBackend::run_span(std::size_t worker,
                                 std::span<const Request> requests,
                                 std::span<Response> responses, std::size_t base,
                                 std::uint64_t seed) {
    spans_in_flight_.fetch_add(1, std::memory_order_relaxed);
    struct Leave {
        std::atomic<std::size_t>& spans;
        ~Leave() { spans.fetch_sub(1, std::memory_order_relaxed); }
    } const leave{spans_in_flight_};
    snn::SpikeTrain scratch;
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const Request& r = requests[i];
        const snn::SpikeTrain& train =
            materialize(r, seed, r.rng_stream.value_or(base + i), scratch);
        snn::FunctionalEngine& eng = engine(worker);
        // Only a lone span borrows the team: with company, the other
        // workers are busy and there are no idle cores to lend.
        const snn::TeamLoan loan(
            eng, spans_in_flight_.load(std::memory_order_relaxed) == 1 ? team_.get() : nullptr);
        const snn::ExitCriterion exit = r.early_exit.value_or(snn::ExitCriterion{});
        if (r.session_state) {
            snn::SessionState next = *r.session_state;
            responses[i] = Response::from(eng.run_window(train, next, exit));
            responses[i].staged_session = std::move(next);
        } else {
            responses[i] = Response::from(eng.run(train, exit));
        }
        echo(r, responses[i]);
    }
}

// ------------------------------------------------------------- SiaBackend

SiaBackend::SiaBackend(const snn::SnnModel& model, sim::SiaConfig config)
    : Backend(model), config_(config) {}

void SiaBackend::prepare(std::size_t workers) {
    if (sias_.size() < workers) sias_.resize(workers);
    if (!program_) {
        const util::WallTimer timer;
        program_ = SiaCompiler(config_).compile(model());
        weights_ = snn::compute::event_weights(model());
        add_setup_nanos(static_cast<std::int64_t>(timer.millis() * 1e6));
    }
}

std::size_t SiaBackend::preferred_span(std::size_t n,
                                       std::size_t workers) const noexcept {
    if (n == 0 || workers == 0) return 1;
    return (n + workers - 1) / workers;
}

sim::Sia& SiaBackend::resident(std::size_t worker) {
    auto& slot = sias_[worker];
    if (!slot) {
        const util::WallTimer timer;
        slot = std::make_unique<sim::Sia>(config_, model(), *program_, weights_);
        add_setup_nanos(static_cast<std::int64_t>(timer.millis() * 1e6));
    }
    return *slot;
}

void SiaBackend::run_span(std::size_t worker, std::span<const Request> requests,
                          std::span<Response> responses, std::size_t base,
                          std::uint64_t seed) {
    std::vector<snn::SpikeTrain> scratch;
    const auto items = materialize_batch(requests, responses, base, seed, scratch);
    sim::Sia& sia = resident(worker);
    respond(sia.run_batch(items), requests, responses);
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    batch_stats_ += sia.last_batch_stats();
}

sim::SiaBatchStats SiaBackend::take_sim_batch_stats() noexcept {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    return std::exchange(batch_stats_, {});
}

// ------------------------------------------------------ ShardedSiaBackend

ShardedSiaBackend::ShardedSiaBackend(const snn::SnnModel& model,
                                     sim::SiaConfig config,
                                     ShardOptions shard_options,
                                     sim::SiaClusterOptions cluster_options)
    : Backend(model), config_(config), shard_options_(shard_options),
      cluster_options_(cluster_options) {}

void ShardedSiaBackend::prepare(std::size_t workers) {
    (void)workers;  // the cluster drives its own pool
    if (!cluster_) {
        const util::WallTimer timer;
        cluster_ = std::make_unique<sim::SiaCluster>(
            config_, model(),
            SiaCompiler(config_).compile_sharded(model(), shard_options_),
            cluster_options_);
        add_setup_nanos(static_cast<std::int64_t>(timer.millis() * 1e6));
    }
}

std::size_t ShardedSiaBackend::preferred_span(
    std::size_t n, std::size_t workers) const noexcept {
    (void)workers;
    // The whole batch as one span: the cluster parallelizes internally
    // and must not be driven by two runner workers at once.
    return n > 0 ? n : 1;
}

void ShardedSiaBackend::run_span(std::size_t worker,
                                 std::span<const Request> requests,
                                 std::span<Response> responses, std::size_t base,
                                 std::uint64_t seed) {
    (void)worker;
    std::vector<snn::SpikeTrain> scratch;
    const auto items = materialize_batch(requests, responses, base, seed, scratch);
    respond(cluster_->run_batch(items), requests, responses);
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    shard_stats_ += cluster_->last_stats();
}

sim::ShardStats ShardedSiaBackend::take_shard_stats() noexcept {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    return std::exchange(shard_stats_, {});
}

}  // namespace sia::core
