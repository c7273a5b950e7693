#include "snn/engine.hpp"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <utility>

#include "snn/compute.hpp"

namespace sia::snn {

namespace {

/// Ranges per participant in each phase of a split layer-step. More
/// ranges than participants: the team's shared cursor then balances
/// uneven ranges, and a helper that falls behind (preempted mid-range)
/// holds up only a small share of the step.
constexpr std::int64_t kRangesPerParticipant = 4;

/// Fewest input sites one index-filling range takes: every range visits
/// each channel's packed words over its sites, so thinner ranges repeat
/// that per-channel cost without dividing much spike work.
constexpr std::int64_t kMinIndexSites = 16;

/// The fused kernels' arguments for layer `layer`'s whole fire stage:
/// CHW fire banks, the per-channel coefficient arrays, and the residual
/// source (`skip_spikes`, null without a skip).
compute::FireArgs fire_args(const SnnLayer& layer, LayerState& st,
                            const SpikeMap* skip_spikes) {
    compute::FireArgs args;
    args.psum = st.psum.data();
    args.gain = st.gain.data();
    args.bias = st.bias.data();
    args.channel_gain = layer.main.gain.data();
    args.channel_bias = layer.main.bias.data();
    args.plane = st.plane;
    args.gain_shift = layer.main.gain_shift;
    if (layer.has_skip() && !layer.skip_is_identity) {
        args.skip_psum = st.skip_psum.data();
        args.skip_gain = st.skip_gain.data();
        args.skip_bias = st.skip_bias.data();
        args.skip_channel_gain = layer.skip.gain.data();
        args.skip_channel_bias = layer.skip.bias.data();
        args.skip_gain_shift = layer.skip.gain_shift;
    } else if (layer.has_skip()) {
        // Identity skip: same CHW geometry as the output, so the packed
        // source words align bit-for-bit with the fire blocks.
        args.skip_words = skip_spikes->raw().data();
        args.identity_charge = layer.identity_skip.charge;
    }
    args.membrane = st.membrane.data();
    args.threshold = layer.threshold;
    args.reset = layer.reset;
    args.leak_shift = layer.leak_shift;
    args.neurons = st.neurons;
    return args;
}

std::int64_t fire(const SnnLayer& layer, const compute::FireArgs& args,
                  std::uint64_t* words) {
    return layer.neuron == NeuronKind::kLif ? compute::aggregate_fire_lif(args, words)
                                            : compute::aggregate_fire_dense(args, words);
}

}  // namespace

bool tiling_possible(const SnnModel& model) noexcept {
    return std::any_of(model.layers.begin(), model.layers.end(), [&](const SnnLayer& l) {
        const std::int64_t sites =
            l.input == -1 ? model.input_channels * model.input_h * model.input_w
                          : model.layers[static_cast<std::size_t>(l.input)].neurons();
        return l.op == LayerOp::kConv && l.spiking &&
               sites * l.main.kernel * l.main.kernel * l.out_channels >= kTileMinWork;
    });
}

std::size_t argmax_first(std::span<const std::int64_t> logits) noexcept {
    std::size_t best = 0;
    for (std::size_t j = 1; j < logits.size(); ++j) {
        // Strict > : an equal later logit never displaces the earlier
        // one, so ties resolve to the first (lowest) index.
        if (logits[j] > logits[best]) best = j;
    }
    return best;
}

std::int64_t RunResult::predicted_class(std::int64_t t) const {
    return static_cast<std::int64_t>(
        argmax_first(logits_per_step.at(static_cast<std::size_t>(t))));
}

FunctionalEngine::FunctionalEngine(const SnnModel& model, EngineConfig config)
    : FunctionalEngine(model, config, compute::event_weights(model)) {}

FunctionalEngine::FunctionalEngine(const SnnModel& model, EngineConfig config,
                                   std::shared_ptr<const compute::WeightImage> weights)
    : model_(model), config_(config), weights_(std::move(weights)) {
    model_.validate();
    if (!weights_ || !weights_->fits(model_)) {
        throw std::invalid_argument("FunctionalEngine: weight image does not fit the model");
    }
    const std::size_t n = model_.layers.size();
    state_.resize(n);
    spikes_.resize(n);
    spike_counts_.assign(n, 0);
    dispatch_.assign(n, LayerDispatchStats{});

    for (std::size_t i = 0; i < n; ++i) {
        const SnnLayer& layer = model_.layers[i];
        state_[i].init(layer);
        spikes_[i] = SpikeMap(layer.out_channels, layer.out_h, layer.out_w);
    }
    readout_.assign(static_cast<std::size_t>(model_.classes), 0);
    reset();
}

void FunctionalEngine::reset() {
    for (std::size_t i = 0; i < model_.layers.size(); ++i) {
        const SnnLayer& layer = model_.layers[i];
        state_[i].reset_membrane(layer.spiking ? layer.initial_potential
                                               : std::int16_t{0});
        spikes_[i].clear();
    }
    std::fill(readout_.begin(), readout_.end(), std::int64_t{0});
    reset_stats();
}

void FunctionalEngine::reset_stats() {
    std::fill(spike_counts_.begin(), spike_counts_.end(), std::int64_t{0});
    std::fill(dispatch_.begin(), dispatch_.end(), LayerDispatchStats{});
}

void FunctionalEngine::save_session(SessionState& session) const {
    session.membranes.resize(model_.layers.size());
    for (std::size_t i = 0; i < model_.layers.size(); ++i) {
        if (!model_.layers[i].spiking) {
            session.membranes[i].clear();
            continue;
        }
        const LayerState& st = state_[i];
        session.membranes[i].assign(st.membrane.data(),
                                    st.membrane.data() + st.neurons);
    }
    session.readout = readout_;
    session.initialized = true;
}

void FunctionalEngine::restore_session(const SessionState& session) {
    if (!session.initialized) {
        reset();
        return;
    }
    check_session(model_, session, "FunctionalEngine::run_window");
    for (std::size_t i = 0; i < model_.layers.size(); ++i) {
        if (!model_.layers[i].spiking) continue;
        const auto& mem = session.membranes[i];
        std::copy(mem.begin(), mem.end(), state_[i].membrane.data());
        // Spike maps never carry across a step boundary; clear so the
        // restored engine starts the window from a clean slate.
        spikes_[i].clear();
    }
    std::copy(session.readout.begin(), session.readout.end(), readout_.begin());
    reset_stats();
}

const SpikeMap& FunctionalEngine::source_spikes(int src, const SpikeMap& net_input) const {
    return src == -1 ? net_input : spikes_.at(static_cast<std::size_t>(src));
}

void FunctionalEngine::step(const SpikeMap& input) {
    if (input.channels() != model_.input_channels || input.height() != model_.input_h ||
        input.width() != model_.input_w) {
        throw std::invalid_argument("FunctionalEngine::step: input geometry mismatch");
    }
    // Layers read only earlier layers' spikes of this step (input and
    // skip_src < index), so index order is a valid schedule.
    for (std::size_t i = 0; i < model_.layers.size(); ++i) step_layer(i, input);
}

bool FunctionalEngine::splits(const SnnLayer& layer, const SpikeMap& input) const noexcept {
    // The scalar fire path stays the serial reference loop.
    return team_ != nullptr && layer.op == LayerOp::kConv && layer.spiking &&
           config_.fire == FirePath::kVector &&
           input.count() * layer.main.kernel * layer.main.kernel * layer.out_channels >=
               kTileMinWork;
}

void FunctionalEngine::step_layer(std::size_t index, const SpikeMap& net_input) {
    const SnnLayer& layer = model_.layers[index];
    LayerState& st = state_[index];
    const SpikeMap& input = source_spikes(layer.input, net_input);
    // skip_src may be -1 (network input) when the stem runs on the
    // processor-side front end and the first block skips from it.
    const SpikeMap* skip_spikes =
        layer.has_skip() ? &source_spikes(layer.skip_src, net_input) : nullptr;
    const bool conv_skip = layer.has_skip() && !layer.skip_is_identity;

    // Every phase below is a set of ranges that write disjoint memory. A
    // split step hands them to the lent team, several per participant;
    // otherwise max_ranges is 1 and each phase runs inline as one range
    // per branch, i.e. one kernel call over the whole layer.
    const bool split = splits(layer, input);
    const auto parts = split ? static_cast<std::int64_t>(team_->participants()) : 1;
    const std::int64_t max_ranges = split ? kRangesPerParticipant * parts : 1;
    const auto phase = [&](std::int64_t ranges, const auto& fn) {
        if (split) {
            team_->run(static_cast<std::size_t>(ranges), [&](std::size_t r, std::size_t) {
                fn(static_cast<std::int64_t>(r));
            });
        } else {
            for (std::int64_t r = 0; r < ranges; ++r) fn(r);
        }
    };

    // Psum stage.
    if (layer.op == LayerOp::kConv) {
        // Index the input: each range fills a run of input sites (main
        // input, then the conv skip's), so rows never overlap. A range
        // of fewer than kMinIndexSites sites would cost more in
        // per-channel word visits than it saves.
        const auto site_ranges = [&](compute::SpikeIndex& idx, const SpikeMap& map) {
            idx.reshape(map);
            return std::clamp<std::int64_t>(idx.sites() / kMinIndexSites, 1, max_ranges);
        };
        const std::int64_t main_sites = site_ranges(index_, input);
        const std::int64_t skip_sites =
            conv_skip ? site_ranges(skip_index_, *skip_spikes) : 0;
        phase(main_sites + skip_sites, [&](std::int64_t r) {
            const bool skip = r >= main_sites;
            const std::int64_t n = skip ? skip_sites : main_sites;
            if (skip) r -= main_sites;
            compute::SpikeIndex& idx = skip ? skip_index_ : index_;
            idx.fill(skip ? *skip_spikes : input, idx.sites() * r / n,
                     idx.sites() * (r + 1) / n);
        });

        // Event-kernel unit ranges, block-major, written straight into
        // the layer's HWC banks (a unit is stored by exactly one range).
        // With at least two channel blocks per participant, ranges take
        // whole blocks, so each block's weight slice streams through one
        // core; otherwise they split the units evenly.
        const std::int64_t blocks = compute::conv_event_blocks(layer.out_channels);
        const std::int64_t grain = blocks >= 2 * parts ? st.plane : 1;
        const std::int64_t grains = blocks * st.plane / grain;
        const std::int64_t unit_ranges = std::min(grains, max_ranges);
        phase(conv_skip ? 2 * unit_ranges : unit_ranges, [&](std::int64_t r) {
            const bool skip = r >= unit_ranges;
            if (skip) r -= unit_ranges;
            const std::int64_t u0 = grains * r / unit_ranges * grain;
            const std::int64_t u1 = grains * (r + 1) / unit_ranges * grain;
            if (skip) {
                compute::conv_psum_event(layer.skip, weights_->skip[index], skip_index_,
                                         layer.out_h, layer.out_w, u0, u1, st.skip_accum());
            } else {
                compute::conv_psum_event(layer.main, weights_->main[index], index_,
                                         layer.out_h, layer.out_w, u0, u1, st.accum());
            }
        });
    } else {
        compute::linear_psum_range(layer.main, weights_->main[index], input, 0,
                                   layer.main.out_features, st.accum());
    }
    LayerDispatchStats& d = dispatch_[index];
    ++d.scatter_steps;
    d.input_spikes += input.count();
    d.input_sites += input.size();

    // Fire stage.
    if (!layer.spiking) {
        // Readout layer: accumulate aggregated current into wide logits
        // (O(classes); never worth vectorizing).
        const std::int32_t* psum = st.accum_data();
        for (std::int64_t f = 0; f < layer.out_channels; ++f) {
            const std::int16_t m =
                compute::aggregate(psum[f], layer.main.gain[static_cast<std::size_t>(f)],
                                   layer.main.bias[static_cast<std::size_t>(f)],
                                   layer.main.gain_shift);
            readout_[static_cast<std::size_t>(f)] += m;
        }
        return;
    }
    SpikeMap& out = spikes_[index];
    if (config_.fire == FirePath::kScalar) {
        fire_scalar(index, skip_spikes);
        ++d.scalar_fire_steps;
    } else {
        // Output-channel ranges that start both on a packed spike word
        // and on one of the transpose's 8-channel blocks (multiples of 8
        // channels for planes of 64 or more, of 16 for 2x2, of 64 for
        // 1x1). Each range reorders its channels of the HWC accumulation
        // banks into the CHW fire banks (when the orders differ; else the
        // kernels accumulated in place), then fires, overwriting its
        // packed words; the ranges return their spike counts and the
        // map's count is set once here.
        const compute::FireArgs args = fire_args(layer, st, skip_spikes);
        const std::int64_t step =
            std::max<std::int64_t>(8, simd::kBlock / std::gcd(st.plane, simd::kBlock));
        const std::int64_t groups = (st.channels + step - 1) / step;
        const std::int64_t ranges = std::min(groups, max_ranges);
        std::uint64_t* words = out.words();
        std::atomic<std::int64_t> fired{0};
        phase(ranges, [&](std::int64_t r) {
            const std::int64_t c0 = std::min(st.channels, groups * r / ranges * step);
            const std::int64_t c1 = std::min(st.channels, groups * (r + 1) / ranges * step);
            if (st.interleaved) {
                compute::transpose_hwc_to_chw(st.psum_hwc.data(), st.psum.data(), st.channels,
                                              st.plane, c0, c1);
                if (conv_skip) {
                    compute::transpose_hwc_to_chw(st.skip_psum_hwc.data(), st.skip_psum.data(),
                                                  st.channels, st.plane, c0, c1);
                }
            }
            fired.fetch_add(fire(layer, args.channel_slice(c0, c1),
                                 words + c0 * st.plane / simd::kBlock),
                            std::memory_order_relaxed);
        });
        out.set_count(fired.load(std::memory_order_relaxed));
        ++d.vector_fire_steps;
    }
    spike_counts_[index] += out.count();
}

void FunctionalEngine::fire_scalar(std::size_t index, const SpikeMap* skip_spikes) {
    const SnnLayer& layer = model_.layers[index];
    LayerState& st = state_[index];
    // The accumulation bank is HWC when interleaved; when the orders
    // coincide (oc == 1 or 1x1 spatial) the two index formulas agree,
    // so hwc-indexing it is correct in every case.
    const std::int32_t* psum = st.accum_data();
    const std::int32_t* skip_psum =
        layer.has_skip() && !layer.skip_is_identity ? st.skip_accum_data() : nullptr;
    std::int16_t* mem = st.membrane.data();
    SpikeMap& out = spikes_[index];
    out.clear();

    const std::int64_t oc = layer.out_channels;
    const std::int64_t oh = layer.out_h;
    const std::int64_t ow = layer.out_w;
    for (std::int64_t y = 0; y < oh; ++y) {
        for (std::int64_t x = 0; x < ow; ++x) {
            for (std::int64_t o = 0; o < oc; ++o) {
                const std::size_t hwc = static_cast<std::size_t>((y * ow + x) * oc + o);
                const std::size_t chw = static_cast<std::size_t>((o * oh + y) * ow + x);
                std::int16_t m = compute::aggregate(
                    psum[hwc], layer.main.gain[static_cast<std::size_t>(o)],
                    layer.main.bias[static_cast<std::size_t>(o)], layer.main.gain_shift);
                if (skip_psum != nullptr) {
                    const std::int16_t ms = compute::aggregate(
                        skip_psum[hwc], layer.skip.gain[static_cast<std::size_t>(o)],
                        layer.skip.bias[static_cast<std::size_t>(o)],
                        layer.skip.gain_shift);
                    m = util::sat_add16(m, ms);
                } else if (skip_spikes != nullptr) {
                    if (skip_spikes->get(o, y, x)) {
                        m = util::sat_add16(m, layer.identity_skip.charge);
                    }
                }
                bool spike = false;
                mem[chw] = compute::update_neuron(mem[chw], m, layer, spike);
                if (spike) out.set(o, y, x, true);
            }
        }
    }
}

RunResult FunctionalEngine::run(const SpikeTrain& input, const ExitCriterion& exit) {
    reset();
    return integrate(input, exit);
}

RunResult FunctionalEngine::run_window(const SpikeTrain& input, SessionState& session,
                                       const ExitCriterion& exit) {
    restore_session(session);  // zeroes per-run counters: stats are per-window
    RunResult res = integrate(input, exit);
    // Saving at the exit step keeps the session exactly consistent:
    // the state is what a stream offering only res.timesteps frames
    // would have produced.
    save_session(session);
    session.steps += res.timesteps;
    ++session.windows;
    return res;
}

RunResult FunctionalEngine::integrate(const SpikeTrain& input, const ExitCriterion& exit) {
    // A zero-frame train has no prediction to report (sim::Sia's
    // admission rejects it the same way); no session state is written.
    if (input.empty()) throw std::invalid_argument("FunctionalEngine: empty input train");
    RunResult res;
    res.steps_offered = static_cast<std::int64_t>(input.size());
    if (config_.record_readout_history) res.logits_per_step.reserve(input.size());
    // The evaluator's baseline is the readout carried in at window
    // entry, so session windows exit on their own delta (zeros after a
    // reset(), which makes the stateless case the absolute readout).
    std::optional<ExitEvaluator> eval;
    if (exit.enabled()) {
        eval.emplace(exit, readout_);
    } else {
        exit.validate();
    }
    std::int64_t steps = 0;
    for (const SpikeMap& frame : input) {
        step(frame);
        ++steps;
        if (config_.record_readout_history) res.logits_per_step.push_back(readout_);
        if (eval) {
            const ExitReason reason = eval->observe(readout_, steps);
            if (reason != ExitReason::kNone) {
                res.exit_reason = reason;
                break;  // the item drops out of the hot loop
            }
        }
    }
    res.timesteps = steps;
    res.readout = readout_;
    res.spike_counts = spike_counts_;
    res.layer_dispatch = dispatch_;
    res.neuron_counts.reserve(model_.layers.size());
    for (const SnnLayer& layer : model_.layers) res.neuron_counts.push_back(layer.neurons());
    return res;
}

TeamLoan::TeamLoan(FunctionalEngine& engine, TileTeam* team) noexcept : engine_(engine) {
    if (team != nullptr && engine.team_ == nullptr && team->try_claim()) {
        team_ = team;
        engine.team_ = team;
    }
}

TeamLoan::~TeamLoan() {
    if (team_ == nullptr) return;
    engine_.team_ = nullptr;
    team_->release();
}

RunResult run_snn(const SnnModel& model, const SpikeTrain& input, EngineConfig config) {
    FunctionalEngine engine(model, config);
    return engine.run(input);
}

}  // namespace sia::snn
