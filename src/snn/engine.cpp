#include "snn/engine.hpp"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "snn/compute.hpp"

namespace sia::snn {

namespace {

/// Tiles per participant in each phase of a tiled layer-step. More tiles
/// than participants: the shared cursor then balances uneven tiles, and
/// a helper that falls behind (preempted mid-tile) holds up only a small
/// share of the step.
constexpr std::int64_t kTilesPerParticipant = 4;

/// Fewest input sites one index-building tile takes: every tile visits
/// each channel's packed words over its site range, so thinner ranges
/// repeat that per-channel cost without dividing much spike work.
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
    : model_(model), config_(config) {
    model_.validate();
    const std::size_t n = model_.layers.size();
    main_wt_.resize(n);
    skip_wt_.resize(n);
    state_.resize(n);
    spikes_.resize(n);
    spike_counts_.assign(n, 0);
    dispatch_.assign(n, LayerDispatchStats{});

    for (std::size_t i = 0; i < n; ++i) {
        const SnnLayer& layer = model_.layers[i];
        if (layer.op == LayerOp::kConv) {
            main_wt_[i] = compute::block_conv(layer.main);
            if (layer.has_skip() && !layer.skip_is_identity) {
                skip_wt_[i] = compute::block_conv(layer.skip);
            }
        } else {
            main_wt_[i] = compute::transpose_linear(layer.main);
        }
        state_[i].init(layer);
        spikes_[i] = SpikeMap(layer.out_channels, layer.out_h, layer.out_w);
    }
    readout_.assign(static_cast<std::size_t>(model_.classes), 0);
    reset();
}

void FunctionalEngine::reset() {
    reset_membranes();
    reset_readout();
    reset_stats();
}

void FunctionalEngine::reset_membranes() {
    for (std::size_t i = 0; i < model_.layers.size(); ++i) {
        const SnnLayer& layer = model_.layers[i];
        state_[i].reset_membrane(layer.spiking ? layer.initial_potential
                                               : std::int16_t{0});
        spikes_[i].clear();
    }
}

void FunctionalEngine::reset_readout() {
    std::fill(readout_.begin(), readout_.end(), std::int64_t{0});
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
    if (session.membranes.size() != model_.layers.size() ||
        session.readout.size() != readout_.size()) {
        throw std::invalid_argument(
            "FunctionalEngine::restore_session: state/model geometry mismatch");
    }
    for (std::size_t i = 0; i < model_.layers.size(); ++i) {
        if (!model_.layers[i].spiking) continue;
        LayerState& st = state_[i];
        const auto& mem = session.membranes[i];
        if (mem.size() != static_cast<std::size_t>(st.neurons)) {
            throw std::invalid_argument(
                "FunctionalEngine::restore_session: membrane size mismatch");
        }
        std::copy(mem.begin(), mem.end(), st.membrane.data());
        // Spike maps never carry across a step boundary; clear so the
        // restored engine starts the window from a clean slate.
        spikes_[i].clear();
    }
    std::copy(session.readout.begin(), session.readout.end(), readout_.begin());
    reset_stats();
}

const SpikeMap& FunctionalEngine::source_spikes(int src, const SpikeMap& input) const {
    return src == -1 ? input : spikes_.at(static_cast<std::size_t>(src));
}

const SpikeMap* FunctionalEngine::skip_source(const SnnLayer& layer) const {
    return layer.has_skip() ? &source_spikes(layer.skip_src, *current_input_) : nullptr;
}

void FunctionalEngine::step(const SpikeMap& input) {
    if (input.channels() != model_.input_channels || input.height() != model_.input_h ||
        input.width() != model_.input_w) {
        throw std::invalid_argument("FunctionalEngine::step: input geometry mismatch");
    }
    current_input_ = &input;
    for (std::size_t i = 0; i < model_.layers.size(); ++i) {
        const SnnLayer& layer = model_.layers[i];
        const SpikeMap& in = source_spikes(layer.input, input);
        if (splits(layer, in)) {
            step_tiled(i, in);
            continue;
        }
        if (layer.op == LayerOp::kConv) {
            run_conv_layer(i, in);
        } else {
            run_linear_layer(i, in);
        }
        integrate_and_fire(i);
        // integrate_and_fire needs the skip source; it reads it lazily via
        // the spikes_ array, which is valid because skip_src < i.
    }
}

bool FunctionalEngine::splits(const SnnLayer& layer, const SpikeMap& input) const noexcept {
    // The scalar fire path stays the serial reference loop.
    return team_ != nullptr && layer.op == LayerOp::kConv && layer.spiking &&
           config_.fire == FirePath::kVector &&
           input.count() * layer.main.kernel * layer.main.kernel * layer.out_channels >=
               kTileMinWork;
}

void FunctionalEngine::step_tiled(std::size_t index, const SpikeMap& input) {
    const SnnLayer& layer = model_.layers[index];
    LayerState& st = state_[index];
    TileTeam& team = *team_;
    const auto parts = static_cast<std::int64_t>(team.participants());
    const std::int64_t max_tiles = kTilesPerParticipant * parts;
    const SpikeMap* skip_spikes = skip_source(layer);
    const bool conv_skip = layer.has_skip() && !layer.skip_is_identity;

    // Phase A1, index the input: each tile fills a range of input sites
    // (main input, then the conv skip's), so rows never overlap. A range
    // of fewer than kMinIndexSites sites would cost more in per-channel
    // word visits than it saves.
    const auto site_tiles = [&](const compute::SpikeIndex& idx) {
        return std::clamp<std::int64_t>(idx.sites() / kMinIndexSites, 1, max_tiles);
    };
    index_.reshape(input);
    const std::int64_t main_index_tiles = site_tiles(index_);
    std::int64_t skip_index_tiles = 0;
    if (conv_skip) {
        skip_index_.reshape(*skip_spikes);
        skip_index_tiles = site_tiles(skip_index_);
    }
    team.run(static_cast<std::size_t>(main_index_tiles + skip_index_tiles),
             [&](std::size_t tile, std::size_t) {
                 auto t = static_cast<std::int64_t>(tile);
                 const bool skip = t >= main_index_tiles;
                 if (skip) t -= main_index_tiles;
                 compute::SpikeIndex& idx = skip ? skip_index_ : index_;
                 const std::int64_t n = skip ? skip_index_tiles : main_index_tiles;
                 idx.fill(skip ? *skip_spikes : input, idx.sites() * t / n,
                          idx.sites() * (t + 1) / n);
             });

    // Phase A2, split the output: event-kernel unit ranges, block-major,
    // written straight into the layer's HWC banks (a unit is stored by
    // exactly one tile). With at least two channel blocks per
    // participant, tiles take whole blocks, so each block's weight
    // slice streams through one core; otherwise they split the units
    // evenly.
    const std::int64_t blocks = compute::conv_event_blocks(layer.out_channels);
    const std::int64_t grain = blocks >= 2 * parts ? st.plane : 1;
    const std::int64_t grains = blocks * st.plane / grain;
    const std::int64_t psum_tiles = std::min(grains, max_tiles);
    team.run(static_cast<std::size_t>(conv_skip ? 2 * psum_tiles : psum_tiles),
             [&](std::size_t tile, std::size_t) {
                 auto t = static_cast<std::int64_t>(tile);
                 const bool skip = t >= psum_tiles;
                 if (skip) t -= psum_tiles;
                 const std::int64_t u0 = grains * t / psum_tiles * grain;
                 const std::int64_t u1 = grains * (t + 1) / psum_tiles * grain;
                 if (skip) {
                     compute::conv_psum_event(layer.skip, skip_wt_[index], skip_index_,
                                              layer.out_h, layer.out_w, u0, u1,
                                              st.skip_accum());
                 } else {
                     compute::conv_psum_event(layer.main, main_wt_[index], index_, layer.out_h,
                                              layer.out_w, u0, u1, st.accum());
                 }
             });

    // Phase B, split the output again: channel ranges that start both on
    // a packed spike word and on one of the transpose's 8-channel blocks
    // (multiples of 8 channels for planes of 64 or more, of 16 for 2x2,
    // of 64 for 1x1). Each range transposes its channels from HWC to CHW
    // (when the orders differ), then fires; fire tiles write raw words
    // and return their spike counts, and the map's count is set once
    // here.
    const compute::FireArgs args = fire_args(layer, st, skip_spikes);
    const std::int64_t step =
        std::max<std::int64_t>(8, simd::kBlock / std::gcd(st.plane, simd::kBlock));
    const std::int64_t groups = (st.channels + step - 1) / step;
    const std::int64_t ranges = std::min(groups, max_tiles);
    SpikeMap& out = spikes_[index];
    std::uint64_t* words = out.words();
    std::atomic<std::int64_t> fired{0};
    team.run(static_cast<std::size_t>(ranges), [&](std::size_t t, std::size_t) {
        const auto r = static_cast<std::int64_t>(t);
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

    count_step(index, input);
    ++dispatch_[index].vector_fire_steps;
    spike_counts_[index] += out.count();
}

void FunctionalEngine::count_step(std::size_t index, const SpikeMap& input) {
    LayerDispatchStats& d = dispatch_[index];
    ++d.scatter_steps;
    d.input_spikes += input.count();
    d.input_sites += input.size();
}

void FunctionalEngine::run_conv_layer(std::size_t index, const SpikeMap& input) {
    const SnnLayer& layer = model_.layers[index];
    LayerState& st = state_[index];
    const std::int64_t units = compute::conv_event_blocks(layer.out_channels) * st.plane;
    index_.build(input);
    compute::conv_psum_event(layer.main, main_wt_[index], index_, layer.out_h, layer.out_w, 0,
                             units, st.accum());
    if (layer.has_skip() && !layer.skip_is_identity) {
        skip_index_.build(*skip_source(layer));
        compute::conv_psum_event(layer.skip, skip_wt_[index], skip_index_, layer.out_h,
                                 layer.out_w, 0, units, st.skip_accum());
    }
    count_step(index, input);
}

void FunctionalEngine::run_linear_layer(std::size_t index, const SpikeMap& input) {
    const SnnLayer& layer = model_.layers[index];
    compute::linear_psum_scatter(layer.main, main_wt_[index], input, state_[index].accum());
    count_step(index, input);
}

void FunctionalEngine::integrate_and_fire(std::size_t index) {
    const SnnLayer& layer = model_.layers[index];
    LayerState& st = state_[index];

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

    const SpikeMap* skip_spikes = skip_source(layer);

    if (config_.fire == FirePath::kScalar) {
        fire_scalar(index, skip_spikes);
        ++dispatch_[index].scalar_fire_steps;
    } else {
        fire_vector(index, skip_spikes);
        ++dispatch_[index].vector_fire_steps;
    }
    spike_counts_[index] += spikes_[index].count();
}

void FunctionalEngine::fire_vector(std::size_t index, const SpikeMap* skip_spikes) {
    const SnnLayer& layer = model_.layers[index];
    LayerState& st = state_[index];
    const bool conv_skip = layer.has_skip() && !layer.skip_is_identity;

    // Reorder the HWC accumulation banks into the CHW fire banks; when
    // the orders coincide the kernels already accumulated in place.
    if (st.interleaved) {
        compute::transpose_hwc_to_chw(st.psum_hwc.data(), st.psum.data(), st.channels, st.plane,
                                      0, st.channels);
        if (conv_skip) {
            compute::transpose_hwc_to_chw(st.skip_psum_hwc.data(), st.skip_psum.data(),
                                          st.channels, st.plane, 0, st.channels);
        }
    }

    // Every packed word of the map is overwritten.
    SpikeMap& out = spikes_[index];
    out.set_count(fire(layer, fire_args(layer, st, skip_spikes), out.words()));
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

RunResult FunctionalEngine::run(const SpikeTrain& input) {
    reset();
    return run_window_impl(input, nullptr);
}

RunResult FunctionalEngine::run(const SpikeTrain& input, const ExitCriterion& exit) {
    reset();
    return run_window_impl(input, &exit);
}

RunResult FunctionalEngine::run_window(const SpikeTrain& input) {
    return run_window_impl(input, nullptr);
}

RunResult FunctionalEngine::run_window(const SpikeTrain& input,
                                       const ExitCriterion& exit) {
    return run_window_impl(input, &exit);
}

RunResult FunctionalEngine::run_window_impl(const SpikeTrain& input,
                                            const ExitCriterion* exit) {
    RunResult res;
    res.steps_offered = static_cast<std::int64_t>(input.size());
    if (config_.record_readout_history) res.logits_per_step.reserve(input.size());
    // The evaluator's baseline is the readout carried in at window
    // entry, so session windows exit on their own delta (zeros after a
    // reset(), which makes the stateless case the absolute readout).
    std::optional<ExitEvaluator> eval;
    if (exit != nullptr && exit->enabled()) eval.emplace(*exit, readout_);
    if (exit != nullptr && !exit->enabled()) exit->validate();
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

RunResult FunctionalEngine::run_window(const SpikeTrain& input, SessionState& session) {
    restore_session(session);  // zeroes per-run counters: stats are per-window
    RunResult res = run_window_impl(input, nullptr);
    save_session(session);
    session.steps += res.timesteps;
    ++session.windows;
    return res;
}

RunResult FunctionalEngine::run_window(const SpikeTrain& input, SessionState& session,
                                       const ExitCriterion& exit) {
    restore_session(session);
    RunResult res = run_window_impl(input, &exit);
    // Saving at the exit step keeps the session exactly consistent:
    // the state is what a stream offering only res.timesteps frames
    // would have produced.
    save_session(session);
    session.steps += res.timesteps;
    ++session.windows;
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
