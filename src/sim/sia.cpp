#include "sim/sia.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <utility>

#include "sim/aggregation.hpp"
#include "sim/segment_ledger.hpp"
#include "snn/compute.hpp"
#include "snn/engine.hpp"

namespace sia::sim {

namespace {

/// Per-timestep, per-channel spike counts of a train (drives the
/// event-driven cycle accounting). Masked popcount over the packed
/// words, O(words) per channel instead of a per-site scan.
std::vector<std::vector<std::int64_t>> channel_spike_counts(Frames train) {
    std::vector<std::vector<std::int64_t>> counts(train.size());
    for (std::size_t t = 0; t < train.size(); ++t) {
        const snn::SpikeMap& m = train[t];
        counts[t].assign(static_cast<std::size_t>(m.channels()), 0);
        const std::int64_t plane = m.height() * m.width();
        for (std::int64_t c = 0; c < m.channels(); ++c) {
            counts[t][static_cast<std::size_t>(c)] =
                m.count_range(c * plane, (c + 1) * plane);
        }
    }
    return counts;
}

std::int64_t bits_to_bytes(std::int64_t bits) noexcept { return (bits + 7) / 8; }

}  // namespace

std::int64_t SiaRunResult::total_cycles() const noexcept {
    std::int64_t c = 0;
    for (const auto& s : layer_stats) c += s.total();
    return c;
}

std::int64_t SiaRunResult::predicted_class(std::int64_t t) const {
    // One comparator convention across engines: first-index-wins.
    return static_cast<std::int64_t>(
        snn::argmax_first(logits_per_step.at(static_cast<std::size_t>(t))));
}

std::int64_t SiaRunResult::predicted() const {
    return static_cast<std::int64_t>(snn::argmax_first(readout));
}

void SiaRunResult::reset(std::int64_t steps, std::int64_t classes,
                         std::size_t layer_count) {
    timesteps = steps;
    steps_offered = steps;
    exit_reason = snn::ExitReason::kNone;
    logits_per_step.assign(static_cast<std::size_t>(steps),
                           std::vector<std::int64_t>(static_cast<std::size_t>(classes), 0));
    readout.clear();
    layer_stats.assign(layer_count, LayerCycleStats{});
    spike_counts.assign(layer_count, 0);
    neuron_counts.clear();
}

void SiaRunResult::append_chunk(SiaRunResult&& chunk) {
    for (auto& row : chunk.logits_per_step) {
        logits_per_step.push_back(std::move(row));
    }
    if (spike_counts.size() != chunk.spike_counts.size()) {
        spike_counts.assign(chunk.spike_counts.size(), 0);
    }
    for (std::size_t i = 0; i < spike_counts.size(); ++i) {
        spike_counts[i] += chunk.spike_counts[i];
    }
    if (layer_stats.size() != chunk.layer_stats.size()) {
        layer_stats.assign(chunk.layer_stats.size(), LayerCycleStats{});
    }
    for (std::size_t i = 0; i < layer_stats.size(); ++i) {
        layer_stats[i] += chunk.layer_stats[i];
    }
    if (neuron_counts.empty()) neuron_counts = std::move(chunk.neuron_counts);
    timesteps += chunk.timesteps;
}

double SiaRunResult::effective_gops(const SiaConfig& config) const noexcept {
    std::uint64_t dense = 0;
    std::int64_t pl_cycles = 0;
    for (const auto& s : layer_stats) {
        dense += s.dense_ops;
        pl_cycles += s.compute + s.aggregate + s.dma;
    }
    if (pl_cycles == 0) return 0.0;
    const double seconds = static_cast<double>(pl_cycles) / (config.clock_mhz * 1e6);
    return static_cast<double>(dense) / seconds / 1e9;
}

double SiaRunResult::pe_utilization(const SiaConfig& config) const noexcept {
    std::int64_t adds = 0;
    std::int64_t compute_cycles = 0;
    for (const auto& s : layer_stats) {
        adds += s.event_additions;
        compute_cycles += s.compute;
    }
    const double slots = static_cast<double>(compute_cycles) *
                         static_cast<double>(config.pe_count()) * 3.0;
    return slots > 0 ? static_cast<double>(adds) / slots : 0.0;
}

Sia::Sia(const SiaConfig& config, const snn::SnnModel& model,
         const CompiledProgram& program)
    : config_(config), model_(model), program_(program),
      main_wt_cache_(model.layers.size()), skip_wt_cache_(model.layers.size()),
      memory_(config), dma_(config), mmio_(config) {
    model_.validate();
    if (program_.layers.size() != model_.layers.size()) {
        throw std::invalid_argument("Sia: program/model layer count mismatch");
    }
}

const std::vector<std::int8_t>& Sia::main_wt(std::size_t index) {
    auto& slot = main_wt_cache_[index];
    if (slot.empty()) {
        const snn::SnnLayer& layer = model_.layers[index];
        slot = layer.op == snn::LayerOp::kConv
                   ? snn::compute::transpose_conv(layer.main)
                   : snn::compute::transpose_linear(layer.main);
    }
    return slot;
}

const std::vector<std::int8_t>& Sia::skip_wt(std::size_t index) {
    auto& slot = skip_wt_cache_[index];
    if (slot.empty()) {
        slot = snn::compute::transpose_conv(model_.layers[index].skip);
    }
    return slot;
}

std::vector<BatchItem> as_batch(std::span<const snn::SpikeTrain> trains) {
    std::vector<BatchItem> items;
    items.reserve(trains.size());
    for (const snn::SpikeTrain& train : trains) items.push_back({train});
    return items;
}

SiaRunResult Sia::run(const snn::SpikeTrain& input) {
    return std::move(run_batch(std::array{BatchItem{input}}).front());
}

SiaRunResult Sia::run(const snn::SpikeTrain& input, snn::SessionState& session,
                      const snn::ExitCriterion& exit) {
    return std::move(run_batch(std::array{BatchItem{input, &session, &exit}}).front());
}

std::vector<SiaRunResult> Sia::run_batch(std::span<const BatchItem> items) {
    SegmentLedger ledger(model_, items, "Sia::run_batch");
    const std::size_t n = items.size();
    batch_stats_ = SiaBatchStats{};
    batch_stats_.batch = n;
    batch_stats_.banks = std::max<std::int64_t>(1, config_.membrane_banks);
    if (n == 0) return {};

    // Slots are membrane-bank contexts. RAII: restores single-context
    // partitioning at scope exit, so a mid-pass throw never leaves a
    // stale partitioning behind.
    const auto width = static_cast<std::size_t>(batch_stats_.banks);
    const PartitionGuard partition_guard(memory_.membrane, batch_stats_.banks);
    batch_stats_.membrane_slice_bytes = memory_.membrane.bank_capacity();
    for (const LayerPlan& plan : program_.layers) {
        if (plan.membrane_bytes > batch_stats_.membrane_slice_bytes) {
            batch_stats_.membrane_resident = false;
            break;
        }
    }
    controller_.reset();

    // Free slots back-fill from the pending queue in admission order
    // (lowest free slot first) at pass boundaries only — both orders are
    // fixed by the batch, never by timing, so the schedule is
    // deterministic.
    constexpr std::size_t kFree = static_cast<std::size_t>(-1);
    std::vector<std::size_t> slot(width, kFree);
    std::vector<std::size_t> active;  // occupied slot ids, ascending
    std::vector<Segment> segments(width);
    std::vector<SiaRunResult> chunk(width);
    std::vector<std::vector<snn::SpikeTrain>> outs(width);
    std::size_t next_pending = 0;
    std::size_t finished = 0;
    std::int64_t saved_cycles = 0;
    while (finished < n) {
        const bool occupied =
            std::any_of(slot.begin(), slot.end(), [](std::size_t i) { return i != kFree; });
        for (std::size_t s = 0; s < width && next_pending < n; ++s) {
            if (slot[s] != kFree) continue;
            slot[s] = next_pending++;
            if (occupied) ++batch_stats_.backfills;
        }

        active.clear();
        for (std::size_t s = 0; s < width; ++s) {
            if (slot[s] == kFree) continue;
            segments[s] = ledger.next(slot[s]);
            chunk[s].reset(static_cast<std::int64_t>(segments[s].frames.size()),
                           model_.classes, model_.layers.size());
            outs[s].assign(model_.layers.size(), {});
            active.push_back(s);
        }

        // One layer-major pass: kernels for layer `li` are resident while
        // every occupied slot's timestep loop runs over its own membrane
        // context, then the next layer is configured.
        ++batch_stats_.chunk_passes;
        controller_.transition(CtrlState::kInit);
        for (std::size_t li = 0; li < model_.layers.size(); ++li) {
            for (const std::size_t s : active) {
                memory_.membrane.set_active(static_cast<std::int64_t>(s));
                run_layer(li, segments[s].frames, outs[s], chunk[s], segments[s].session);
            }
        }
        controller_.transition(CtrlState::kDone);

        // Residency savings of this pass: conv kernels streamed once for
        // all active members, the PS invoked once per layer. A narrowed
        // pass shares across fewer members — that shrinkage is exactly
        // what back-filling recovers.
        const auto extra = static_cast<std::int64_t>(active.size()) - 1;
        for (const LayerPlan& plan : program_.layers) {
            if (!plan.mmio) {
                batch_stats_.weight_bytes_streamed += plan.weight_stream_bytes;
                batch_stats_.weight_bytes_sequential +=
                    (extra + 1) * plan.weight_stream_bytes;
                saved_cycles += extra * AxiDma::cycles_for(plan.weight_stream_bytes,
                                                           config_);
            }
            saved_cycles += extra * config_.ps_layer_overhead_cycles;
        }

        // Retire completed items, releasing their context for back-fill.
        for (const std::size_t s : active) {
            if (ledger.commit(slot[s], std::move(chunk[s]))) {
                slot[s] = kFree;
                ++finished;
            }
        }
    }

    std::vector<SiaRunResult> results = ledger.finish();
    batch_stats_.retired_at.reserve(n);
    for (const SiaRunResult& r : results) {
        batch_stats_.sequential_cycles += r.total_cycles();
        batch_stats_.steps_executed += r.timesteps;
        batch_stats_.steps_offered += r.steps_offered;
        batch_stats_.retired_at.push_back(r.timesteps);
        if (r.timesteps < r.steps_offered) ++batch_stats_.retired_early;
    }
    batch_stats_.resident_cycles = batch_stats_.sequential_cycles - saved_cycles;
    return results;
}

void Sia::run_layer(std::size_t index, Frames input, std::vector<snn::SpikeTrain>& outs,
                    SiaRunResult& res, snn::SessionState* session) {
    const snn::SnnLayer& layer = model_.layers[index];
    const auto timesteps = static_cast<std::int64_t>(input.size());
    LayerCycleStats& stats = res.layer_stats[index];
    stats.label = layer.label;
    stats.overhead += config_.ps_layer_overhead_cycles;
    controller_.transition(CtrlState::kLoadConfig);

    const Frames in_train =
        layer.input == -1 ? input : Frames(outs[static_cast<std::size_t>(layer.input)]);
    Frames skip_train;
    if (layer.has_skip()) {
        skip_train = layer.skip_src == -1
                         ? input
                         : Frames(outs[static_cast<std::size_t>(layer.skip_src)]);
    }

    snn::SpikeTrain& out_train = outs[index];
    out_train.assign(static_cast<std::size_t>(timesteps),
                     snn::SpikeMap(layer.out_channels, layer.out_h, layer.out_w));

    const LayerPlan& plan = program_.layers[index];
    if (layer.op == snn::LayerOp::kConv) {
        run_conv_layer(index, plan, in_train, skip_train, out_train, stats,
                       res.logits_per_step, session, 0, layer.out_channels);
    } else {
        run_linear_layer(index, plan, in_train, out_train, stats, res.logits_per_step,
                         session, 0, layer.main.out_features);
    }

    res.neuron_counts.push_back(layer.neurons());
    std::int64_t spikes = 0;
    for (const auto& m : out_train) spikes += m.count();
    res.spike_counts[index] = spikes;
}

void Sia::begin_inference() {
    memory_.membrane.partition(1);
    controller_.reset();
    controller_.transition(CtrlState::kInit);
}

void Sia::end_inference() { controller_.transition(CtrlState::kDone); }

void Sia::run_stage(std::size_t first, std::size_t last, Frames input,
                    std::vector<snn::SpikeTrain>& outs, SiaRunResult& res,
                    snn::SessionState* session) {
    begin_inference();
    for (std::size_t li = first; li < last; ++li) {
        run_layer(li, input, outs, res, session);
    }
    end_inference();
}

void Sia::run_layer_slice(std::size_t index, const LayerPlan& plan, Frames in_train,
                          Frames skip_train, snn::SpikeTrain& out_train,
                          LayerCycleStats& stats,
                          std::vector<std::vector<std::int64_t>>& readout,
                          snn::SessionState* session, std::int64_t c0, std::int64_t c1) {
    const snn::SnnLayer& layer = model_.layers[index];
    out_train.assign(in_train.size(),
                     snn::SpikeMap(layer.out_channels, layer.out_h, layer.out_w));
    if (c0 >= c1) return;  // zero-width slice: this shard idles the layer

    stats.label = layer.label;
    stats.overhead += config_.ps_layer_overhead_cycles;
    controller_.transition(CtrlState::kLoadConfig);
    if (layer.op == snn::LayerOp::kConv) {
        run_conv_layer(index, plan, in_train, skip_train, out_train, stats, readout,
                       session, c0, c1);
    } else {
        run_linear_layer(index, plan, in_train, out_train, stats, readout, session,
                         c0, c1);
    }
}

void Sia::run_conv_layer(std::size_t index, const LayerPlan& plan, Frames in_train,
                         Frames skip_train, snn::SpikeTrain& out_train,
                         LayerCycleStats& stats,
                         std::vector<std::vector<std::int64_t>>& readout,
                         snn::SessionState* session, std::int64_t c0, std::int64_t c1) {
    const snn::SnnLayer& layer = model_.layers[index];
    const snn::Branch& b = layer.main;
    const auto timesteps = static_cast<std::int64_t>(in_train.size());
    const std::int64_t neurons = layer.neurons();
    const std::int64_t oc = layer.out_channels;
    const std::int64_t oh = layer.out_h;
    const std::int64_t ow = layer.out_w;
    const std::int64_t lanes = config_.pe_count();
    // Output-channel slice this instance owns (the full layer for
    // unsharded runs). CHW flat indices make a channel slice the
    // contiguous bit range [c0 * plane, c1 * plane).
    const std::int64_t span = c1 - c0;
    const std::int64_t plane = oh * ow;
    const std::int64_t slice_neurons = span * plane;

    const std::vector<std::int8_t>& wt = main_wt(index);
    const bool has_down_skip = layer.has_skip() && !layer.skip_is_identity;
    static const std::vector<std::int8_t> kNoWeights;
    const std::vector<std::int8_t>& skip_weights =
        has_down_skip ? skip_wt(index) : kNoWeights;

    const auto counts = channel_spike_counts(in_train);
    const auto skip_counts =
        has_down_skip ? channel_spike_counts(skip_train)
                      : std::vector<std::vector<std::int64_t>>{};

    // Membrane storage: the first spatial slice lives in the ping-pong
    // bank model; further slices (spatial tiling) are host-mirrored --
    // numerically identical, with the re-streaming traffic accounted in
    // the DMA term above.
    const std::int64_t fit_neurons =
        std::min<std::int64_t>(slice_neurons, memory_.membrane.bank_capacity() / 2);
    const std::int64_t spill_neurons = slice_neurons - fit_neurons;
    // Resume the carried potentials of a streaming session; a fresh
    // session (or stateless run) starts from the initial potential. A
    // sliced run addresses only its contiguous CHW range of the shared
    // session bank.
    const std::int16_t* resume =
        session != nullptr && session->initialized
            ? session->membranes[index].data() + c0 * plane
            : nullptr;
    std::vector<std::int16_t> spill_mem(static_cast<std::size_t>(spill_neurons));
    for (std::int64_t i = 0; i < spill_neurons; ++i) {
        spill_mem[static_cast<std::size_t>(i)] =
            resume != nullptr ? resume[fit_neurons + i] : layer.initial_potential;
    }
    for (std::int64_t i = 0; i < fit_neurons; ++i) {
        memory_.membrane.write16(2 * i,
                                 resume != nullptr ? resume[i]
                                                   : layer.initial_potential);
    }
    memory_.membrane.toggle();  // make the initial potentials readable

    std::vector<std::int32_t> psum(static_cast<std::size_t>(neurons), 0);
    std::vector<std::int32_t> skip_psum;
    if (has_down_skip) skip_psum.assign(static_cast<std::size_t>(neurons), 0);

    const std::int64_t wc = SiaConfig::window_cycles(b.kernel);
    const std::int64_t wc_skip = SiaConfig::window_cycles(1);
    // Layer-major schedule: every (tile, chunk) kernel set is streamed
    // exactly once per inference; partial sums across chunks stage in
    // the 128 kB residual memory while the timestep loop runs.
    stats.dma += dma_.transfer(plan.weight_stream_bytes);

    const std::uint64_t dense_per_step =
        static_cast<std::uint64_t>(span * oh * ow * b.in_channels * b.kernel *
                                   b.kernel) *
        2ULL;
    const std::uint64_t skip_dense_per_step =
        has_down_skip ? static_cast<std::uint64_t>(span * oh * ow *
                                                   layer.skip.in_channels) *
                            2ULL
                      : 0ULL;

    for (std::int64_t t = 0; t < timesteps; ++t) {
        controller_.transition(CtrlState::kReadInput);
        stats.dma += dma_.transfer(plan.spike_in_bytes * plan.oc_tiles *
                                   plan.spatial_tiles);
        const snn::SpikeMap& in = in_train[static_cast<std::size_t>(t)];
        std::fill(psum.begin(), psum.end(), 0);

        for (std::int64_t pass = 0; pass < plan.ic_passes; ++pass) {
            const std::int64_t ic0 = pass * plan.ic_chunk;
            const std::int64_t ic1 = std::min(b.in_channels, ic0 + plan.ic_chunk);
            std::int64_t chunk_spikes = 0;
            for (std::int64_t ic = ic0; ic < ic1; ++ic) {
                chunk_spikes += counts[static_cast<std::size_t>(t)]
                                      [static_cast<std::size_t>(ic)];
            }
            for (std::int64_t tile = 0; tile < plan.oc_tiles; ++tile) {
                controller_.transition(CtrlState::kPeCompute);
                const std::int64_t tile_lanes = std::min(lanes, span - tile * lanes);
                stats.compute += chunk_spikes * wc;
                stats.input_spike_events += chunk_spikes;
                stats.event_additions +=
                    chunk_spikes * b.kernel * b.kernel * tile_lanes;
            }
            snn::compute::conv_psum_chunk_oc(b, wt, in, oh, ow, ic0, ic1, c0, c1, psum);
        }
        stats.dense_ops += dense_per_step;

        // Residual path.
        if (layer.has_skip()) {
            const snn::SpikeMap& skip_in = skip_train[static_cast<std::size_t>(t)];
            stats.dma += dma_.transfer(plan.residual_in_bytes);
            if (has_down_skip) {
                std::fill(skip_psum.begin(), skip_psum.end(), 0);
                std::int64_t skip_spikes = 0;
                for (const auto n : skip_counts[static_cast<std::size_t>(t)]) {
                    skip_spikes += n;
                }
                for (std::int64_t tile = 0; tile < plan.oc_tiles; ++tile) {
                    controller_.transition(CtrlState::kPeCompute);
                    stats.compute += skip_spikes * wc_skip;
                    stats.input_spike_events += skip_spikes;
                    stats.event_additions +=
                        skip_spikes * std::min(lanes, span - tile * lanes);
                }
                snn::compute::conv_psum_chunk_oc(layer.skip, skip_weights, skip_in, oh,
                                                 ow, 0, layer.skip.in_channels, c0, c1,
                                                 skip_psum);
                stats.dense_ops += skip_dense_per_step;
            }
        }

        controller_.transition(CtrlState::kAggregate);
        stats.aggregate += AggregationCore::retire_cycles(
            slice_neurons, config_.aggregation_lanes,
            plan.oc_tiles * config_.aggregation_pipeline_depth);

        snn::SpikeMap& out = out_train[static_cast<std::size_t>(t)];
        const snn::SpikeMap* skip_spike_map =
            layer.has_skip() ? &skip_train[static_cast<std::size_t>(t)] : nullptr;
        for (std::int64_t y = 0; y < oh; ++y) {
            for (std::int64_t x = 0; x < ow; ++x) {
                for (std::int64_t o = c0; o < c1; ++o) {
                    const auto hwc = static_cast<std::size_t>((y * ow + x) * oc + o);
                    // Membrane banks hold only this instance's slice:
                    // slice-relative CHW addressing.
                    const std::int64_t chw = ((o - c0) * oh + y) * ow + x;
                    std::int16_t m = snn::compute::aggregate(
                        psum[hwc], b.gain[static_cast<std::size_t>(o)],
                        b.bias[static_cast<std::size_t>(o)], b.gain_shift);
                    if (layer.has_skip()) {
                        if (layer.skip_is_identity) {
                            if (skip_spike_map->get(o, y, x)) {
                                m = util::sat_add16(m, layer.identity_skip.charge);
                            }
                        } else {
                            const std::int16_t ms = snn::compute::aggregate(
                                skip_psum[hwc],
                                layer.skip.gain[static_cast<std::size_t>(o)],
                                layer.skip.bias[static_cast<std::size_t>(o)],
                                layer.skip.gain_shift);
                            m = util::sat_add16(m, ms);
                        }
                    }
                    const bool in_bank = chw < fit_neurons;
                    const std::int16_t u_prev =
                        in_bank ? memory_.membrane.read16(2 * chw)
                                : spill_mem[static_cast<std::size_t>(chw - fit_neurons)];
                    bool spike = false;
                    const std::int16_t u_new =
                        snn::compute::update_neuron(u_prev, m, layer, spike);
                    if (in_bank) {
                        memory_.membrane.write16(2 * chw, u_new);
                    } else {
                        spill_mem[static_cast<std::size_t>(chw - fit_neurons)] = u_new;
                    }
                    if (spike) out.set(o, y, x, true);
                }
            }
        }
        (void)readout;  // conv layers are always spiking (validated upstream)

        controller_.transition(CtrlState::kWriteOutput);
        // Bit-pack the slice's output spikes through the output BRAM
        // (capacity checked); the slice is the contiguous flat range
        // [c0 * plane, c1 * plane).
        const std::int64_t out_bytes = bits_to_bytes(slice_neurons);
        for (std::int64_t byte = 0; byte < out_bytes; ++byte) {
            std::uint8_t packed = 0;
            for (std::int64_t bit = 0; bit < 8; ++bit) {
                const std::int64_t idx = byte * 8 + bit;
                if (idx < slice_neurons && out.get_flat(c0 * plane + idx)) {
                    packed = static_cast<std::uint8_t>(packed | (1U << bit));
                }
            }
            memory_.output_spikes.write8(byte, packed);
        }
        stats.dma += dma_.transfer(plan.spike_out_bytes);
        if (plan.membrane_spill) {
            // Legacy DDR-spill schedule (scheduling ablation only).
            stats.dma += dma_.transfer(plan.membrane_spill_bytes);
        }
        memory_.membrane.toggle();
    }

    if (session != nullptr) {
        // Save the end-of-window potentials: after the final toggle the
        // last written values are on the readable bank. Sliced runs
        // write only their disjoint range of the (presized) shared bank.
        auto& mem = session->membranes[index];
        if (mem.size() != static_cast<std::size_t>(neurons)) {
            mem.resize(static_cast<std::size_t>(neurons));
        }
        const std::int64_t base = c0 * plane;
        for (std::int64_t i = 0; i < fit_neurons; ++i) {
            mem[static_cast<std::size_t>(base + i)] = memory_.membrane.read16(2 * i);
        }
        std::copy(spill_mem.begin(), spill_mem.end(), mem.begin() + base + fit_neurons);
    }
}

void Sia::run_linear_layer(std::size_t index, const LayerPlan& plan, Frames in_train,
                           snn::SpikeTrain& out_train,
                           LayerCycleStats& stats,
                           std::vector<std::vector<std::int64_t>>& readout,
                           snn::SessionState* session, std::int64_t c0,
                           std::int64_t c1) {
    const snn::SnnLayer& layer = model_.layers[index];
    const snn::Branch& b = layer.main;
    const auto timesteps = static_cast<std::int64_t>(in_train.size());
    const std::int64_t lanes = config_.pe_count();
    const std::int64_t features = b.out_features;
    // Output-feature slice this instance owns (the full layer for
    // unsharded runs). Vectors keep the full-F layout; only [c0, c1) is
    // touched, so disjoint slices compose bit-identically.
    const std::int64_t span = c1 - c0;

    const std::vector<std::int8_t>& wt = main_wt(index);
    std::vector<std::int32_t> psum(static_cast<std::size_t>(features), 0);
    std::vector<std::int16_t> mem(static_cast<std::size_t>(features),
                                  layer.initial_potential);
    std::vector<std::int64_t> acc(static_cast<std::size_t>(features), 0);
    if (session != nullptr && session->initialized) {
        if (layer.spiking) {
            // Resume the carried potentials of the streaming session
            // (only this instance's slice of the shared bank).
            std::copy(session->membranes[index].begin() + c0,
                      session->membranes[index].begin() + c1, mem.begin() + c0);
        } else {
            // Readout carries across windows: logits keep accumulating.
            const auto hi = std::min<std::int64_t>(
                c1, static_cast<std::int64_t>(session->readout.size()));
            for (std::int64_t f = c0; f < hi; ++f) {
                acc[static_cast<std::size_t>(f)] =
                    session->readout[static_cast<std::size_t>(f)];
            }
        }
    }

    const std::int64_t oc_tiles = (span + lanes - 1) / lanes;
    const std::int64_t wc = SiaConfig::window_cycles(1);
    const std::uint64_t dense_per_step =
        static_cast<std::uint64_t>(b.in_features * span) * 2ULL;

    for (std::int64_t t = 0; t < timesteps; ++t) {
        controller_.transition(CtrlState::kReadInput);
        const snn::SpikeMap& in = in_train[static_cast<std::size_t>(t)];
        const std::int64_t in_spikes = in.count();

        if (plan.mmio) {
            // PS-mediated word path: weights re-streamed per timestep plus
            // spike vector in and result readback (Table I FC calibration).
            stats.mmio += mmio_.transfer(plan.weight_stream_bytes);
            stats.mmio += mmio_.transfer(bits_to_bytes(b.in_features));
            stats.mmio += mmio_.transfer(span * 4);
        } else {
            stats.dma += dma_.transfer(plan.weight_stream_bytes +
                                       bits_to_bytes(b.in_features));
        }

        for (std::int64_t tile = 0; tile < oc_tiles; ++tile) {
            controller_.transition(CtrlState::kPeCompute);
            const std::int64_t tile_lanes = std::min(lanes, span - tile * lanes);
            stats.compute += in_spikes * wc;
            stats.input_spike_events += in_spikes;
            stats.event_additions += in_spikes * tile_lanes;
        }
        snn::compute::linear_psum_range(b, wt, in, c0, c1, psum);
        stats.dense_ops += dense_per_step;

        controller_.transition(CtrlState::kAggregate);
        stats.aggregate += AggregationCore::retire_cycles(
            span, config_.aggregation_lanes,
            oc_tiles * config_.aggregation_pipeline_depth);

        snn::SpikeMap& out = out_train[static_cast<std::size_t>(t)];
        for (std::int64_t f = c0; f < c1; ++f) {
            const std::int16_t m = snn::compute::aggregate(
                psum[static_cast<std::size_t>(f)], b.gain[static_cast<std::size_t>(f)],
                b.bias[static_cast<std::size_t>(f)], b.gain_shift);
            if (layer.spiking) {
                bool spike = false;
                mem[static_cast<std::size_t>(f)] = snn::compute::update_neuron(
                    mem[static_cast<std::size_t>(f)], m, layer, spike);
                if (spike) out.set_flat(f, true);
            } else {
                acc[static_cast<std::size_t>(f)] += m;
            }
        }
        if (!layer.spiking) {
            auto& row = readout[static_cast<std::size_t>(t)];
            const auto hi =
                std::min<std::int64_t>(c1, static_cast<std::int64_t>(row.size()));
            for (std::int64_t f = c0; f < hi; ++f) {
                row[static_cast<std::size_t>(f)] = acc[static_cast<std::size_t>(f)];
            }
        }
        controller_.transition(CtrlState::kWriteOutput);
    }

    if (session != nullptr) {
        if (layer.spiking) {
            // Write only this instance's slice of the (presized) shared
            // session bank — sliced shards save disjoint ranges.
            auto& smem = session->membranes[index];
            if (smem.size() != mem.size()) smem.resize(mem.size());
            std::copy(mem.begin() + c0, mem.begin() + c1, smem.begin() + c0);
        } else {
            // Readout layers carry no membranes; the bank is already
            // empty for shared sliced sessions (clear() would race).
            if (!session->membranes[index].empty()) session->membranes[index].clear();
            const auto hi = std::min<std::int64_t>(
                c1, static_cast<std::int64_t>(session->readout.size()));
            for (std::int64_t f = c0; f < hi; ++f) {
                session->readout[static_cast<std::size_t>(f)] =
                    acc[static_cast<std::size_t>(f)];
            }
        }
    }
}

}  // namespace sia::sim
