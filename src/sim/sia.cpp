#include "sim/sia.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <utility>

#include "sim/segment_ledger.hpp"
#include "snn/compute.hpp"

namespace sia::sim {

namespace {

std::int64_t bits_to_bytes(std::int64_t bits) noexcept { return (bits + 7) / 8; }

}  // namespace

SiaBatchStats& SiaBatchStats::operator+=(const SiaBatchStats& other) {
    batch += other.batch;
    banks = std::max(banks, other.banks);
    membrane_slice_bytes = other.membrane_slice_bytes;
    membrane_resident = membrane_resident && other.membrane_resident;
    weight_bytes_streamed += other.weight_bytes_streamed;
    weight_bytes_sequential += other.weight_bytes_sequential;
    resident_cycles += other.resident_cycles;
    sequential_cycles += other.sequential_cycles;
    retired_early += other.retired_early;
    backfills += other.backfills;
    chunk_passes += other.chunk_passes;
    steps_executed += other.steps_executed;
    steps_offered += other.steps_offered;
    retired_at.insert(retired_at.end(), other.retired_at.begin(), other.retired_at.end());
    return *this;
}

std::int64_t SiaRunResult::total_cycles() const noexcept {
    std::int64_t c = 0;
    for (const auto& s : layer_stats) c += s.total();
    return c;
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
    : Sia(config, model, program, snn::compute::event_weights(model)) {}

Sia::Sia(const SiaConfig& config, const snn::SnnModel& model, const CompiledProgram& program,
         std::shared_ptr<const snn::compute::WeightImage> weights)
    : config_(config), model_(model), program_(program), weights_(std::move(weights)),
      memory_(config) {
    model_.validate();
    if (program_.layers.size() != model_.layers.size()) {
        throw std::invalid_argument("Sia: program/model layer count mismatch");
    }
    if (!weights_ || !weights_->fits(model_)) {
        throw std::invalid_argument("Sia: weight image does not fit the model");
    }
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

        // Residency savings of this pass: every member but one skips
        // each layer's entry cost (conv kernels stream once, the PS is
        // invoked once per layer). A narrowed pass shares across fewer
        // members — that shrinkage is exactly what back-filling recovers.
        const auto extra = static_cast<std::int64_t>(active.size()) - 1;
        for (std::size_t li = 0; li < model_.layers.size(); ++li) {
            const snn::SnnLayer& layer = model_.layers[li];
            const LayerPlan& plan = program_.layers[li];
            saved_cycles += extra * entry_cost(layer, plan, config_).total();
            if (layer.op == snn::LayerOp::kConv) {
                batch_stats_.weight_bytes_streamed += plan.weight_stream_bytes;
                batch_stats_.weight_bytes_sequential +=
                    (extra + 1) * plan.weight_stream_bytes;
            }
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
    const Frames in_train =
        layer.input == -1 ? input : Frames(outs[static_cast<std::size_t>(layer.input)]);
    Frames skip_train;
    if (layer.has_skip()) {
        skip_train = layer.skip_src == -1
                         ? input
                         : Frames(outs[static_cast<std::size_t>(layer.skip_src)]);
    }
    run_layer_slice(index, program_.layers[index], in_train, skip_train, outs[index],
                    res.layer_stats[index], res.logits_per_step, session, 0,
                    layer.out_channels);

    res.neuron_counts.push_back(layer.neurons());
    std::int64_t spikes = 0;
    for (const auto& m : outs[index]) spikes += m.count();
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
    stats += entry_cost(layer, plan, config_);
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
    // Output-channel slice this instance owns (the full layer for
    // unsharded runs). CHW flat indices make a channel slice the
    // contiguous bit range [c0 * plane, c1 * plane).
    const std::int64_t span = c1 - c0;
    const std::int64_t plane = oh * ow;
    const std::int64_t slice_neurons = span * plane;

    const std::vector<std::int8_t>& wt = weights_->main[index];
    const std::vector<std::int8_t>& skip_weights = weights_->skip[index];
    const bool has_down_skip = layer.has_skip() && !layer.skip_is_identity;

    // Membrane storage: the first spatial slice lives in the ping-pong
    // bank model; further slices (spatial tiling) are host-mirrored --
    // numerically identical, with the re-streaming traffic accounted in
    // step_cost's DMA term.
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

    // A block the slice cuts is computed whole; its channels outside
    // [c0, c1) land in this instance's private banks, unread.
    const auto [u0, u1] = snn::compute::conv_event_units(oc, plane, c0, c1);
    std::vector<std::int32_t> psum(static_cast<std::size_t>(neurons), 0);
    std::vector<std::int32_t> skip_psum;
    if (has_down_skip) skip_psum.assign(static_cast<std::size_t>(neurons), 0);

    for (std::int64_t t = 0; t < timesteps; ++t) {
        controller_.transition(CtrlState::kReadInput);
        const snn::SpikeMap& in = in_train[static_cast<std::size_t>(t)];
        const snn::SpikeMap* skip_spike_map =
            layer.has_skip() ? &skip_train[static_cast<std::size_t>(t)] : nullptr;
        stats += step_cost(layer, plan, config_, span, in.count(),
                           has_down_skip ? skip_spike_map->count() : 0);

        // The weight-memory chunking over input channels is cycle
        // accounting only: one kernel call per branch covers every channel.
        controller_.transition(CtrlState::kPeCompute);
        index_.build(in);
        snn::compute::conv_psum_event(b, wt, index_, oh, ow, u0, u1, psum);
        if (has_down_skip) {
            index_.build(*skip_spike_map);
            snn::compute::conv_psum_event(layer.skip, skip_weights, index_, oh, ow, u0, u1,
                                          skip_psum);
        }

        controller_.transition(CtrlState::kAggregate);
        snn::SpikeMap& out = out_train[static_cast<std::size_t>(t)];
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
    const std::int64_t features = b.out_features;
    // Output-feature slice this instance owns (the full layer for
    // unsharded runs). Vectors keep the full-F layout; only [c0, c1) is
    // touched, so disjoint slices compose bit-identically.
    const std::int64_t span = c1 - c0;

    const std::vector<std::int8_t>& wt = weights_->main[index];
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

    for (std::int64_t t = 0; t < timesteps; ++t) {
        controller_.transition(CtrlState::kReadInput);
        const snn::SpikeMap& in = in_train[static_cast<std::size_t>(t)];
        stats += step_cost(layer, plan, config_, span, in.count(), 0);

        controller_.transition(CtrlState::kPeCompute);
        snn::compute::linear_psum_range(b, wt, in, c0, c1, psum);

        controller_.transition(CtrlState::kAggregate);

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
