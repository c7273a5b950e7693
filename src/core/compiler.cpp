#include "core/compiler.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "sim/cost.hpp"

namespace sia::core {

namespace {

std::int64_t bits_to_bytes(std::int64_t bits) noexcept { return (bits + 7) / 8; }

/// Validation errors name the offending layer: index, kind, label.
[[noreturn]] void layer_error(std::size_t index, const snn::SnnLayer& layer,
                              const std::string& what) {
    const char* kind = layer.op == snn::LayerOp::kConv ? "conv" : "linear";
    throw std::invalid_argument("SiaCompiler::compile: layer " +
                                std::to_string(index) + " (" + kind + " '" +
                                layer.label + "'): " + what);
}

}  // namespace

sim::CompiledProgram SiaCompiler::compile(const snn::SnnModel& model) const {
    model.validate();
    sim::CompiledProgram program;
    const std::int64_t lanes = config_.pe_count();
    /// Each PE owns one kernel slot in the weight memory.
    const std::int64_t slot_bytes = config_.weight_bytes / lanes;

    for (std::size_t li = 0; li < model.layers.size(); ++li) {
        const snn::SnnLayer& layer = model.layers[li];
        sim::LayerPlan plan;
        plan.layer = static_cast<int>(li);
        plan.membrane_bytes = layer.neurons() * 2;

        if (layer.op == snn::LayerOp::kConv) {
            const snn::Branch& b = layer.main;
            plan.oc_tiles = (b.out_channels + lanes - 1) / lanes;

            // Kernels larger than a PE slot stream in IC chunks.
            const std::int64_t kernel_bytes_per_ic = b.kernel * b.kernel;
            const std::int64_t chunk =
                std::max<std::int64_t>(1, slot_bytes / kernel_bytes_per_ic);
            plan.ic_chunk = std::min(chunk, b.in_channels);
            plan.ic_passes = (b.in_channels + plan.ic_chunk - 1) / plan.ic_chunk;

            plan.weight_stream_bytes =
                b.out_channels * b.in_channels * kernel_bytes_per_ic;
            plan.spike_in_bytes =
                bits_to_bytes(b.in_channels * layer.in_h * layer.in_w);
            plan.spike_out_bytes = bits_to_bytes(layer.neurons());
            if (layer.has_skip()) {
                // Residual partial sums / skip spikes staged from the PS
                // through the 128 kB residual memory (§III-D).
                const std::int64_t skip_bits =
                    layer.skip_is_identity
                        ? layer.neurons()
                        : layer.skip.in_channels * layer.in_h * layer.in_w;
                plan.residual_in_bytes = bits_to_bytes(skip_bits);
                if (plan.residual_in_bytes > config_.residual_bytes) {
                    layer_error(li, layer,
                                "residual traffic exceeds residual memory (" +
                                    std::to_string(plan.residual_in_bytes) + " > " +
                                    std::to_string(config_.residual_bytes) +
                                    " bytes)");
                }
            }
        } else {
            const snn::Branch& b = layer.main;
            plan.oc_tiles = (b.out_features + lanes - 1) / lanes;
            plan.ic_chunk = b.in_features;
            plan.ic_passes = 1;
            plan.weight_stream_bytes = b.stream_weight_bytes > 0
                                           ? b.stream_weight_bytes
                                           : b.in_features * b.out_features;
            plan.spike_in_bytes = bits_to_bytes(b.in_features);
            plan.spike_out_bytes = bits_to_bytes(layer.neurons());
            // FC kernels (one weight per input feature) never fit the
            // per-PE slots; they ride the PS word path (Fig. 4).
            plan.mmio = true;
        }

        const std::int64_t bank = config_.membrane_bytes / 2;
        if (plan.membrane_bytes > bank && layer.spiking) {
            // Spatial tiling: slice the layer so each slice's potentials
            // fit one ping-pong bank; input spikes re-stream per slice.
            plan.spatial_tiles = (plan.membrane_bytes + bank - 1) / bank;
        }

        const std::int64_t resident_weights =
            plan.oc_tiles * plan.ic_passes == 1 ? plan.weight_stream_bytes : 0;
        program.peak_weight_bytes =
            std::max(program.peak_weight_bytes,
                     resident_weights > 0 ? resident_weights
                                          : std::min(plan.weight_stream_bytes,
                                                     config_.weight_bytes));
        program.peak_membrane_bytes =
            std::max(program.peak_membrane_bytes,
                     std::min(plan.membrane_bytes, bank));

        program.layers.push_back(plan);
    }
    return program;
}

namespace {

/// Static per-inference cycle estimate of one layer: sim::Sia's own
/// cost functions, with each step's spike counts replaced by the
/// nominal round(sites x density) (no runtime profile exists at compile
/// time). Only relative magnitudes matter: the pipeline planner
/// balances stages on these.
std::int64_t estimate_layer_cycles(const snn::SnnLayer& layer,
                                   const sim::LayerPlan& plan,
                                   const sim::SiaConfig& config, double density,
                                   std::int64_t timesteps) {
    const auto nominal = [density](std::int64_t sites) {
        return static_cast<std::int64_t>(static_cast<double>(sites) * density + 0.5);
    };
    const bool conv = layer.op == snn::LayerOp::kConv;
    const std::int64_t span = conv ? layer.out_channels : layer.main.out_features;
    const std::int64_t spikes =
        nominal(conv ? layer.main.in_channels * layer.in_h * layer.in_w
                     : layer.main.in_features);
    const std::int64_t skip_spikes = nominal(layer.skip.in_channels * layer.in_h * layer.in_w);
    return sim::entry_cost(layer, plan, config).total() +
           timesteps *
               sim::step_cost(layer, plan, config, span, spikes, skip_spikes).total();
}

/// Slice one layer's plan down to the output-channel/feature range
/// [c0, c1): sliced tiling, transfer volumes, and membrane residency;
/// input-side fields (spike_in, ic chunking, residual) stay full-model
/// because every shard consumes the full gathered input.
sim::LayerPlan slice_layer_plan(const snn::SnnLayer& layer, const sim::LayerPlan& full,
                                const sim::SiaConfig& config, std::int64_t c0,
                                std::int64_t c1) {
    sim::LayerPlan p = full;
    const std::int64_t span = c1 - c0;
    if (span <= 0) {
        p.oc_tiles = 0;
        p.weight_stream_bytes = 0;
        p.spike_out_bytes = 0;
        p.membrane_bytes = 0;
        p.spatial_tiles = 1;
        return p;
    }
    const std::int64_t lanes = config.pe_count();
    p.oc_tiles = (span + lanes - 1) / lanes;
    if (layer.op == snn::LayerOp::kConv) {
        const snn::Branch& b = layer.main;
        p.weight_stream_bytes = span * b.in_channels * b.kernel * b.kernel;
        p.spike_out_bytes = bits_to_bytes(span * layer.out_h * layer.out_w);
        p.membrane_bytes = span * layer.out_h * layer.out_w * 2;
    } else {
        const snn::Branch& b = layer.main;
        p.weight_stream_bytes = b.stream_weight_bytes > 0
                                    ? (full.weight_stream_bytes * span) /
                                          b.out_features
                                    : b.in_features * span;
        p.spike_out_bytes = bits_to_bytes(span);
        p.membrane_bytes = span * 2;
    }
    const std::int64_t bank = config.membrane_bytes / 2;
    p.spatial_tiles = layer.spiking && p.membrane_bytes > bank
                          ? (p.membrane_bytes + bank - 1) / bank
                          : 1;
    return p;
}

}  // namespace

sim::ShardPlan SiaCompiler::compile_sharded(const snn::SnnModel& model,
                                            const ShardOptions& options) const {
    if (options.shards < 1) {
        throw std::invalid_argument(
            "SiaCompiler::compile_sharded: shards must be >= 1");
    }
    sim::ShardPlan plan;
    plan.partition = options.partition;
    plan.shards = options.shards;
    plan.program = compile(model);
    const std::size_t L = model.layers.size();

    if (options.partition == ShardPartition::kPipeline) {
        // Cut legality: a boundary before layer l forwards exactly one
        // spike train — layer l-1's output — so every layer at or after
        // l must read nothing older (model input counts as index -1).
        std::vector<std::size_t> bounds;  // candidate stage starts: {0} ∪ cuts
        bounds.push_back(0);
        for (std::size_t l = 1; l < L; ++l) {
            bool ok = true;
            for (std::size_t k = l; k < L && ok; ++k) {
                const snn::SnnLayer& layer = model.layers[k];
                auto src = static_cast<std::int64_t>(layer.input);
                if (layer.has_skip()) {
                    src = std::min(src, static_cast<std::int64_t>(layer.skip_src));
                }
                ok = src >= static_cast<std::int64_t>(l) - 1;
            }
            if (ok) bounds.push_back(l);
        }
        bounds.push_back(L);

        std::vector<std::int64_t> prefix(L + 1, 0);
        for (std::size_t i = 0; i < L; ++i) {
            prefix[i + 1] =
                prefix[i] + estimate_layer_cycles(model.layers[i],
                                                  plan.program.layers[i], config_,
                                                  options.est_density,
                                                  options.est_timesteps);
        }

        // Balanced min-max DP over the legal boundaries: split the
        // model into exactly `stages` contiguous stages minimizing the
        // largest estimated stage cost.
        const std::size_t B = bounds.size();
        const auto stages = static_cast<std::size_t>(std::min<std::int64_t>(
            options.shards, static_cast<std::int64_t>(B) - 1));
        constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max();
        // best[p][j]: min over splits of bounds[0..j] into p stages of
        // the max stage cost; from[p][j] reconstructs the split.
        std::vector<std::vector<std::int64_t>> best(
            stages + 1, std::vector<std::int64_t>(B, kInf));
        std::vector<std::vector<std::size_t>> from(
            stages + 1, std::vector<std::size_t>(B, 0));
        best[0][0] = 0;
        for (std::size_t p = 1; p <= stages; ++p) {
            for (std::size_t j = p; j < B; ++j) {
                for (std::size_t i = p - 1; i < j; ++i) {
                    if (best[p - 1][i] == kInf) continue;
                    const std::int64_t stage_cost =
                        prefix[bounds[j]] - prefix[bounds[i]];
                    const std::int64_t cand = std::max(best[p - 1][i], stage_cost);
                    if (cand < best[p][j]) {
                        best[p][j] = cand;
                        from[p][j] = i;
                    }
                }
            }
        }
        std::vector<std::size_t> ends;  // bounds indices, last to first
        for (std::size_t p = stages, j = B - 1; p > 0; --p) {
            ends.push_back(j);
            j = from[p][j];
        }
        plan.stages.resize(stages);
        std::size_t begin_idx = 0;
        for (std::size_t s = 0; s < stages; ++s) {
            const std::size_t end_idx = ends[stages - 1 - s];
            sim::ShardStage& stage = plan.stages[s];
            stage.first = bounds[begin_idx];
            stage.last = bounds[end_idx];
            stage.est_cycles = prefix[stage.last] - prefix[stage.first];
            stage.boundary_bytes =
                stage.last < L ? plan.program.layers[stage.last - 1].spike_out_bytes
                               : 0;
            begin_idx = end_idx;
        }
    } else {
        // Channel-parallel: balanced contiguous output-channel/feature
        // slices per layer; surplus shards get zero-width slices.
        plan.slices.assign(static_cast<std::size_t>(options.shards),
                           std::vector<sim::ShardSlice>(L));
        for (std::size_t l = 0; l < L; ++l) {
            const snn::SnnLayer& layer = model.layers[l];
            const std::int64_t channels = layer.op == snn::LayerOp::kConv
                                              ? layer.out_channels
                                              : layer.main.out_features;
            const std::int64_t base = channels / options.shards;
            const std::int64_t rem = channels % options.shards;
            std::int64_t c = 0;
            for (std::int64_t k = 0; k < options.shards; ++k) {
                const std::int64_t span = base + (k < rem ? 1 : 0);
                sim::ShardSlice& slice =
                    plan.slices[static_cast<std::size_t>(k)][l];
                slice.c0 = c;
                slice.c1 = c + span;
                slice.plan = slice_layer_plan(layer, plan.program.layers[l], config_,
                                              slice.c0, slice.c1);
                c += span;
            }
        }
    }
    return plan;
}

}  // namespace sia::core
