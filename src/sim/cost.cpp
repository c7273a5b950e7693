#include "sim/cost.hpp"

namespace sia::sim {

std::int64_t dma_cycles(std::int64_t bytes, const SiaConfig& config) noexcept {
    if (bytes <= 0) return 0;
    const auto cycles = static_cast<std::int64_t>(
        static_cast<double>(bytes) / config.dma_bytes_per_cycle + 0.999999);
    // A nonzero transfer costs at least one cycle even when
    // dma_bytes_per_cycle exceeds the byte count so far that the
    // rounding term truncates away.
    return cycles > 0 ? cycles : 1;
}

std::int64_t mmio_cycles(std::int64_t bytes, const SiaConfig& config) noexcept {
    return (bytes + 3) / 4 * config.mmio_cycles_per_word;
}

std::int64_t retire_cycles(std::int64_t neurons, std::int64_t lanes,
                           std::int64_t pipeline_depth) noexcept {
    if (neurons <= 0) return 0;
    return (neurons + lanes - 1) / lanes + pipeline_depth;
}

LayerCycleStats entry_cost(const snn::SnnLayer& layer, const LayerPlan& plan,
                           const SiaConfig& config) {
    LayerCycleStats s;
    s.overhead = config.ps_layer_overhead_cycles;
    // Conv kernels stay resident for the layer's whole timestep loop;
    // FC weights re-stream every step (step_cost).
    if (layer.op == snn::LayerOp::kConv) s.dma = dma_cycles(plan.weight_stream_bytes, config);
    return s;
}

LayerCycleStats step_cost(const snn::SnnLayer& layer, const LayerPlan& plan,
                          const SiaConfig& config, std::int64_t span, std::int64_t spikes,
                          std::int64_t skip_spikes) {
    const snn::Branch& b = layer.main;
    const bool conv = layer.op == snn::LayerOp::kConv;
    const std::int64_t kernel = conv ? b.kernel : 1;
    const std::int64_t plane = conv ? layer.out_h * layer.out_w : 1;
    const std::int64_t fan_in = conv ? b.in_channels * kernel * kernel : b.in_features;

    // Every spike runs one kernel window per output tile; the IC passes
    // partition the input channels, so the chunking adds no term.
    LayerCycleStats s;
    s.compute = spikes * SiaConfig::window_cycles(kernel) * plan.oc_tiles;
    s.input_spike_events = spikes * plan.oc_tiles;
    s.event_additions = spikes * kernel * kernel * span;
    s.dense_ops = static_cast<std::uint64_t>(span * plane * fan_in) * 2ULL;
    s.aggregate = retire_cycles(span * plane, config.aggregation_lanes,
                                plan.oc_tiles * config.aggregation_pipeline_depth);

    if (!conv) {
        // FC: weights, the input spike vector and the results every step.
        if (plan.mmio) {
            s.mmio = mmio_cycles(plan.weight_stream_bytes, config) +
                     mmio_cycles(plan.spike_in_bytes, config) + mmio_cycles(span * 4, config);
        } else {
            s.dma = dma_cycles(plan.weight_stream_bytes + plan.spike_in_bytes, config);
        }
        return s;
    }
    // Conv: input spikes re-read per output and spatial tile, output
    // spikes written back, residual input staged from the PS.
    s.dma = dma_cycles(plan.spike_in_bytes * plan.oc_tiles * plan.spatial_tiles, config) +
            dma_cycles(plan.spike_out_bytes, config);
    if (layer.has_skip()) {
        s.dma += dma_cycles(plan.residual_in_bytes, config);
        if (!layer.skip_is_identity) {
            s.compute += skip_spikes * SiaConfig::window_cycles(1) * plan.oc_tiles;
            s.input_spike_events += skip_spikes * plan.oc_tiles;
            s.event_additions += skip_spikes * span;
            s.dense_ops += static_cast<std::uint64_t>(span * plane * layer.skip.in_channels) * 2ULL;
        }
    }
    return s;
}

}  // namespace sia::sim
