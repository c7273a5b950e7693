// SIA cycle model (§III, Table I): the one place the accelerator's
// cycle formulas live. sim::Sia charges every layer it runs through
// entry_cost and step_cost with the spike counts it observes;
// core::SiaCompiler's shard planner balances pipeline stages on the
// same two functions with nominal spike counts.
//
//   * PE array: every input spike runs one event-driven kernel window
//     (SiaConfig::window_cycles: 10 cycles at 3x3) per 64-lane output
//     tile, whatever the weight-memory chunking of its input channels;
//   * aggregation: 16 batch-norm lanes retire 16 neurons per cycle after
//     the pipeline fills, once per tile;
//   * transport: conv kernels, spikes and residual inputs stream over
//     DMA; AXI4-lite FC layers move weights, spikes and results as
//     564-cycle words every timestep (Fig. 4);
//   * PS: a fixed invocation overhead (~0.88 ms) per layer entry.
#pragma once

#include <cstdint>
#include <string>

#include "sim/config.hpp"
#include "sim/program.hpp"
#include "snn/model.hpp"

namespace sia::sim {

/// Cycle breakdown for one layer, totalled over a whole inference.
struct LayerCycleStats {
    std::string label;
    std::int64_t compute = 0;    ///< PE-array event-driven accumulation
    std::int64_t aggregate = 0;  ///< BN + activation pipeline retirement
    std::int64_t dma = 0;        ///< bulk spike/weight/residual streaming
    std::int64_t mmio = 0;       ///< PS-mediated AXI4-lite word transfers
    std::int64_t overhead = 0;   ///< per-layer PS invocation overhead

    std::int64_t input_spike_events = 0;  ///< spikes processed (x tiles)
    std::int64_t event_additions = 0;     ///< actual weight accumulations
    std::uint64_t dense_ops = 0;          ///< dense CNN-equivalent ops (2/MAC)

    [[nodiscard]] std::int64_t total() const noexcept {
        return compute + aggregate + dma + mmio + overhead;
    }

    /// Accumulate another pass over the same layer (the chunked
    /// early-exit schedule totals per-chunk stats into one run).
    LayerCycleStats& operator+=(const LayerCycleStats& o) noexcept {
        if (label.empty()) label = o.label;
        compute += o.compute;
        aggregate += o.aggregate;
        dma += o.dma;
        mmio += o.mmio;
        overhead += o.overhead;
        input_spike_events += o.input_spike_events;
        event_additions += o.event_additions;
        dense_ops += o.dense_ops;
        return *this;
    }
};

/// Cycles to stream `bytes` PL<->DDR over the bulk DMA path: rounded up,
/// and at least one cycle for any nonzero transfer; 0 for bytes <= 0.
[[nodiscard]] std::int64_t dma_cycles(std::int64_t bytes, const SiaConfig& config) noexcept;

/// Cycles to move `bytes` as PS-driven AXI4-lite 32-bit words (a partial
/// word costs a whole one).
[[nodiscard]] std::int64_t mmio_cycles(std::int64_t bytes, const SiaConfig& config) noexcept;

/// Cycles to retire `neurons` results through the pipelined
/// BN-multiply + compare datapath: `lanes` results per cycle after a
/// `pipeline_depth`-cycle fill; 0 for no neurons.
[[nodiscard]] std::int64_t retire_cycles(std::int64_t neurons, std::int64_t lanes,
                                         std::int64_t pipeline_depth) noexcept;

/// Cost of entering `layer` under `plan`: the PS invocation overhead
/// plus, for a conv layer, its kernel stream over DMA. Fills `overhead`
/// and `dma`. This is also what a resident batch pays once per layer
/// per pass instead of once per member.
[[nodiscard]] LayerCycleStats entry_cost(const snn::SnnLayer& layer, const LayerPlan& plan,
                                         const SiaConfig& config);

/// Cost of one timestep of `layer` under `plan` over `span` output
/// channels (conv) or features (linear), given the step's main-branch
/// and 1x1 conv-skip input spike counts (`skip_spikes` is ignored
/// unless the layer has a conv skip). Fills `compute`, `aggregate`,
/// `dma`, `mmio`, `input_spike_events`, `event_additions` and
/// `dense_ops`.
[[nodiscard]] LayerCycleStats step_cost(const snn::SnnLayer& layer, const LayerPlan& plan,
                                        const SiaConfig& config, std::int64_t span,
                                        std::int64_t spikes, std::int64_t skip_spikes);

}  // namespace sia::sim
