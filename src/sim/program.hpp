// Compiled hardware program: the per-layer execution plan produced by
// core::SiaCompiler and executed by sim::Sia. This is the software half
// of the "configuration" arrow in Fig. 2 — layer geometry, tiling over
// the 64-PE array and the 8 kB weight memory, transfer routes, and
// residual-memory allocation.
#pragma once

#include <cstdint>
#include <vector>

namespace sia::sim {

struct LayerPlan {
    int layer = 0;  ///< index into the SnnModel

    /// Output-channel tiles: ceil(OC / 64); each tile is one pass of the
    /// input spike stream through the PE array.
    std::int64_t oc_tiles = 1;
    /// Input channels whose kernels fit the weight memory at once.
    std::int64_t ic_chunk = 0;
    std::int64_t ic_passes = 1;

    /// Per-timestep transfer volumes (bytes).
    std::int64_t weight_stream_bytes = 0;   ///< kernels loaded per timestep
    std::int64_t spike_in_bytes = 0;        ///< input spikes (bit-packed)
    std::int64_t spike_out_bytes = 0;       ///< output spikes (bit-packed)
    std::int64_t residual_in_bytes = 0;     ///< skip partial sums from PS

    /// Membrane storage: 2 bytes per neuron in the ping-pong banks.
    std::int64_t membrane_bytes = 0;
    /// Spatial tiles: layers whose membranes exceed one ping-pong bank
    /// are processed in spatial slices that each fit (the input spike
    /// stream is re-read per slice, which is far cheaper than spilling
    /// 16-bit potentials to DDR every timestep).
    std::int64_t spatial_tiles = 1;

    /// FC layers ride the PS-mediated AXI4-lite word path.
    bool mmio = false;
};

struct CompiledProgram {
    std::vector<LayerPlan> layers;
    /// Peak weight-memory residency across layers (bytes).
    std::int64_t peak_weight_bytes = 0;
    /// Peak membrane residency across layers (bytes, one bank).
    std::int64_t peak_membrane_bytes = 0;

    /// Kernel bytes one full inference streams over the bulk DMA path
    /// (conv layers; per-inference loads, not per-timestep). This is the
    /// traffic a batched resident run pays once per wave instead of once
    /// per inference — the BRAM-residency amortization Sia::run_batch
    /// reports. MMIO-path (FC) weights re-stream per timestep and are
    /// excluded: residency does not amortize them.
    [[nodiscard]] std::int64_t dma_weight_stream_bytes() const noexcept {
        std::int64_t total = 0;
        for (const LayerPlan& p : layers) {
            if (!p.mmio) total += p.weight_stream_bytes;
        }
        return total;
    }
};

}  // namespace sia::sim
