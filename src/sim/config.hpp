// Hardware configuration of the Spiking Inference Accelerator (SIA).
//
// Defaults reproduce the paper's PYNQ-Z2 prototype (§III-IV): an 8x8
// array of 64 PEs at 100 MHz, the §III-D memory provisioning, AXI4-lite
// PS<->PL transport, and the per-layer processor-invocation overhead
// observed in Table I (see EXPERIMENTS.md "latency model calibration").
#pragma once

#include <cstdint>

namespace sia::sim {

struct SiaConfig {
    // Spiking core.
    std::int64_t pe_rows = 8;
    std::int64_t pe_cols = 8;
    double clock_mhz = 100.0;

    /// Ops per PE per cycle for throughput accounting: 3 multiplexer
    /// selects + 3 additions through the row accumulator — the
    /// convention behind the paper's 38.4 GOPS / 0.6 GOPS-per-PE.
    int ops_per_pe_cycle = 6;

    // Memory unit (§III-D), in bytes.
    std::int64_t incoming_spike_bytes = 128;        ///< input spike staging buffer
    std::int64_t residual_bytes = 128 * 1024;       ///< residual-layer partial sums
    std::int64_t membrane_bytes = 64 * 1024;        ///< ping-pong U1+U2 total
    std::int64_t weight_bytes = 8 * 1024;           ///< up to 64 kernels
    std::int64_t output_bytes = 56 * 1024;          ///< output spikes

    // PS <-> PL transport.
    /// DMA-style streaming throughput for bulk conv-layer transfers
    /// (spikes, kernels): bytes moved per PL clock cycle.
    double dma_bytes_per_cycle = 4.0;
    /// PS-mediated AXI4-lite single-word (4 B) transaction cost in PL
    /// cycles. Dominates the FC rows of Table I; calibrated so the
    /// FC 512x10 layer at T=8 lands at the paper's 58.9 ms.
    std::int64_t mmio_cycles_per_word = 564;
    /// Fixed per-layer processor invocation overhead (driver call,
    /// configuration writes) in PL cycles. Table I's conv rows are
    /// dominated by this ~0.88 ms term.
    std::int64_t ps_layer_overhead_cycles = 88000;

    // Aggregation core: 16 parallel batch-norm multiplier lanes (one
    // DSP48 each — the source of Table III's 16-of-17 DSPs) retire 16
    // neurons per cycle after the pipeline fills.
    std::int64_t aggregation_lanes = 16;
    std::int64_t aggregation_pipeline_depth = 4;

    /// Batched (resident) execution: number of per-inference membrane
    /// contexts the U1/U2 ping-pong memory is partitioned into when one
    /// Sia instance interleaves several inferences (Sia::run_batch).
    /// Each in-flight inference owns membrane_bytes / (2 * membrane_banks)
    /// bytes per phase; batches larger than this run in multiple passes.
    std::int64_t membrane_banks = 4;

    /// Memberwise equality over every field. Load-bearing: this is the
    /// cache key for core::BatchRunner's SiaBackend (compiled program +
    /// per-worker resident simulators), so a new field added here is
    /// automatically part of the key — any changed field reliably
    /// invalidates both caches (asserted by tests/test_backend.cpp).
    [[nodiscard]] bool operator==(const SiaConfig&) const = default;

    [[nodiscard]] std::int64_t pe_count() const noexcept { return pe_rows * pe_cols; }

    [[nodiscard]] double peak_gops() const noexcept {
        return static_cast<double>(pe_count()) * static_cast<double>(ops_per_pe_cycle) *
               clock_mhz * 1e6 / 1e9;
    }

    [[nodiscard]] double cycles_to_ms(std::int64_t cycles) const noexcept {
        return static_cast<double>(cycles) / (clock_mhz * 1e3);
    }

    /// Cycles for one event-driven kernel window on a PE: the paper's
    /// 3 cycles per kernel row (one 8-bit add per weight through the
    /// single adder, 3 weights selected by the 3 multiplexers) times the
    /// number of row segments, plus 1 cycle to emit the partial sum.
    /// k=3 -> 10 cycles, exactly §III-A.
    [[nodiscard]] static std::int64_t window_cycles(std::int64_t kernel) noexcept {
        const std::int64_t segments_per_row = (kernel + 2) / 3;
        return kernel * segments_per_row * 3 + 1;
    }
};

}  // namespace sia::sim
