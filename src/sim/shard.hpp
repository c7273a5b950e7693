// Multi-accelerator sharding: the partition plan produced by
// core::SiaCompiler::compile_sharded and the cluster-level cycle
// accounting reported by sim::SiaCluster.
//
// Two partition strategies over N Sia instances:
//
//   * kPipeline — the layer sequence is cut into P contiguous stages,
//     balanced by estimated cycle cost; items flow through the stages
//     wave-style, with each stage's boundary spike train DMA'd to the
//     next shard (double-buffered so transfers hide behind compute).
//   * kChannel — every layer's output channels (conv) / features (FC)
//     are split into P contiguous slices; all shards run every layer on
//     their slice, then all-gather the packed SpikeMap words before the
//     next layer.
//
// Both are bit-identical to single-Sia execution: the numerics are the
// same multiset of exact int32 additions (order-independent), routed
// through the same snn::compute kernels.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/config.hpp"
#include "sim/program.hpp"

namespace sia::sim {

enum class ShardPartition : std::uint8_t {
    kPipeline,  ///< contiguous layer stages, one per shard
    kChannel,   ///< per-layer output-channel slices, all-gather between layers
};

[[nodiscard]] constexpr const char* to_string(ShardPartition p) noexcept {
    return p == ShardPartition::kPipeline ? "pipeline" : "channel";
}

/// One pipeline stage: the contiguous layer range a shard owns.
struct ShardStage {
    std::size_t first = 0;  ///< first layer index (inclusive)
    std::size_t last = 0;   ///< past-the-end layer index
    /// Static cycle estimate the planner balanced on (est_density model).
    std::int64_t est_cycles = 0;
    /// Per-timestep bytes of the boundary spike train forwarded to the
    /// next stage (0 for the final stage).
    std::int64_t boundary_bytes = 0;
};

/// One channel-parallel slice: the output-channel/feature range
/// [c0, c1) a shard owns for one layer, plus the sliced LayerPlan the
/// shard executes (sliced tiling, transfer volumes, and membrane
/// residency; geometry-input fields stay full-model).
struct ShardSlice {
    std::int64_t c0 = 0;
    std::int64_t c1 = 0;
    LayerPlan plan;
};

/// The complete partitioning of one compiled model across N shards.
struct ShardPlan {
    ShardPartition partition = ShardPartition::kPipeline;
    /// Shards requested; the planner may drive fewer (effective_shards).
    std::int64_t shards = 1;
    /// The full-model program (every shard's Sia instance references
    /// it; sliced plans in `slices` override per-layer execution).
    CompiledProgram program;
    /// kPipeline: one entry per stage, in layer order.
    std::vector<ShardStage> stages;
    /// kChannel: slices[shard][layer].
    std::vector<std::vector<ShardSlice>> slices;

    /// Shards the plan actually uses: a pipeline cannot have more
    /// stages than (legal-cut-bounded) layers; a channel partition
    /// keeps zero-width slices for surplus shards.
    [[nodiscard]] std::int64_t effective_shards() const noexcept {
        return partition == ShardPartition::kPipeline
                   ? static_cast<std::int64_t>(stages.size())
                   : static_cast<std::int64_t>(slices.size());
    }
};

/// Cluster-level accounting of one SiaCluster::run_batch call. Per-item
/// SiaRunResults keep as-if-sequential stats (that is what makes them
/// bit-identical to run()); the cluster timeline — overlap, transfer
/// exposure, pipeline ramp — lives here.
struct ShardStats {
    ShardPartition partition = ShardPartition::kPipeline;
    std::int64_t shards = 1;  ///< effective shards driven
    std::size_t batch = 0;
    bool double_buffered = true;

    /// Busy cycles summed over every shard (work executed, not wall).
    std::int64_t compute_cycles = 0;
    /// Inter-shard wire traffic (boundary forwards / all-gathers).
    std::int64_t transfer_bytes = 0;
    /// Total boundary DMA cycles (sim::dma_cycles), hidden or not.
    std::int64_t transfer_cycles = 0;
    /// Portion of the makespan spent waiting on transfers (the part
    /// double-buffering failed to hide).
    std::int64_t transfer_stall_cycles = 0;
    /// Pipeline ramp: cycles before the last stage starts its first
    /// item, and after the first stage finishes its last one.
    std::int64_t fill_cycles = 0;
    std::int64_t drain_cycles = 0;
    /// Modeled end-to-end cluster cycles for the whole batch.
    std::int64_t makespan_cycles = 0;
    /// Single-Sia-equivalent serial cycles of the same batch (the sum
    /// of per-item totals). Exact for kPipeline, where per-item stats
    /// are bit-identical to run(); 0 for kChannel, where per-shard
    /// stats overlap and the baseline must be measured separately.
    std::int64_t item_cycles = 0;

    /// Items an armed ExitCriterion retired before their full train —
    /// retirement drops the item out of every subsequent chunk round on
    /// every shard of the cluster.
    std::int64_t retired_early = 0;
    /// Timesteps actually integrated vs offered across the batch.
    std::int64_t steps_executed = 0;
    std::int64_t steps_offered = 0;

    /// Fold a later batch in: `partition`, `shards` and
    /// `double_buffered` take the later value; every other field adds.
    ShardStats& operator+=(const ShardStats& other) noexcept {
        partition = other.partition;
        shards = other.shards;
        double_buffered = other.double_buffered;
        batch += other.batch;
        compute_cycles += other.compute_cycles;
        transfer_bytes += other.transfer_bytes;
        transfer_cycles += other.transfer_cycles;
        transfer_stall_cycles += other.transfer_stall_cycles;
        fill_cycles += other.fill_cycles;
        drain_cycles += other.drain_cycles;
        makespan_cycles += other.makespan_cycles;
        item_cycles += other.item_cycles;
        retired_early += other.retired_early;
        steps_executed += other.steps_executed;
        steps_offered += other.steps_offered;
        return *this;
    }

    /// Serial-to-cluster cycle ratio (0 when no exact baseline).
    [[nodiscard]] double speedup() const noexcept {
        return makespan_cycles > 0 && item_cycles > 0
                   ? static_cast<double>(item_cycles) /
                         static_cast<double>(makespan_cycles)
                   : 0.0;
    }

    [[nodiscard]] double items_per_second(const SiaConfig& config) const noexcept {
        if (makespan_cycles <= 0) return 0.0;
        const double seconds =
            static_cast<double>(makespan_cycles) / (config.clock_mhz * 1e6);
        return static_cast<double>(batch) / seconds;
    }
};

}  // namespace sia::sim
