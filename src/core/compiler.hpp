// SIA compiler: maps a converted SnnModel onto the accelerator's
// physical constraints (Fig. 2 "configuration"), producing the
// sim::CompiledProgram executed by the cycle-accurate simulator.
//
// Responsibilities:
//   * tile output channels over the 64-PE array (ceil(OC/64) passes);
//   * pack kernels into the 8 kB weight memory — each PE owns one
//     kernel slot of weight_bytes/64 bytes; kernels larger than a slot
//     split into input-channel chunks streamed in multiple passes;
//   * route FC layers over the PS-mediated AXI4-lite word path;
//   * compute per-timestep transfer volumes (spikes in/out, kernels,
//     residual partial sums) and membrane-memory residency, splitting a
//     layer into spatial tiles when its potentials exceed one ping-pong
//     bank;
//   * cut pipeline shards balanced on the sim/cost.hpp cycle model, the
//     same functions sim::Sia charges.
#pragma once

#include <cstdint>

#include "sim/config.hpp"
#include "sim/program.hpp"
#include "sim/shard.hpp"
#include "snn/model.hpp"

namespace sia::core {

/// Serving-layer aliases for the sharding vocabulary (the plan types
/// live with the simulator that executes them).
using ShardPartition = sim::ShardPartition;
using ShardPlan = sim::ShardPlan;

/// Options for SiaCompiler::compile_sharded.
struct ShardOptions {
    ShardPartition partition = ShardPartition::kPipeline;
    /// Accelerators to partition across (>= 1). The planner may use
    /// fewer (ShardPlan::effective_shards) when the model cannot be cut
    /// that finely.
    std::int64_t shards = 2;
    /// Estimated spike density for the pipeline balance estimate — no
    /// runtime profile exists at compile time, so stage costs use this
    /// nominal event rate.
    double est_density = 0.05;
    /// Nominal timesteps for the balance estimate (the paper's T = 8).
    std::int64_t est_timesteps = 8;
};

class SiaCompiler {
public:
    explicit SiaCompiler(sim::SiaConfig config = {}) : config_(config) {}

    /// Compile; throws std::invalid_argument naming the offending layer
    /// (index + kind + label) if a layer cannot be scheduled at all.
    [[nodiscard]] sim::CompiledProgram compile(const snn::SnnModel& model) const;

    /// Partition `model` across options.shards accelerators. The
    /// returned plan embeds the full compile() program plus either the
    /// balanced stage cuts (kPipeline; only cuts where every downstream
    /// layer reads nothing older than the boundary layer are legal, so
    /// exactly one spike train crosses each boundary) or the per-layer
    /// contiguous channel slices with sliced LayerPlans (kChannel).
    /// Throws std::invalid_argument for shards < 1.
    [[nodiscard]] sim::ShardPlan compile_sharded(const snn::SnnModel& model,
                                                 const ShardOptions& options) const;

    [[nodiscard]] const sim::SiaConfig& config() const noexcept { return config_; }

private:
    sim::SiaConfig config_;
};

}  // namespace sia::core
