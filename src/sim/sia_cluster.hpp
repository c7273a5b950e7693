// Cluster executor: one compiled model partitioned across N resident
// sim::Sia instances (sim/shard.hpp's ShardPlan), driven wave-style off
// util::ThreadPool.
//
// kPipeline: shard s owns stage s's contiguous layers. Items flow
// through the stages as a wavefront — in wave k, stage s runs item
// k - s — with a pool barrier between waves, so stage s-1's write of
// the shared per-item `outs` vector happens-before stage s's read. Each
// task touches only its own shard's simulator state and its own item's
// result, which is what makes per-item results bit-identical to
// single-Sia run() at any thread count. Boundary spike trains are
// modeled as DMA transfers (sim::dma_cycles) on a per-boundary link; with
// double-buffering a transfer overlaps the downstream shard's work on
// the previous item, and only the exposed remainder stalls
// (ShardStats::transfer_stall_cycles). Pipeline fill/drain ramps are
// reported explicitly.
//
// kChannel: every shard runs every layer on its contiguous
// output-channel slice against the full gathered input, then the packed
// SpikeMap words are all-gathered (word-wise OR — slices are disjoint
// bit ranges) before the next layer. The per-timestep gather is
// double-buffered behind the producing layer's compute; the last
// timestep's gather is never hidable.
//
// Both modes: logits, spikes, and session state bit-identical to
// single-Sia execution (the same multiset of exact int32 additions).
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "sim/config.hpp"
#include "sim/segment_ledger.hpp"
#include "sim/shard.hpp"
#include "sim/sia.hpp"
#include "snn/model.hpp"
#include "snn/spike.hpp"
#include "util/thread_pool.hpp"

namespace sia::sim {

struct SiaClusterOptions {
    /// Worker threads driving the shards; 0 = one per effective shard.
    std::size_t threads = 0;
    /// Double-buffer inter-shard transfers (overlap with compute). When
    /// false every transfer serializes after the producing compute —
    /// the ablation baseline for the BENCH_SHARD curve.
    bool double_buffer = true;
};

class SiaCluster {
public:
    /// `model` must outlive the cluster; `plan` is taken by value (the
    /// resident Sia instances reference plan().program). The shards share
    /// one weight image of `model`, built here.
    SiaCluster(const SiaConfig& config, const snn::SnnModel& model, ShardPlan plan,
               SiaClusterOptions options = {});

    /// One stateless inference over the whole train (a one-item batch).
    [[nodiscard]] SiaRunResult run(const snn::SpikeTrain& input);

    /// Run a batch across the cluster. Items follow Sia::run_batch's
    /// contract (sim/segment_ledger.hpp): admission validates every item
    /// first, sessions are committed only once the whole batch
    /// completes, and two windows of one session must not share a
    /// batch. Items run in segment rounds ending at their own next
    /// evaluation step; a retired item drops out of all subsequent
    /// rounds' pipeline waves / channel passes on every shard, and a
    /// criterion-free batch is a single round. Per-item results are
    /// bit-identical to single-Sia runs at any shard and thread count:
    /// for kPipeline including every cycle stat; for kChannel the
    /// logits/spikes/sessions are bit-identical while layer_stats hold
    /// the per-shard work summed (the cluster timeline lives in
    /// last_stats()).
    [[nodiscard]] std::vector<SiaRunResult> run_batch(std::span<const BatchItem> items);

    /// Cluster accounting of the most recent run_batch call.
    [[nodiscard]] const ShardStats& last_stats() const noexcept { return stats_; }

    [[nodiscard]] const ShardPlan& plan() const noexcept { return plan_; }
    [[nodiscard]] const SiaConfig& config() const noexcept { return config_; }
    [[nodiscard]] std::int64_t shard_count() const noexcept {
        return static_cast<std::int64_t>(shards_.size());
    }

private:
    /// One round's layer-major passes over `segments` (results[i] for
    /// segments[i]); each accumulates its timeline into stats_.
    void run_pipeline(std::span<const Segment> segments,
                      std::vector<SiaRunResult>& results);
    void run_channel(std::span<const Segment> segments,
                     std::vector<SiaRunResult>& results);

    SiaConfig config_;
    const snn::SnnModel& model_;
    ShardPlan plan_;  // by value: shards_ reference plan_.program
    SiaClusterOptions options_;
    std::vector<std::unique_ptr<Sia>> shards_;
    util::ThreadPool pool_;
    ShardStats stats_;
};

}  // namespace sia::sim
