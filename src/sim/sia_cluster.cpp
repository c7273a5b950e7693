#include "sim/sia_cluster.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <utility>

#include "sim/cost.hpp"
#include "snn/compute.hpp"

namespace sia::sim {

namespace {

std::int64_t ceil_div(std::int64_t a, std::int64_t b) noexcept {
    return b > 0 ? (a + b - 1) / b : 0;
}

}  // namespace

SiaCluster::SiaCluster(const SiaConfig& config, const snn::SnnModel& model,
                       ShardPlan plan, SiaClusterOptions options)
    : config_(config), model_(model), plan_(std::move(plan)), options_(options),
      pool_(options_.threads != 0
                ? options_.threads
                : static_cast<std::size_t>(
                      std::max<std::int64_t>(1, plan_.effective_shards()))) {
    const std::int64_t n = plan_.effective_shards();
    if (n < 1) throw std::invalid_argument("SiaCluster: plan drives no shards");
    if (plan_.program.layers.size() != model_.layers.size()) {
        throw std::invalid_argument("SiaCluster: plan/model layer count mismatch");
    }
    if (plan_.partition == ShardPartition::kPipeline) {
        if (plan_.stages.front().first != 0 ||
            plan_.stages.back().last != model_.layers.size()) {
            throw std::invalid_argument(
                "SiaCluster: pipeline stages do not cover the model");
        }
        for (std::size_t s = 1; s < plan_.stages.size(); ++s) {
            if (plan_.stages[s].first != plan_.stages[s - 1].last) {
                throw std::invalid_argument(
                    "SiaCluster: pipeline stages are not contiguous");
            }
        }
    } else {
        for (const auto& shard_slices : plan_.slices) {
            if (shard_slices.size() != model_.layers.size()) {
                throw std::invalid_argument(
                    "SiaCluster: channel slices do not cover the model");
            }
        }
    }
    // Every shard reads the one image; each keeps only its own banks.
    const auto weights = snn::compute::event_weights(model_);
    shards_.reserve(static_cast<std::size_t>(n));
    for (std::int64_t s = 0; s < n; ++s) {
        shards_.push_back(std::make_unique<Sia>(config_, model_, plan_.program, weights));
    }
}

SiaRunResult SiaCluster::run(const snn::SpikeTrain& input) {
    return std::move(run_batch(std::array{BatchItem{input}}).front());
}

std::vector<SiaRunResult> SiaCluster::run_batch(std::span<const BatchItem> items) {
    SegmentLedger ledger(model_, items, "SiaCluster::run_batch");
    stats_ = ShardStats{};
    stats_.partition = plan_.partition;
    stats_.shards = plan_.effective_shards();
    stats_.batch = items.size();
    stats_.double_buffered = options_.double_buffer;

    // Segment rounds: every unfinished item runs to its own next
    // evaluation step, the whole sub-batch crosses the cluster (pipeline
    // wavefront or channel passes), then criteria are checked and
    // retired items drop out of all subsequent rounds on every shard. A
    // criterion-free batch is exactly one round.
    std::vector<std::size_t> round;
    std::vector<Segment> segments;
    std::vector<SiaRunResult> chunks;
    std::vector<bool> done(items.size(), false);
    while (true) {
        round.clear();
        segments.clear();
        for (std::size_t i = 0; i < items.size(); ++i) {
            if (done[i]) continue;
            round.push_back(i);
            segments.push_back(ledger.next(i));
        }
        if (round.empty()) break;

        // Rounds are separated by a PS-side criterion check, so every
        // round's timeline (makespan, ramps, stalls) adds into stats_.
        chunks.assign(round.size(), {});
        if (plan_.partition == ShardPartition::kPipeline) {
            run_pipeline(segments, chunks);
        } else {
            run_channel(segments, chunks);
        }

        for (std::size_t j = 0; j < round.size(); ++j) {
            done[round[j]] = ledger.commit(round[j], std::move(chunks[j]));
        }
    }

    std::vector<SiaRunResult> results = ledger.finish();
    for (const SiaRunResult& r : results) {
        stats_.steps_executed += r.timesteps;
        stats_.steps_offered += r.steps_offered;
        if (r.timesteps < r.steps_offered) ++stats_.retired_early;
    }
    return results;
}

void SiaCluster::run_pipeline(std::span<const Segment> segments,
                              std::vector<SiaRunResult>& results) {
    const std::size_t n = segments.size();
    const std::size_t stage_count = plan_.stages.size();
    const std::size_t layer_count = model_.layers.size();

    // Per-item state shared by every stage: the full-model `outs`
    // vector (stage s-1 leaves the boundary output at its full-model
    // index, where stage s reads it) and the full-model result.
    std::vector<std::vector<snn::SpikeTrain>> outs(n);
    for (std::size_t i = 0; i < n; ++i) {
        results[i].reset(static_cast<std::int64_t>(segments[i].frames.size()),
                         model_.classes, layer_count);
        outs[i].resize(layer_count);
    }

    // Barrier wavefront: in wave k, stage s runs item k - s. The pool
    // barrier between waves gives stage s item i's data a happens-before
    // edge from stage s-1's wave; every task touches only its own
    // shard's simulator and its own item's outs/result/session, so
    // results are bit-identical at any thread count.
    std::vector<std::pair<std::size_t, std::size_t>> tasks;  // (stage, item)
    for (std::size_t wave = 0; wave + 1 <= n + stage_count - 1; ++wave) {
        tasks.clear();
        const std::size_t s_lo = wave >= n ? wave - n + 1 : 0;
        const std::size_t s_hi = std::min(stage_count - 1, wave);
        for (std::size_t s = s_lo; s <= s_hi; ++s) tasks.emplace_back(s, wave - s);
        pool_.parallel_for(tasks.size(), [&](std::size_t t, std::size_t) {
            const auto [s, i] = tasks[t];
            const ShardStage& stage = plan_.stages[s];
            shards_[s]->run_stage(stage.first, stage.last, segments[i].frames, outs[i],
                                  results[i], segments[i].session);
        });
    }

    // Timeline reconstruction from the per-item (as-if-sequential)
    // stats: stage busy cycles B[s][i], boundary transfers on a
    // per-boundary DMA link. Double-buffered transfers start as soon as
    // the producing stage finishes the item and overlap the downstream
    // shard's work on earlier items; only the exposed remainder stalls.
    // Without double-buffering the producing shard drives its own
    // transfer and stays busy for it.
    std::vector<std::vector<std::int64_t>> finish(
        stage_count, std::vector<std::int64_t>(n, 0));
    std::vector<std::int64_t> tx_free(stage_count, 0);  // boundary s feeds s+1
    for (std::size_t i = 0; i < n; ++i) {
        const auto steps = static_cast<std::int64_t>(segments[i].frames.size());
        for (std::size_t s = 0; s < stage_count; ++s) {
            const ShardStage& stage = plan_.stages[s];
            std::int64_t busy = 0;
            for (std::size_t l = stage.first; l < stage.last; ++l) {
                busy += results[i].layer_stats[l].total();
            }
            stats_.compute_cycles += busy;

            std::int64_t arrive = 0;
            std::int64_t upstream = 0;
            if (s > 0) {
                const std::int64_t bytes = plan_.stages[s - 1].boundary_bytes;
                const std::int64_t tx =
                    steps * dma_cycles(bytes, config_);
                stats_.transfer_cycles += tx;
                stats_.transfer_bytes += steps * bytes;
                upstream = finish[s - 1][i];
                if (options_.double_buffer) {
                    const std::int64_t dma_start =
                        std::max(upstream, tx_free[s - 1]);
                    tx_free[s - 1] = dma_start + tx;
                    arrive = dma_start + tx;
                } else {
                    finish[s - 1][i] += tx;
                    arrive = finish[s - 1][i];
                }
            }
            const std::int64_t prev = i > 0 ? finish[s][i - 1] : 0;
            if (s > 0) {
                stats_.transfer_stall_cycles +=
                    std::max<std::int64_t>(0, arrive - std::max(prev, upstream));
            }
            finish[s][i] = std::max(prev, arrive) + busy;
        }
        stats_.item_cycles += results[i].total_cycles();
    }
    const std::size_t last = stage_count - 1;
    std::int64_t last_busy = 0;
    for (std::size_t l = plan_.stages[last].first; l < plan_.stages[last].last; ++l) {
        last_busy += results[0].layer_stats[l].total();
    }
    stats_.makespan_cycles += finish[last][n - 1];
    stats_.fill_cycles += finish[last][0] - last_busy;
    stats_.drain_cycles += finish[last][n - 1] - finish[0][n - 1];
}

void SiaCluster::run_channel(std::span<const Segment> segments,
                             std::vector<SiaRunResult>& results) {
    const std::size_t n = segments.size();
    const std::size_t layer_count = model_.layers.size();
    const std::size_t shard_count = plan_.slices.size();

    // Shards that own at least one nonzero slice drive their controller
    // FSM through a full inference pass; fully-idle surplus shards are
    // never opened (kInit -> kDone is not a legal transition).
    std::vector<bool> active(shard_count, false);
    std::size_t active_count = 0;
    for (std::size_t k = 0; k < shard_count; ++k) {
        for (std::size_t l = 0; l < layer_count && !active[k]; ++l) {
            active[k] = plan_.slices[k][l].c1 > plan_.slices[k][l].c0;
        }
        if (active[k]) ++active_count;
    }

    for (std::size_t i = 0; i < n; ++i) {
        const Frames input = segments[i].frames;
        const auto steps = static_cast<std::int64_t>(input.size());
        results[i].reset(steps, model_.classes, layer_count);

        std::vector<SiaRunResult> shard_res(shard_count);
        for (auto& r : shard_res) r.reset(steps, model_.classes, layer_count);
        std::vector<snn::SpikeTrain> gathered(layer_count);
        std::vector<std::vector<snn::SpikeTrain>> shard_out(
            shard_count, std::vector<snn::SpikeTrain>(layer_count));

        for (std::size_t k = 0; k < shard_count; ++k) {
            if (active[k]) shards_[k]->begin_inference();
        }

        for (std::size_t l = 0; l < layer_count; ++l) {
            const snn::SnnLayer& layer = model_.layers[l];
            const Frames in =
                layer.input == -1 ? input
                                  : Frames(gathered[static_cast<std::size_t>(layer.input)]);
            Frames skip;
            if (layer.has_skip()) {
                skip = layer.skip_src == -1
                           ? input
                           : Frames(gathered[static_cast<std::size_t>(layer.skip_src)]);
            }

            // Every shard computes its slice against the full gathered
            // input; slices touch disjoint state (shard-local simulator,
            // disjoint session/logit ranges), so any thread count is
            // bit-identical.
            pool_.parallel_for(shard_count, [&](std::size_t k, std::size_t) {
                const ShardSlice& slice = plan_.slices[k][l];
                shards_[k]->run_layer_slice(l, slice.plan, in, skip,
                                            shard_out[k][l],
                                            shard_res[k].layer_stats[l],
                                            shard_res[k].logits_per_step,
                                            segments[i].session, slice.c0, slice.c1);
            });

            // All-gather: the slices are disjoint contiguous bit ranges
            // of the same geometry, so the gathered map is the word-wise
            // OR of the shard outputs.
            snn::SpikeTrain& out = gathered[l];
            out = std::move(shard_out[0][l]);
            for (std::size_t k = 1; k < shard_count; ++k) {
                for (std::size_t t = 0; t < out.size(); ++t) {
                    const auto& src = shard_out[k][l][t].raw();
                    for (std::size_t w = 0; w < src.size(); ++w) {
                        if (src[w] != 0) {
                            out[t].set_word(static_cast<std::int64_t>(w),
                                            out[t].raw()[w] | src[w]);
                        }
                    }
                }
            }
            std::int64_t spikes = 0;
            for (const auto& m : out) spikes += m.count();
            results[i].spike_counts[l] = spikes;
        }

        for (std::size_t k = 0; k < shard_count; ++k) {
            if (active[k]) shards_[k]->end_inference();
        }

        // Combine per-shard views into the per-item result: logits and
        // readout slices are disjoint (sum picks each entry up once);
        // layer_stats hold the summed per-shard work (the cluster
        // timeline lives in the ShardStats below).
        for (std::size_t l = 0; l < layer_count; ++l) {
            LayerCycleStats& combined = results[i].layer_stats[l];
            combined.label = model_.layers[l].label;
            for (std::size_t k = 0; k < shard_count; ++k) {
                combined += shard_res[k].layer_stats[l];
            }
            results[i].neuron_counts.push_back(model_.layers[l].neurons());
        }
        for (std::size_t t = 0; t < results[i].logits_per_step.size(); ++t) {
            auto& row = results[i].logits_per_step[t];
            for (std::size_t k = 0; k < shard_count; ++k) {
                const auto& src = shard_res[k].logits_per_step[t];
                for (std::size_t j = 0; j < row.size(); ++j) row[j] += src[j];
            }
        }

        // Cluster timeline: per layer the critical path is the slowest
        // shard; between layers the all-gather is double-buffered
        // behind the producing layer's compute (per-timestep transfers
        // start as each step's output is packed; the last step's gather
        // is never hidable).
        for (std::size_t l = 0; l < layer_count; ++l) {
            std::int64_t critical = 0;
            for (std::size_t k = 0; k < shard_count; ++k) {
                const std::int64_t total = shard_res[k].layer_stats[l].total();
                stats_.compute_cycles += total;
                critical = std::max(critical, total);
            }
            stats_.makespan_cycles += critical;
            if (l + 1 < layer_count && active_count > 1) {
                const std::int64_t full_bytes =
                    plan_.program.layers[l].spike_out_bytes;
                const std::int64_t g = dma_cycles(full_bytes, config_);
                const std::int64_t total_tx = steps * g;
                const std::int64_t exposed =
                    options_.double_buffer
                        ? g + std::max<std::int64_t>(
                                  0, (total_tx - g) -
                                         (critical - ceil_div(critical, steps)))
                        : total_tx;
                stats_.transfer_cycles += total_tx;
                stats_.transfer_bytes +=
                    steps * full_bytes *
                    static_cast<std::int64_t>(active_count - 1);
                stats_.transfer_stall_cycles += exposed;
                stats_.makespan_cycles += exposed;
            }
        }
    }
    // item_cycles stays 0: a sliced run has no exact single-Sia baseline
    // (per-shard stats overlap); the bench derives speedups from the
    // 1-shard row.
}

}  // namespace sia::sim
