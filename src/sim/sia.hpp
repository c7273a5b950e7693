// Top-level cycle-accurate SIA simulator (Fig. 2 / Fig. 4 / Fig. 5).
//
// Executes a compiled SnnModel layer-major, exactly as the paper's
// implementation flow describes: a layer's spikes and kernels are
// streamed into the block RAMs, the PE array performs event-driven
// spiking convolution for every timestep (membrane potentials ping-pong
// between the U1/U2 banks), results pass through the aggregation core,
// and output spikes are written back — then the next layer runs.
//
// Numerics go through snn::compute (shared with the functional engine),
// so the simulated spikes/logits are bit-identical to the reference by
// construction; what this class adds is the hardware's occupancy (the
// controller FSM, the ping-pong membrane and output BRAM banks) and its
// cycles, charged per layer entry and per timestep through sim/cost.hpp.
// Its psum kernels are the functional engine's (the event conv kernel and
// linear_psum_range, over this instance's channel slice), reading the
// model's one read-only snn::compute::WeightImage, built once per model
// and shared by every executor that runs it (a backend's workers, a
// cluster's shards), as the weight BRAM keeps a layer's kernels for
// every timestep and inference; an instance owns only mutable state.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sim/config.hpp"
#include "sim/cost.hpp"
#include "sim/controller.hpp"
#include "sim/memory.hpp"
#include "sim/program.hpp"
#include "snn/compute.hpp"
#include "snn/engine.hpp"
#include "snn/exit.hpp"
#include "snn/model.hpp"
#include "snn/session.hpp"
#include "snn/spike.hpp"

namespace sia::sim {

/// A read-only view of consecutive timestep frames (a whole train or a
/// segment of one).
using Frames = std::span<const snn::SpikeMap>;

/// A Sia run's result: the engine's RunResult (logits, readout, spike
/// counts, timesteps, exit reason) plus the modeled per-layer cycle
/// stats. `layer_dispatch`, FunctionalEngine's kernel counters, stays
/// empty.
struct SiaRunResult : snn::RunResult {
    std::vector<LayerCycleStats> layer_stats;

    [[nodiscard]] std::int64_t total_cycles() const noexcept;
    /// Clear to a `timesteps`-long run with zeroed logit rows and
    /// `layer_count` empty per-layer slots (a pass's starting point).
    void reset(std::int64_t timesteps, std::int64_t classes, std::size_t layer_count);
    /// Accumulate a later segment of the same item's run: appends logit
    /// rows, adds per-layer stats and spike counts, advances timesteps.
    void append_chunk(SiaRunResult&& chunk);
    [[nodiscard]] double total_ms(const SiaConfig& config) const noexcept {
        return config.cycles_to_ms(total_cycles());
    }
    /// Dense CNN-equivalent throughput over PL busy time — the GOPS
    /// convention of the paper's Table IV.
    [[nodiscard]] double effective_gops(const SiaConfig& config) const noexcept;
    /// Fraction of PE-array add slots actually used while computing.
    [[nodiscard]] double pe_utilization(const SiaConfig& config) const noexcept;
};

/// One inference of a batch. `frames` views the caller's train (it must
/// outlive the run_batch call). `session` (null = stateless) resumes the
/// item's carried state and receives it back once the whole batch
/// completes; `exit` (null or disabled = run the whole train) retires
/// the item once its criterion fires.
struct BatchItem {
    Frames frames;
    snn::SessionState* session = nullptr;
    const snn::ExitCriterion* exit = nullptr;
};

/// Stateless, criterion-free items viewing `trains`.
[[nodiscard]] std::vector<BatchItem> as_batch(std::span<const snn::SpikeTrain> trains);

/// Aggregate accounting of one Sia::run_batch call: what the resident
/// schedule shares across each pass versus what N independent sequential
/// runs would pay. Per-item SiaRunResults keep as-if-sequential stats
/// (that is what makes them bit-identical to run()); the amortization
/// lives here.
struct SiaBatchStats {
    std::size_t batch = 0;
    std::int64_t banks = 0;  ///< membrane contexts available per pass

    /// Per-context phase-bank slice of the pass partitioning (bytes).
    std::int64_t membrane_slice_bytes = 0;
    /// True when every layer's potentials fit the per-context slice, i.e.
    /// the pass's inferences are genuinely membrane-resident. When false,
    /// overflow potentials are host-mirrored (numerically identical and —
    /// like all membrane traffic — uncharged beyond the plan-based
    /// accounting), so the reported cycle amortization assumes membrane
    /// capacity the partitioned banks do not actually have.
    bool membrane_resident = true;

    /// Conv-kernel DMA traffic of the resident schedule (streamed once
    /// per pass) vs. N independent runs (streamed once per inference).
    std::int64_t weight_bytes_streamed = 0;
    std::int64_t weight_bytes_sequential = 0;

    /// Modeled accelerator cycles: resident = sequential minus, per pass
    /// and layer, (active members - 1) x the layer's entry_cost (the
    /// conv kernel stream and the PS layer invocation, shared by the
    /// pass).
    std::int64_t resident_cycles = 0;
    std::int64_t sequential_cycles = 0;

    /// Sequential-to-resident cycle ratio (>= 1 when batching helps).
    [[nodiscard]] double amortization() const noexcept {
        return resident_cycles > 0
                   ? static_cast<double>(sequential_cycles) /
                         static_cast<double>(resident_cycles)
                   : 1.0;
    }

    // ---- Ragged-retirement accounting ---------------------------------
    /// Items whose ExitCriterion fired before their offered timesteps.
    std::int64_t retired_early = 0;
    /// Admissions into a freed bank slot while at least one other slot
    /// was still occupied by an unfinished item (0 when no criterion is
    /// armed: every cohort then finishes together).
    std::int64_t backfills = 0;
    /// Layer-major segment passes executed: one per ceil(N / banks)
    /// cohort when no criterion is armed. Weights are re-streamed once
    /// per pass, which is the honest hardware cost of PS-side criterion
    /// checks (amortized by ExitCriterion::check_interval).
    std::int64_t chunk_passes = 0;
    /// Timesteps actually integrated vs offered, summed over the batch.
    std::int64_t steps_executed = 0;
    std::int64_t steps_offered = 0;
    /// Per-item timesteps integrated, in batch order (retired-at-step
    /// accounting; equals the offered length for items that never exit).
    std::vector<std::int64_t> retired_at;

    /// Fold a later batch in: counters add, `banks` takes the max,
    /// `membrane_slice_bytes` the later value, `membrane_resident` holds
    /// only if both did, and `retired_at` appends.
    SiaBatchStats& operator+=(const SiaBatchStats& other);
};

class Sia {
public:
    /// `model` and `program` must outlive the Sia instance. Builds the
    /// model's own image (snn::compute::event_weights).
    Sia(const SiaConfig& config, const snn::SnnModel& model,
        const CompiledProgram& program);
    /// As above, reading `weights`, which other executors (a backend's
    /// workers, a cluster's shards) may share. Throws
    /// std::invalid_argument when the image does not fit `model`
    /// (WeightImage::fits).
    Sia(const SiaConfig& config, const snn::SnnModel& model, const CompiledProgram& program,
        std::shared_ptr<const snn::compute::WeightImage> weights);

    /// One stateless inference over the whole train (a one-item batch).
    [[nodiscard]] SiaRunResult run(const snn::SpikeTrain& input);
    /// One session window with an exit criterion (a one-item batch;
    /// pass a default, disabled criterion to run the whole window).
    [[nodiscard]] SiaRunResult run(const snn::SpikeTrain& input,
                                   snn::SessionState& session,
                                   const snn::ExitCriterion& exit);

    /// Batched resident execution: weights and the compiled program stay
    /// resident while up to config().membrane_banks items share the
    /// accelerator, each owning one membrane-bank context; every pass
    /// runs the model layer-major over the occupied slots' segments
    /// (sim/segment_ledger.hpp). An item with no armed criterion is one
    /// segment, so a criterion-free batch runs in ceil(N / banks)
    /// passes. An armed criterion splits its item at the criterion's
    /// evaluation points; the item retires the moment it fires, and its
    /// slot back-fills from the pending queue at the next pass.
    ///
    /// Per-item results — spikes, logits, readout, exit step and cycle
    /// stats — are bit-identical to the item run alone, for every batch
    /// composition; what the resident schedule saves (per-pass weight
    /// streaming and PS layer invocation) is reported via
    /// last_batch_stats() instead. Sessions are committed only once the
    /// whole batch completes (a throw leaves them untouched). A batch
    /// must not contain two windows of the same session; serialize them
    /// across calls, as core::Server's session affinity does. Throws
    /// std::invalid_argument on malformed items before running any.
    [[nodiscard]] std::vector<SiaRunResult> run_batch(std::span<const BatchItem> items);

    /// Accounting of the most recent run_batch call.
    [[nodiscard]] const SiaBatchStats& last_batch_stats() const noexcept {
        return batch_stats_;
    }

    // ---- Sharded execution (driven by sim::SiaCluster) ----------------

    /// Open one sharded inference pass: restore single-inference membrane
    /// partitioning and bring the controller FSM to kInit.
    void begin_inference();
    /// Close the controller FSM of a sharded inference pass.
    void end_inference();

    /// Pipeline-stage form of run(): execute the contiguous layers
    /// [first, last) against the per-item `outs`/`res` shared by every
    /// stage of the pipeline — stage s-1 leaves its boundary output in
    /// `outs[first - 1]`, which is this stage's input. Per-layer results
    /// and stats land at their full-model indices, so after the last
    /// stage `res` is bit-identical to a single-Sia run() (including
    /// cycle stats; inter-shard transfer cost is the cluster's to
    /// account). Wraps the pass in begin_inference()/end_inference().
    void run_stage(std::size_t first, std::size_t last, Frames input,
                   std::vector<snn::SpikeTrain>& outs, SiaRunResult& res,
                   snn::SessionState* session);

    /// Channel-parallel form of one layer pass: run layer `index`
    /// restricted to output channels (conv) or features (linear)
    /// [c0, c1), using `plan` — the shard's sliced layer plan — for
    /// tiling and transfer accounting. `out_train` is assigned the full
    /// layer geometry with only the slice's bits set, so the cluster's
    /// all-gather is a word-wise OR across shards; membrane state for
    /// the slice lives in this instance's banks (slice-relative
    /// addressing), and a shared session is read/written only at the
    /// slice's disjoint [c0 * plane, c1 * plane) range. A zero-width
    /// slice assigns an empty-output train and does nothing else.
    /// `skip_train` is empty unless the layer has a residual input.
    /// Callers bracket the per-item layer sequence with
    /// begin_inference()/end_inference().
    void run_layer_slice(std::size_t index, const LayerPlan& plan, Frames in_train,
                         Frames skip_train, snn::SpikeTrain& out_train,
                         LayerCycleStats& stats,
                         std::vector<std::vector<std::int64_t>>& readout,
                         snn::SessionState* session, std::int64_t c0, std::int64_t c1);

    [[nodiscard]] const Controller& controller() const noexcept { return controller_; }
    [[nodiscard]] const MemoryUnit& memory() const noexcept { return memory_; }
    [[nodiscard]] const SiaConfig& config() const noexcept { return config_; }

private:
    /// One whole layer of one item: run_layer_slice over every channel on
    /// the trains resolved from `input`/`outs`, then the layer's counts.
    void run_layer(std::size_t index, Frames input, std::vector<snn::SpikeTrain>& outs,
                   SiaRunResult& res, snn::SessionState* session);

    /// Layer bodies, parameterized over the executing plan (the full
    /// program's or a shard's sliced one) and the output-channel /
    /// feature slice [c0, c1) this instance owns. Full-layer callers
    /// pass program_.layers[index] and the whole range.
    void run_conv_layer(std::size_t index, const LayerPlan& plan, Frames in_train,
                        Frames skip_train, snn::SpikeTrain& out_train,
                        LayerCycleStats& stats,
                        std::vector<std::vector<std::int64_t>>& readout,
                        snn::SessionState* session, std::int64_t c0, std::int64_t c1);
    void run_linear_layer(std::size_t index, const LayerPlan& plan, Frames in_train,
                          snn::SpikeTrain& out_train,
                          LayerCycleStats& stats,
                          std::vector<std::vector<std::int64_t>>& readout,
                          snn::SessionState* session, std::int64_t c0, std::int64_t c1);

    SiaConfig config_;
    const snn::SnnModel& model_;
    const CompiledProgram& program_;
    /// The model's weight image, read-only and possibly shared with
    /// other executors.
    std::shared_ptr<const snn::compute::WeightImage> weights_;
    /// Spiking-channel index of the conv step's input (then its skip's).
    snn::compute::SpikeIndex index_;
    Controller controller_;
    MemoryUnit memory_;
    SiaBatchStats batch_stats_;
};

}  // namespace sia::sim
