// Functional (bit-accurate, cycle-agnostic) execution engine for
// SnnModel. This is the semantic reference implementation: the
// cycle-accurate hardware simulator (sim::Sia) must reproduce its spikes
// and readout bit-exactly (asserted by core::Deployer and the
// integration tests).
//
// Per timestep, layers execute in index order (synchronous feed-forward
// ripple, the standard schedule for ANN-converted SNNs and exactly the
// layer-sequential flow of the paper's Fig. 5).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "snn/compute.hpp"
#include "snn/exit.hpp"
#include "snn/layer_state.hpp"
#include "snn/model.hpp"
#include "snn/session.hpp"
#include "snn/spike.hpp"
#include "snn/tile_team.hpp"

namespace sia::snn {

/// First-index-wins argmax over accumulated logits: ties resolve to the
/// lowest class index, explicitly — the deterministic comparator both
/// engines' predictions are defined by (and the convention the paper's
/// readout comparator tree implements).
[[nodiscard]] std::size_t argmax_first(std::span<const std::int64_t> logits) noexcept;

/// Which fire-stage implementation FunctionalEngine runs. Both paths are
/// bit-identical (spikes, membranes, logits); the choice only trades
/// throughput.
enum class FirePath : std::uint8_t {
    /// Fused SoA kernels (compute::aggregate_fire_*): 64 neurons per
    /// iteration, spike words emitted directly. The default.
    kVector,
    /// The per-neuron reference loop (aggregate()/update_neuron()
    /// per site). Kept as the baseline the bench and the equivalence
    /// matrix compare against.
    kScalar,
};

/// Execution knobs of FunctionalEngine. Neither changes results.
struct EngineConfig {
    /// Fire-stage implementation (vectorized fused kernels vs scalar
    /// reference loop).
    FirePath fire = FirePath::kVector;
    /// Record RunResult::logits_per_step (the per-step readout history,
    /// [T][classes] per run). On by default for the accuracy benches
    /// and the co-verification tests; the serving hot path never reads
    /// it — serving benches and examples turn it off and read
    /// RunResult::readout (always filled) instead.
    bool record_readout_history = true;
};

/// Work threshold of intra-inference tiling: with a TileTeam lent (see
/// TeamLoan), a spiking conv layer-step whose input spike count x k^2 x
/// OC reaches this many MACs is split across the team; lighter steps
/// run serially, since a split's fixed cost (publishing three jobs) would
/// eat their gain. The spike count is the map's O(1) observable.
inline constexpr std::int64_t kTileMinWork = std::int64_t{1} << 19;

/// True when some spiking conv layer of `model` can reach kTileMinWork,
/// i.e. with every one of its input sites spiking. Otherwise no step of
/// the model ever splits, and lending its engines a team is pointless.
[[nodiscard]] bool tiling_possible(const SnnModel& model) noexcept;

/// Per-layer step counters accumulated across step() calls.
struct LayerDispatchStats {
    /// Always 0: every psum step is event-driven. bench/e2e's report
    /// still reads it.
    std::int64_t dense_steps = 0;
    std::int64_t scatter_steps = 0;  ///< timesteps run through the event-driven kernels
    std::int64_t vector_fire_steps = 0;  ///< timesteps fired through the fused kernels
    std::int64_t scalar_fire_steps = 0;  ///< timesteps fired through the scalar loop
    std::int64_t input_spikes = 0;   ///< main-branch input spikes summed over steps
    std::int64_t input_sites = 0;    ///< main-branch input sites summed over steps

    /// Mean main-branch input density over the counted timesteps.
    [[nodiscard]] double mean_input_density() const noexcept {
        return input_sites > 0
                   ? static_cast<double>(input_spikes) / static_cast<double>(input_sites)
                   : 0.0;
    }
};

/// Aggregate results of a run.
struct RunResult {
    /// Accumulated readout (logits) after each timestep: [T][classes].
    /// Empty when EngineConfig::record_readout_history is off — use
    /// `readout` (always filled) for the final logits.
    std::vector<std::vector<std::int64_t>> logits_per_step;
    /// Final accumulated readout after the last integrated timestep.
    std::vector<std::int64_t> readout;
    /// Total output spikes per layer over the whole run.
    std::vector<std::int64_t> spike_counts;
    /// Neurons per layer (denominator for spike rates).
    std::vector<std::int64_t> neuron_counts;
    /// Per-layer kernel and input-density counters.
    std::vector<LayerDispatchStats> layer_dispatch;
    /// Timesteps actually integrated (== steps_offered unless an
    /// ExitCriterion fired first).
    std::int64_t timesteps = 0;
    /// Timesteps the input train offered.
    std::int64_t steps_offered = 0;
    /// Why the run stopped (kNone = ran the full offered train).
    ExitReason exit_reason = ExitReason::kNone;

    /// Average spikes per neuron per timestep for layer `i` (Fig. 6/8).
    [[nodiscard]] double spike_rate(std::size_t i) const {
        const auto denom = static_cast<double>(neuron_counts.at(i)) *
                           static_cast<double>(timesteps);
        return denom > 0 ? static_cast<double>(spike_counts.at(i)) / denom : 0.0;
    }

    /// Prediction after timestep `t` (argmax of accumulated logits).
    /// Requires the recorded history; use predicted() when it is off.
    [[nodiscard]] std::int64_t predicted_class(std::int64_t t) const;
    /// Prediction from the final accumulated readout.
    [[nodiscard]] std::int64_t predicted() const {
        return static_cast<std::int64_t>(argmax_first(readout));
    }
};

class FunctionalEngine {
    friend class TeamLoan;

public:
    /// Keeps a reference to `model` (must outlive the engine); validates
    /// it and precomputes the weight layouts the psum kernels read.
    explicit FunctionalEngine(const SnnModel& model, EngineConfig config = {});

    /// Full reset: membranes to their initial potential, readout
    /// cleared, per-run counters zeroed. Equivalent to reset_membranes()
    /// + reset_readout() + reset_stats().
    void reset();
    /// Reset only the neuron state: membranes back to the initial
    /// potential, last-step spike maps cleared. Leaves the accumulated
    /// readout and counters alone.
    void reset_membranes();
    /// Clear only the accumulated readout logits.
    void reset_readout();
    /// Zero the per-run spike/dispatch counters (windowed runs report
    /// per-window statistics while membranes and readout carry).
    void reset_stats();

    /// Advance one timestep with the given input spikes.
    void step(const SpikeMap& input);

    /// reset() + step() over the train; collects statistics.
    [[nodiscard]] RunResult run(const SpikeTrain& input);
    /// Early-exit form: evaluate `exit` after each eligible timestep
    /// and stop integrating once it fires (the item "drops out of the
    /// hot loop" — no psum/fire kernel touches it past the exit step).
    /// A disabled criterion is bit-identical to run(input); steps that
    /// do run are bit-identical to the full-T run's prefix. Throws
    /// std::invalid_argument on an out-of-range criterion.
    [[nodiscard]] RunResult run(const SpikeTrain& input, const ExitCriterion& exit);

    /// Run one window of a stream WITHOUT resetting membranes or
    /// readout: statistics are per-window, logits_per_step continues
    /// the accumulation carried in by earlier windows. Splitting a
    /// train into consecutive run_window calls after a reset() is
    /// bit-identical to one run() over the whole train.
    [[nodiscard]] RunResult run_window(const SpikeTrain& input);
    /// Early-exit window: `exit` is evaluated on the readout delta
    /// accumulated THIS window (absolute readout minus the carried
    /// baseline at window entry), so a mid-stream window exits on its
    /// own evidence rather than the history's.
    [[nodiscard]] RunResult run_window(const SpikeTrain& input,
                                       const ExitCriterion& exit);

    /// Stateful-session form: restore `session` (a fresh reset when it
    /// is uninitialized), run the window, save the state back and
    /// advance the session's step/window counters. Sessions are
    /// engine-agnostic (sim::Sia resumes the same representation).
    [[nodiscard]] RunResult run_window(const SpikeTrain& input, SessionState& session);
    /// Session window with early exit: the saved state reflects the
    /// exit point exactly — as if the stream had offered only the
    /// integrated steps — so the carried SessionState is never
    /// corrupted and the next window resumes bit-identically.
    [[nodiscard]] RunResult run_window(const SpikeTrain& input, SessionState& session,
                                       const ExitCriterion& exit);

    /// Copy the carried state (membranes + readout) out of the engine.
    void save_session(SessionState& session) const;
    /// Load carried state into the engine and zero the per-run
    /// counters. An uninitialized session restores as a full reset().
    /// Throws std::invalid_argument when the state's geometry does not
    /// match the model.
    void restore_session(const SessionState& session);

    /// Output spikes of layer `i` at the most recent timestep.
    [[nodiscard]] const SpikeMap& layer_spikes(std::size_t i) const {
        return spikes_.at(i);
    }
    /// Membrane potentials of layer `i` (CHW order).
    [[nodiscard]] std::span<const std::int16_t> membrane(std::size_t i) const {
        const LayerState& st = state_.at(i);
        return {st.membrane.data(), static_cast<std::size_t>(st.neurons)};
    }
    /// Accumulated readout logits.
    [[nodiscard]] const std::vector<std::int64_t>& readout() const noexcept {
        return readout_;
    }
    /// Output spike count of layer `i` accumulated since reset().
    [[nodiscard]] std::int64_t spike_count(std::size_t i) const {
        return spike_counts_.at(i);
    }
    /// Dispatch counters of layer `i` accumulated since reset().
    [[nodiscard]] const LayerDispatchStats& dispatch_stats(std::size_t i) const {
        return dispatch_.at(i);
    }

    [[nodiscard]] const SnnModel& model() const noexcept { return model_; }
    [[nodiscard]] const EngineConfig& config() const noexcept { return config_; }

private:
    /// Shared window loop: null `exit` (or a disabled criterion) runs
    /// the whole train.
    [[nodiscard]] RunResult run_window_impl(const SpikeTrain& input,
                                            const ExitCriterion* exit);
    void run_conv_layer(std::size_t index, const SpikeMap& input);
    void run_linear_layer(std::size_t index, const SpikeMap& input);
    void integrate_and_fire(std::size_t index);
    /// Count one psum step of layer `index` over `input`.
    void count_step(std::size_t index, const SpikeMap& input);
    /// Whether this layer-step splits across the lent team.
    [[nodiscard]] bool splits(const SnnLayer& layer, const SpikeMap& input) const noexcept;
    /// One conv layer-step split across team_: psum and fire, with the
    /// same spikes, membranes and counters as the serial path.
    void step_tiled(std::size_t index, const SpikeMap& input);
    /// Fire-stage implementations over the layer's SoA banks; both
    /// update membranes + spikes_[index] identically (spike emission
    /// included), differing only in throughput. `skip_spikes` is the
    /// resolved residual source (null when the layer has no skip).
    void fire_vector(std::size_t index, const SpikeMap* skip_spikes);
    void fire_scalar(std::size_t index, const SpikeMap* skip_spikes);
    [[nodiscard]] const SpikeMap& source_spikes(int src, const SpikeMap& input) const;
    /// The layer's resolved residual source (null when it has no skip).
    /// skip_src may be -1 (network input) when the stem runs on the
    /// processor-side front end and the first block skips from it.
    [[nodiscard]] const SpikeMap* skip_source(const SnnLayer& layer) const;

    const SnnModel& model_;
    EngineConfig config_;
    /// Weights per layer branch in the psum kernels' layouts: conv
    /// compute::block_conv, linear [D][F].
    std::vector<std::vector<std::int8_t>> main_wt_;
    std::vector<std::vector<std::int8_t>> skip_wt_;

    std::vector<LayerState> state_;                      // SoA banks per layer
    std::vector<SpikeMap> spikes_;                       // per layer, this step
    std::vector<std::int64_t> readout_;                  // accumulated logits
    std::vector<std::int64_t> spike_counts_;             // per layer since reset
    std::vector<LayerDispatchStats> dispatch_;           // per layer since reset
    const SpikeMap* current_input_ = nullptr;            // valid during step()
    /// Spiking-channel indexes of the current conv step's input and of
    /// its conv skip's input, rebuilt every conv layer-step.
    compute::SpikeIndex index_;
    compute::SpikeIndex skip_index_;

    /// Intra-inference tiling: the team lent by a TeamLoan (null =
    /// serial).
    TileTeam* team_ = nullptr;
};

/// Scoped loan of a TileTeam to one engine, typically for one inference.
/// It claims the team without blocking; when the claim succeeds, the
/// engine's step() splits each heavy spiking conv layer-step (input
/// spikes x k^2 x OC >= kTileMinWork, vector fire path) across the team
/// until the loan ends. A loan that finds the team claimed elsewhere,
/// or gets no team, leaves the engine serial. Results are bit-identical
/// either way: int32 psum adds are exact and order-independent, and
/// every participant writes disjoint memory.
class TeamLoan {
public:
    TeamLoan(FunctionalEngine& engine, TileTeam* team) noexcept;
    ~TeamLoan();

    TeamLoan(const TeamLoan&) = delete;
    TeamLoan& operator=(const TeamLoan&) = delete;

    /// True when the engine holds the team.
    explicit operator bool() const noexcept { return team_ != nullptr; }

private:
    FunctionalEngine& engine_;
    TileTeam* team_ = nullptr;
};

/// Convenience: run a model over an encoded input and return results.
[[nodiscard]] RunResult run_snn(const SnnModel& model, const SpikeTrain& input,
                                EngineConfig config = {});

}  // namespace sia::snn
