// Functional (bit-accurate, cycle-agnostic) execution engine for
// SnnModel. This is the semantic reference implementation: the
// cycle-accurate hardware simulator (sim::Sia) must reproduce its spikes
// and readout bit-exactly (asserted by core::Deployer and the
// integration tests).
//
// Per timestep, layers execute in index order (synchronous feed-forward
// ripple, the standard schedule for ANN-converted SNNs and exactly the
// layer-sequential flow of the paper's Fig. 5).
//
// The psum kernels read the model's weights from one read-only
// compute::WeightImage, which every engine of a backend (and every
// sim::Sia of the model) shares; an engine owns only its mutable state
// (layer banks, spike maps, spike indexes, readout).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
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
    /// Keeps a reference to `model` (must outlive the engine), validates
    /// it, and builds its own image (compute::event_weights).
    explicit FunctionalEngine(const SnnModel& model, EngineConfig config = {});
    /// As above, reading `weights`, which other executors may share.
    /// Throws std::invalid_argument when the image does not fit `model`
    /// (WeightImage::fits).
    FunctionalEngine(const SnnModel& model, EngineConfig config,
                     std::shared_ptr<const compute::WeightImage> weights);

    /// Full reset: membranes to their initial potential, last-step spike
    /// maps and readout cleared, per-run counters zeroed.
    void reset();

    /// Advance one timestep with the given input spikes.
    void step(const SpikeMap& input);

    /// reset() + step() over the train; collects statistics. An armed
    /// `exit` is evaluated after each eligible timestep and stops the
    /// integration once it fires (the item "drops out of the hot loop"
    /// — no psum/fire kernel touches it past the exit step); the steps
    /// that do run are bit-identical to the full-T run's prefix. Both
    /// run forms throw std::invalid_argument on a zero-frame train or an
    /// out-of-range criterion, before they write any session state.
    [[nodiscard]] RunResult run(const SpikeTrain& input, const ExitCriterion& exit = {});

    /// One window of a stream against a stateful session: restore
    /// `session` (a fresh reset when it is uninitialized), run the window
    /// without resetting, save the state back and advance the session's
    /// step/window counters. Statistics are per-window; logits_per_step
    /// continues the accumulation carried in by earlier windows, so
    /// consecutive windows of one session are bit-identical to one run()
    /// over the whole train. An armed `exit` is evaluated on the readout
    /// delta accumulated THIS window (absolute readout minus the carried
    /// baseline), so a mid-stream window exits on its own evidence; the
    /// saved state reflects the exit point exactly — as if the stream had
    /// offered only the integrated steps — so the next window resumes
    /// bit-identically. Sessions are engine-agnostic (sim::Sia resumes the
    /// same representation). Throws std::invalid_argument, leaving
    /// `session` untouched, when an initialized session does not fit the
    /// model (snn::check_session).
    [[nodiscard]] RunResult run_window(const SpikeTrain& input, SessionState& session,
                                       const ExitCriterion& exit = {});

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
    /// The window loop both run forms share: step() over the train from
    /// the current state, evaluating `exit` when it is armed.
    [[nodiscard]] RunResult integrate(const SpikeTrain& input, const ExitCriterion& exit);
    /// Zero the per-run spike/dispatch counters.
    void reset_stats();
    /// Copy the carried state (membranes + readout) out of the engine.
    void save_session(SessionState& session) const;
    /// Load carried state into the engine and zero the per-run counters;
    /// an uninitialized session restores as a full reset().
    void restore_session(const SessionState& session);

    /// One timestep of layer `index`, the only layer body: a psum stage
    /// and a fire stage, each made of phases of disjoint ranges. A split
    /// step hands every phase's ranges to the lent team; otherwise each
    /// phase runs inline as one range per branch.
    void step_layer(std::size_t index, const SpikeMap& net_input);
    /// Whether this layer-step splits across the lent team.
    [[nodiscard]] bool splits(const SnnLayer& layer, const SpikeMap& input) const noexcept;
    /// The per-neuron reference fire loop (FirePath::kScalar) over the
    /// whole layer; `skip_spikes` is the resolved residual source (null
    /// when the layer has no skip).
    void fire_scalar(std::size_t index, const SpikeMap* skip_spikes);
    /// Layer `src`'s spikes this step, or `net_input` for -1.
    [[nodiscard]] const SpikeMap& source_spikes(int src, const SpikeMap& net_input) const;

    const SnnModel& model_;
    EngineConfig config_;
    /// The model's weight image, read-only and possibly shared with
    /// other executors.
    std::shared_ptr<const compute::WeightImage> weights_;

    std::vector<LayerState> state_;                      // SoA banks per layer
    std::vector<SpikeMap> spikes_;                       // per layer, this step
    std::vector<std::int64_t> readout_;                  // accumulated logits
    std::vector<std::int64_t> spike_counts_;             // per layer since reset
    std::vector<LayerDispatchStats> dispatch_;           // per layer since reset
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
