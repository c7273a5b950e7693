// Temporal early exit: per-item confidence-based termination of the
// timestep loop (the anytime-inference counterpart of the paper's
// Fig. 7/9 accuracy-vs-timestep curves — most inputs are decided long
// before step T, so easy items should stop paying for the hard ones).
//
// The criterion is a pure function of the accumulated readout sequence:
// both engines evaluate it after eligible timesteps and stop
// integrating once it fires. Because the readout at step t is
// bit-identical across backends, thread counts, batch compositions and
// shard counts (the engines' shared-numerics contract), the exit step
// is too — early exit never trades determinism for latency.
//
// For streaming sessions the criterion is evaluated on the *window
// delta*: readout accumulated this window, i.e. the absolute readout
// minus the carried baseline at window entry. A window that exits early
// leaves the session exactly as if the stream had offered only the
// integrated steps — membranes and readout stay consistent, and the
// next window resumes from the exit point.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace sia::snn {

/// Why a run stopped before (or exactly at) its offered timesteps.
enum class ExitReason : std::uint8_t {
    kNone = 0,   ///< ran the full offered train without the criterion firing
    kMargin,     ///< top-1/top-2 logit margin held for `hysteresis` checks
    kStable,     ///< argmax unchanged for `stable_checks` consecutive checks
};

[[nodiscard]] constexpr const char* to_string(ExitReason reason) noexcept {
    switch (reason) {
        case ExitReason::kNone: return "none";
        case ExitReason::kMargin: return "margin";
        case ExitReason::kStable: return "stable";
    }
    return "?";
}

/// Per-item early-exit policy. Disabled by default (margin == 0 &&
/// stable_checks == 0): a disabled criterion never fires and the run is
/// bit-identical to a full-T run by construction.
///
/// Evaluation points: after timestep s where s >= min_steps and
/// (s - min_steps) % check_interval == 0. Either rule (or both) may be
/// armed; margin is checked first. Exits never fire on degenerate
/// readouts — single-class models, an all-zero delta, or an exact
/// top-1/top-2 tie reset the consecutive counters instead (a tie means
/// the prediction is not yet decided, whatever the magnitudes say).
struct ExitCriterion {
    /// Logit-margin rule: exit once (top1 - top2) of the window-delta
    /// readout is >= margin for `hysteresis` consecutive evaluations.
    /// 0 disables the rule.
    std::int64_t margin = 0;
    /// Stability rule: exit once the delta argmax (first-index-wins,
    /// ties excluded) is unchanged for this many consecutive
    /// evaluations. 0 disables the rule.
    std::int64_t stable_checks = 0;
    /// Never evaluate before this many integrated steps (>= 1).
    std::int64_t min_steps = 1;
    /// Consecutive margin-satisfying evaluations required (>= 1).
    std::int64_t hysteresis = 1;
    /// Evaluate every this-many steps after min_steps (>= 1). On the
    /// cycle-accurate engine every evaluation is a PS-side readout
    /// check that re-streams weights for the next chunk, so raising
    /// this amortizes the check cost.
    std::int64_t check_interval = 1;

    /// True when at least one rule is armed.
    [[nodiscard]] bool enabled() const noexcept {
        return margin > 0 || stable_checks > 0;
    }

    /// True when the criterion is evaluated after `steps_done` steps.
    [[nodiscard]] bool evaluates_at(std::int64_t steps_done) const noexcept {
        return steps_done >= min_steps &&
               (steps_done - min_steps) % check_interval == 0;
    }

    /// The first evaluation point strictly after `steps_done` (the
    /// chunk boundary of the layer-major engines' segmented schedule),
    /// saturated at the int64 maximum when it lies beyond it.
    [[nodiscard]] std::int64_t next_eval_step(std::int64_t steps_done) const noexcept {
        if (steps_done < min_steps) return min_steps;
        const std::int64_t intervals = (steps_done - min_steps) / check_interval + 1;
        if (intervals > (std::numeric_limits<std::int64_t>::max() - min_steps) / check_interval) {
            return std::numeric_limits<std::int64_t>::max();
        }
        return min_steps + intervals * check_interval;
    }

    /// Throws std::invalid_argument on out-of-range fields (negative
    /// thresholds, zero floors/intervals).
    void validate() const;
};

/// Streak-tracking evaluator of one item's criterion over its readout
/// sequence. Construct with the readout carried in at window entry (the
/// session baseline; zeros for stateless runs) and feed the absolute
/// accumulated readout after each eligible step, in order. A pure
/// function of (criterion, baseline, readout sequence) — no engine
/// state — which is what makes offline calibration over a recorded
/// logits_per_step history exactly equivalent to the live decision.
class ExitEvaluator {
public:
    ExitEvaluator(const ExitCriterion& criterion,
                  std::span<const std::int64_t> baseline);

    /// Observe the absolute accumulated readout after `steps_done`
    /// integrated steps. Returns the exit decision: kNone to keep
    /// integrating, otherwise the rule that fired. Steps that are not
    /// evaluation points return kNone without touching the streaks.
    [[nodiscard]] ExitReason observe(std::span<const std::int64_t> readout,
                                     std::int64_t steps_done);

    [[nodiscard]] const ExitCriterion& criterion() const noexcept {
        return criterion_;
    }

private:
    ExitCriterion criterion_;
    std::vector<std::int64_t> baseline_;  ///< readout at window entry
    std::int64_t margin_streak_ = 0;      ///< consecutive margin hits
    std::int64_t stable_streak_ = 0;      ///< consecutive same-argmax evals
    std::int64_t last_top_ = -1;          ///< argmax at the previous eval
};

}  // namespace sia::snn
