// Control & configuration FSM (§III-C, Fig. 5).
//
// The controller sequences: initialise NPU -> load architectural details
// (per-layer configuration) -> read input block RAM -> PE computation ->
// batch-norm + activation -> write output, looping over layers and
// timesteps. Illegal transitions throw — the integration tests assert
// the Sia top level only drives legal sequences.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace sia::sim {

enum class CtrlState : std::uint8_t {
    kIdle,
    kInit,           ///< "Initialize NPU"
    kLoadConfig,     ///< "Load Architectural Details"
    kReadInput,      ///< "Read Input Data Block RAM"
    kPeCompute,      ///< "PE Computation and Storage"
    kAggregate,      ///< "Enable Activation and Batch Normalization"
    kWriteOutput,    ///< "Layer Wise Output"
    kDone,           ///< "All Layer Done / End" (may re-init for the next
                     ///< wave of a batched resident run)
};

[[nodiscard]] const char* to_string(CtrlState s) noexcept;

class Controller {
public:
    [[nodiscard]] CtrlState state() const noexcept { return state_; }

    /// Attempt a transition; throws std::logic_error if illegal.
    void transition(CtrlState next);

    /// Number of times `s` was entered since construction or reset().
    [[nodiscard]] std::int64_t entries(CtrlState s) const noexcept {
        return entries_[static_cast<std::size_t>(s)];
    }

    void reset() noexcept {
        state_ = CtrlState::kIdle;
        entries_ = {};
    }

private:
    [[nodiscard]] static bool legal(CtrlState from, CtrlState to) noexcept;

    CtrlState state_ = CtrlState::kIdle;
    /// Entries per state, indexed by CtrlState (kDone is the last).
    std::array<std::int64_t, static_cast<std::size_t>(CtrlState::kDone) + 1> entries_{};
};

}  // namespace sia::sim
