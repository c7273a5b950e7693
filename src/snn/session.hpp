// Persistent inference state for streaming (chunked) execution.
//
// A continuous spike stream — the paper's §IV DVS use case — is served
// as a sequence of event windows against one logical session instead of
// one giant train. Everything that carries across a window boundary
// lives here: per-layer membrane potentials and the accumulated readout.
// Output spikes do NOT carry — layer i at timestep t only consumes
// layer i-1's spikes from the same timestep, so window boundaries cut
// cleanly between steps.
//
// The representation is engine-agnostic: snn::FunctionalEngine and
// sim::Sia save/resume the exact same state, which is what makes the
// chunking contract hold across backends — N windows of T/N steps are
// bit-identical to one T-step run, and a session may even migrate
// between engines mid-stream (e.g. a hot reload swapping the serving
// backend) without perturbing a single bit of the readout.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace sia::snn {

struct SnnModel;

/// State of one streaming session between windows.
struct SessionState {
    /// Per-layer membrane potentials in CHW order: layer.neurons()
    /// entries for spiking layers, empty for readout layers (their
    /// carried state is `readout`).
    std::vector<std::vector<std::int16_t>> membranes;
    /// Accumulated readout logits across every completed window.
    std::vector<std::int64_t> readout;
    /// Timesteps integrated over all completed windows.
    std::int64_t steps = 0;
    /// Windows completed.
    std::uint64_t windows = 0;
    /// False until the first window runs; an uninitialized session
    /// resumes from the model's initial potentials and a zero readout.
    bool initialized = false;

    bool operator==(const SessionState&) const = default;
};

/// The one session geometry rule both engines enforce before resuming
/// an initialized session: a membrane bank per layer holding
/// layer.neurons() potentials for a spiking layer and none for a readout
/// layer, and model.classes readout logits. Throws std::invalid_argument,
/// prefixed by `who`, on any mismatch.
void check_session(const SnnModel& model, const SessionState& session,
                   const std::string& who);

}  // namespace sia::snn
