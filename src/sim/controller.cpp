#include "sim/controller.hpp"

#include <stdexcept>
#include <string>

namespace sia::sim {

const char* to_string(CtrlState s) noexcept {
    switch (s) {
        case CtrlState::kIdle: return "Idle";
        case CtrlState::kInit: return "Init";
        case CtrlState::kLoadConfig: return "LoadConfig";
        case CtrlState::kReadInput: return "ReadInput";
        case CtrlState::kPeCompute: return "PeCompute";
        case CtrlState::kAggregate: return "Aggregate";
        case CtrlState::kWriteOutput: return "WriteOutput";
        case CtrlState::kDone: return "Done";
    }
    return "?";
}

bool Controller::legal(CtrlState from, CtrlState to) noexcept {
    switch (from) {
        case CtrlState::kIdle:
            return to == CtrlState::kInit;
        case CtrlState::kInit:
            return to == CtrlState::kLoadConfig;
        case CtrlState::kLoadConfig:
            return to == CtrlState::kReadInput;
        case CtrlState::kReadInput:
            return to == CtrlState::kPeCompute;
        case CtrlState::kPeCompute:
            // Multi-tile layers iterate compute; otherwise aggregate.
            return to == CtrlState::kPeCompute || to == CtrlState::kAggregate;
        case CtrlState::kAggregate:
            return to == CtrlState::kWriteOutput;
        case CtrlState::kWriteOutput:
            // Next layer (load config), next timestep (read input), or done.
            return to == CtrlState::kLoadConfig || to == CtrlState::kReadInput ||
                   to == CtrlState::kDone;
        case CtrlState::kDone:
            // Idle, or re-init for the next wave of a batched resident run.
            return to == CtrlState::kIdle || to == CtrlState::kInit;
    }
    return false;
}

void Controller::transition(CtrlState next) {
    if (!legal(state_, next)) {
        throw std::logic_error(std::string("Controller: illegal transition ") +
                               to_string(state_) + " -> " + to_string(next));
    }
    state_ = next;
    ++entries_[static_cast<std::size_t>(next)];
}

}  // namespace sia::sim
