#include "snn/session.hpp"

#include <stdexcept>

#include "snn/model.hpp"

namespace sia::snn {

void check_session(const SnnModel& model, const SessionState& session,
                   const std::string& who) {
    if (session.membranes.size() != model.layers.size() ||
        session.readout.size() != static_cast<std::size_t>(model.classes)) {
        throw std::invalid_argument(who + ": session state/model geometry mismatch");
    }
    for (std::size_t i = 0; i < model.layers.size(); ++i) {
        const SnnLayer& layer = model.layers[i];
        const std::size_t want =
            layer.spiking ? static_cast<std::size_t>(layer.neurons()) : 0;
        if (session.membranes[i].size() != want) {
            throw std::invalid_argument(who + ": session membrane size mismatch");
        }
    }
}

}  // namespace sia::snn
