#include "sim/segment_ledger.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace sia::sim {

namespace {

/// Validate an initialized session against the model, or size a fresh
/// one: spiking layers start at their initial potentials (sliced shards
/// then save disjoint ranges without resizing), readout layers carry an
/// empty bank, and the readout starts at zero.
void prepare_session(const snn::SnnModel& model, snn::SessionState& session,
                     const std::string& who) {
    if (!session.initialized) {
        session.membranes.assign(model.layers.size(), {});
        for (std::size_t i = 0; i < model.layers.size(); ++i) {
            const snn::SnnLayer& layer = model.layers[i];
            if (layer.spiking) {
                session.membranes[i].assign(static_cast<std::size_t>(layer.neurons()),
                                            layer.initial_potential);
            }
        }
        session.readout.assign(static_cast<std::size_t>(model.classes), 0);
        return;
    }
    snn::check_session(model, session, who);
}

}  // namespace

SegmentLedger::SegmentLedger(const snn::SnnModel& model,
                             std::span<const BatchItem> items, const char* who)
    : entries_(items.size()), results_(items.size()) {
    const std::string prefix(who);
    for (std::size_t i = 0; i < items.size(); ++i) {
        const BatchItem& item = items[i];
        if (item.frames.empty()) {
            throw std::invalid_argument(prefix + ": empty input train");
        }
        for (const snn::SpikeMap& frame : item.frames) {
            if (frame.channels() != model.input_channels ||
                frame.height() != model.input_h || frame.width() != model.input_w) {
                throw std::invalid_argument(prefix + ": input frame geometry mismatch");
            }
        }
        if (item.exit != nullptr) item.exit->validate();
        const bool armed = item.exit != nullptr && item.exit->enabled();

        Entry& e = entries_[i];
        e.item = item;
        if (item.session != nullptr || armed) {
            e.scratch.emplace(item.session != nullptr ? *item.session
                                                      : snn::SessionState{});
            prepare_session(model, *e.scratch, prefix);
        }
        if (armed) {
            // Baseline = the readout carried in at window entry, so
            // session windows exit on their own delta (zeros when
            // stateless — the absolute readout).
            e.eval.emplace(*item.exit, e.scratch->readout);
        }
        results_[i].steps_offered = static_cast<std::int64_t>(item.frames.size());
    }
}

Segment SegmentLedger::next(std::size_t i) {
    Entry& e = entries_[i];
    const auto total = static_cast<std::int64_t>(e.item.frames.size());
    const std::int64_t end =
        e.eval ? std::min(total, e.item.exit->next_eval_step(e.steps_done)) : total;
    return {e.item.frames.subspan(static_cast<std::size_t>(e.steps_done),
                                  static_cast<std::size_t>(end - e.steps_done)),
            e.scratch ? &*e.scratch : nullptr};
}

bool SegmentLedger::commit(std::size_t i, SiaRunResult&& chunk) {
    Entry& e = entries_[i];
    SiaRunResult& res = results_[i];
    e.steps_done += chunk.timesteps;
    if (e.scratch) e.scratch->initialized = true;
    res.append_chunk(std::move(chunk));
    const snn::ExitReason reason =
        e.eval ? e.eval->observe(e.scratch->readout, e.steps_done)
               : snn::ExitReason::kNone;
    if (reason == snn::ExitReason::kNone && e.steps_done < res.steps_offered) {
        return false;  // more segments to run
    }
    res.exit_reason = reason;
    res.readout = res.logits_per_step.back();
    return true;
}

std::vector<SiaRunResult> SegmentLedger::finish() {
    for (Entry& e : entries_) {
        if (e.item.session == nullptr) continue;
        snn::SessionState& user = *e.item.session;
        user = std::move(*e.scratch);
        user.steps += e.steps_done;
        ++user.windows;
    }
    return std::move(results_);
}

}  // namespace sia::sim
