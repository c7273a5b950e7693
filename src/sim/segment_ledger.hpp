// The batch bookkeeping shared by the layer-major executors (sim::Sia
// and sim::SiaCluster).
//
// Both executors run a batch as a sequence of layer-major passes over
// per-item *segments*: contiguous timestep ranges that end at the
// item's next ExitCriterion evaluation point, or at the end of its
// train. An item with no armed criterion is one segment long. Between
// passes, the ledger folds each segment's result into the item's
// result, evaluates the criterion on the carried readout, and retires
// finished items. Everything here is a pure function of each item's own
// train and criterion, which is what keeps per-item results
// bit-identical across batch compositions, bank counts and shards. The
// executors own only how a pass is scheduled on hardware.
//
// Session contract (commit on completion): an item that carries state
// across segments — a user session, or an armed criterion — runs on a
// private scratch copy of its session. User sessions are written back
// only by finish(), after every item has completed. A throw anywhere in
// the batch therefore leaves every user SessionState untouched. A
// stateless item with no armed criterion runs with no session at all.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "sim/sia.hpp"
#include "snn/exit.hpp"
#include "snn/model.hpp"
#include "snn/session.hpp"
#include "snn/spike.hpp"

namespace sia::sim {

/// The next stretch of one item, as handed to a layer-major pass:
/// a view into the item's train and the state to resume and save (the
/// item's scratch session; null for a one-segment stateless item).
struct Segment {
    Frames frames;
    snn::SessionState* session = nullptr;
};

class SegmentLedger {
public:
    /// Admission: validates every item before any executor state is
    /// touched — a non-empty train, every frame's geometry against the
    /// model's input, the criterion's fields, and an initialized
    /// session's geometry. Throws std::invalid_argument prefixed with
    /// `who`. Copies each stateful item's session into its scratch.
    SegmentLedger(const snn::SnnModel& model, std::span<const BatchItem> items,
                  const char* who);

    /// Item i's next segment: from its integrated steps to its next
    /// evaluation point (or the end of its train).
    [[nodiscard]] Segment next(std::size_t i);

    /// Fold item i's finished segment pass into its result and evaluate
    /// its criterion. Returns true once the item is complete (criterion
    /// fired or train exhausted); it must not be scheduled again.
    bool commit(std::size_t i, SiaRunResult&& chunk);

    /// Write the scratch state back into the user sessions and hand over
    /// the per-item results. Call once, after every item completed.
    [[nodiscard]] std::vector<SiaRunResult> finish();

private:
    struct Entry {
        BatchItem item;
        std::optional<snn::SessionState> scratch;
        std::optional<snn::ExitEvaluator> eval;
        std::int64_t steps_done = 0;
    };

    std::vector<Entry> entries_;
    std::vector<SiaRunResult> results_;
};

}  // namespace sia::sim
