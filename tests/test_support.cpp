// Self-test of the shared oracle (tests/support.hpp): starting from two
// equal results, a change to any one compared field must make
// expect_same() fail, so an edit that drops a field from the oracle
// fails here rather than silently weakening every equivalence test.
#include <gtest/gtest-spi.h>
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/backend.hpp"
#include "core/compiler.hpp"
#include "sim/sia.hpp"
#include "support.hpp"

namespace sia {
namespace {

using namespace test;

sim::SiaRunResult sia_result() {
    const auto model = conv_model(5);
    const sim::SiaConfig config;
    const auto program = core::SiaCompiler(config).compile(model);
    sim::Sia sia(config, model, program);
    return sia.run(random_train(model, 4, 6));
}

using Edit = std::function<void(sim::SiaRunResult&)>;

/// Each compared field of a SiaRunResult, named as the oracle's failure
/// message names it, with an edit that changes only that field.
std::vector<std::pair<std::string, Edit>> field_edits() {
    std::vector<std::pair<std::string, Edit>> edits = {
        {"logits_per_step", [](auto& r) { r.logits_per_step[1][2] += 1; }},
        {"readout", [](auto& r) { r.readout[3] -= 1; }},
        {"spike_counts", [](auto& r) { r.spike_counts[1] += 1; }},
        {"neuron_counts", [](auto& r) { r.neuron_counts[0] += 1; }},
        {"timesteps", [](auto& r) { r.timesteps += 1; }},
        {"steps_offered", [](auto& r) { r.steps_offered += 1; }},
        {"exit_reason", [](auto& r) { r.exit_reason = snn::ExitReason::kMargin; }},
        {"label", [](auto& r) { r.layer_stats[2].label += "'"; }},
    };
    const std::vector<std::pair<std::string, std::int64_t sim::LayerCycleStats::*>> counters = {
        {"compute", &sim::LayerCycleStats::compute},
        {"aggregate", &sim::LayerCycleStats::aggregate},
        {"dma", &sim::LayerCycleStats::dma},
        {"mmio", &sim::LayerCycleStats::mmio},
        {"overhead", &sim::LayerCycleStats::overhead},
        {"input_spike_events", &sim::LayerCycleStats::input_spike_events},
        {"event_additions", &sim::LayerCycleStats::event_additions},
    };
    for (const auto& [name, field] : counters) {
        edits.emplace_back(name, [field](auto& r) { r.layer_stats[1].*field += 1; });
    }
    edits.emplace_back("dense_ops", [](auto& r) { r.layer_stats[3].dense_ops += 1; });
    return edits;
}

TEST(Oracle, EqualResultsPassAcrossResultTypes) {
    const auto want = sia_result();
    const Checks all{.cycles = true};
    expect_same(want, want, all);
    expect_same(core::Response::from(want), want, all);
    expect_same(want, core::Response::from(want), all);
    expect_same(static_cast<const snn::RunResult&>(want), want);
}

TEST(Oracle, EveryComparedFieldFailsAlone) {
    const auto want = sia_result();
    ASSERT_EQ(want.layer_stats.size(), 4U);
    const Checks all{.cycles = true};
    for (const auto& [field, edit] : field_edits()) {
        SCOPED_TRACE(field);
        auto got = want;
        edit(got);
        EXPECT_NONFATAL_FAILURE(expect_same(got, want, all), field);
        // The same edit read through a Response, on either side.
        EXPECT_NONFATAL_FAILURE(expect_same(core::Response::from(got), want, all), field);
        EXPECT_NONFATAL_FAILURE(expect_same(want, core::Response::from(got), all), field);
    }
}

TEST(Oracle, ResponseStepsUsedMustEqualTimesteps) {
    const auto want = sia_result();
    auto got = core::Response::from(want);
    got.steps_used += 1;
    EXPECT_NONFATAL_FAILURE(expect_same(got, want), "steps_used");
}

TEST(Oracle, OnlyNamedChecksAreSkipped) {
    const auto want = sia_result();
    auto got = want;
    got.logits_per_step[0][0] += 1;
    got.layer_stats[0].compute += 1;
    const Checks lean{.history = false};
    expect_same(got, want, lean);  // history skipped, cycles not asked for

    got.readout[0] += 1;
    EXPECT_NONFATAL_FAILURE(expect_same(got, want, lean), "readout");
}

}  // namespace
}  // namespace sia
