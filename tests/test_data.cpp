// Dataset tests: synthetic generator, normalisation, augmentation,
// event streams, CIFAR loader behaviour without data files.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "data/augment.hpp"
#include "data/cifar.hpp"
#include "data/events.hpp"
#include "data/synthetic.hpp"

namespace sia::data {
namespace {

TEST(Synthetic, ShapesAndLabels) {
    SyntheticConfig cfg;
    cfg.classes = 5;
    cfg.train_per_class = 4;
    cfg.test_per_class = 2;
    const auto tt = make_synthetic(cfg);
    EXPECT_EQ(tt.train.size(), 20);
    EXPECT_EQ(tt.test.size(), 10);
    EXPECT_EQ(tt.train.images.shape(), (tensor::Shape{20, 3, 32, 32}));
    for (const auto l : tt.train.labels) {
        EXPECT_GE(l, 0);
        EXPECT_LT(l, 5);
    }
}

TEST(Synthetic, DeterministicAcrossCalls) {
    SyntheticConfig cfg;
    cfg.train_per_class = 2;
    cfg.test_per_class = 1;
    const auto a = make_synthetic(cfg);
    const auto b = make_synthetic(cfg);
    for (std::int64_t i = 0; i < a.train.images.numel(); ++i) {
        ASSERT_EQ(a.train.images.flat(i), b.train.images.flat(i));
    }
}

TEST(Synthetic, SeedChangesData) {
    SyntheticConfig a;
    a.train_per_class = 2;
    SyntheticConfig b = a;
    b.seed = a.seed + 1;
    const auto da = make_synthetic(a);
    const auto db = make_synthetic(b);
    bool any_diff = false;
    for (std::int64_t i = 0; i < da.train.images.numel() && !any_diff; ++i) {
        any_diff = da.train.images.flat(i) != db.train.images.flat(i);
    }
    EXPECT_TRUE(any_diff);
}

TEST(Synthetic, NormalisedToUnitRange) {
    SyntheticConfig cfg;
    cfg.train_per_class = 4;
    const auto tt = make_synthetic(cfg);
    for (std::int64_t i = 0; i < tt.train.images.numel(); ++i) {
        ASSERT_GE(tt.train.images.flat(i), 0.0F);
        ASSERT_LE(tt.train.images.flat(i), 1.0F);
    }
    for (std::int64_t i = 0; i < tt.test.images.numel(); ++i) {
        ASSERT_GE(tt.test.images.flat(i), 0.0F);
        ASSERT_LE(tt.test.images.flat(i), 1.0F);
    }
}

TEST(Synthetic, InterleavedPrefixIsBalanced) {
    SyntheticConfig cfg;
    cfg.classes = 10;
    cfg.train_per_class = 5;
    const auto tt = make_synthetic(cfg);
    const auto prefix = tt.train.take(10);
    std::vector<int> count(10, 0);
    for (const auto l : prefix.labels) ++count[static_cast<std::size_t>(l)];
    for (const int c : count) EXPECT_EQ(c, 1);
}

TEST(Dataset, SampleExtraction) {
    SyntheticConfig cfg;
    cfg.train_per_class = 2;
    const auto tt = make_synthetic(cfg);
    const auto s = tt.train.sample(3);
    EXPECT_EQ(s.shape(), (tensor::Shape{1, 3, 32, 32}));
    for (std::int64_t i = 0; i < s.numel(); ++i) {
        ASSERT_EQ(s.flat(i), tt.train.images.flat(3 * s.numel() + i));
    }
}

TEST(Augment, AppendsCopiesAndKeepsLabels) {
    SyntheticConfig cfg;
    cfg.classes = 3;
    cfg.train_per_class = 2;
    const auto tt = make_synthetic(cfg);
    AugmentConfig acfg;
    acfg.copies = 2;
    const Dataset aug = augment(tt.train, acfg);
    EXPECT_EQ(aug.size(), tt.train.size() * 3);
    for (std::int64_t i = 0; i < tt.train.size(); ++i) {
        EXPECT_EQ(aug.labels[static_cast<std::size_t>(i)],
                  tt.train.labels[static_cast<std::size_t>(i)]);
        EXPECT_EQ(aug.labels[static_cast<std::size_t>(tt.train.size() + i)],
                  tt.train.labels[static_cast<std::size_t>(i)]);
    }
    // Originals preserved verbatim.
    for (std::int64_t i = 0; i < tt.train.images.numel(); ++i) {
        ASSERT_EQ(aug.images.flat(i), tt.train.images.flat(i));
    }
}

TEST(Events, SceneGeneratesSortedEvents) {
    EventSceneConfig cfg;
    cfg.timesteps = 6;
    const auto events = make_event_scene(cfg);
    EXPECT_FALSE(events.empty());
    for (std::size_t i = 1; i < events.size(); ++i) {
        EXPECT_LE(events[i - 1].t, events[i].t);
    }
    for (const auto& e : events) {
        EXPECT_GE(e.x, 0);
        EXPECT_LT(e.x, cfg.size);
        EXPECT_GE(e.t, 0);
        EXPECT_LT(e.t, cfg.timesteps);
    }
}

TEST(Events, FramesRasterisation) {
    std::vector<Event> events = {{1, 2, 0, true}, {3, 4, 1, false}, {0, 0, 5, true}};
    const auto frames = events_to_frames(events, 8, 4);  // t=5 dropped
    EXPECT_EQ(frames.shape(), (tensor::Shape{4, 2, 8, 8}));
    EXPECT_EQ(frames.at(0, 0, 2, 1), 1.0F);  // ON channel, y=2, x=1
    EXPECT_EQ(frames.at(1, 1, 4, 3), 1.0F);  // OFF channel
    EXPECT_EQ(frames.sum(), 2.0F);
}

TEST(Events, FramesReportDroppedCount) {
    const std::vector<Event> events = {{1, 2, 0, true},
                                       {9, 0, 1, false},   // x out of range
                                       {0, 0, 5, true},    // t out of range
                                       {-1, 3, 2, true},   // x negative
                                       {3, 3, 3, false}};
    std::int64_t dropped = -1;
    const auto frames = events_to_frames(events, 8, 4, &dropped);
    EXPECT_EQ(dropped, 3);
    EXPECT_EQ(frames.sum(), 2.0F);
    // The logging overload rasterises identically.
    const auto logged = events_to_frames(events, 8, 4);
    for (std::int64_t i = 0; i < frames.numel(); ++i) {
        ASSERT_EQ(logged.flat(i), frames.flat(i));
    }
}

// A raster geometry no sensor can have fails with invalid_argument (the
// frame shape rejects it), never as a tensor with negative dimensions.
TEST(Events, ImpossibleRasterGeometryThrows) {
    const std::vector<Event> events = {{1, 2, 0, true}};
    for (const auto& [size, steps] : std::vector<std::pair<std::int64_t, std::int64_t>>{
             {0, 4}, {-2, 4}, {-1, -1}, {8, -3}, {8, 0}}) {
        SCOPED_TRACE("size=" + std::to_string(size) + " steps=" + std::to_string(steps));
        std::int64_t dropped = 0;
        EXPECT_THROW(static_cast<void>(events_to_frames(events, size, steps, &dropped)),
                     std::invalid_argument);
    }
    for (const std::int64_t size : {0, -2}) {
        EXPECT_THROW(static_cast<void>(events_to_windows(events, size, 4, 2)),
                     std::invalid_argument);
    }
}

TEST(Events, NoiseSurvivesSmallSensors) {
    EventSceneConfig cfg;
    cfg.size = 16;
    cfg.objects = 0;  // noise-only scene
    cfg.timesteps = 400;
    cfg.noise_rate = 0.002F;  // 0.512 expected events/step: plain
                              // truncation would emit exactly zero
    const auto events = make_event_scene(cfg);
    EXPECT_FALSE(events.empty());
    // Binomial(400, 0.512): mean ~205, sd ~10 — bounds are generous.
    EXPECT_GT(events.size(), 80U);
    EXPECT_LE(events.size(), 400U);
}

TEST(Events, WindowsConcatenateToMonolithicFrames) {
    EventSceneConfig cfg;
    cfg.size = 12;
    cfg.timesteps = 8;
    const auto events = make_event_scene(cfg);
    std::int64_t mono_dropped = 0;
    const auto mono = events_to_frames(events, cfg.size, cfg.timesteps, &mono_dropped);
    for (const std::int64_t w : {1, 3, 4, 8}) {
        SCOPED_TRACE("window_steps=" + std::to_string(w));
        std::int64_t dropped = -1;
        const auto windows =
            events_to_windows(events, cfg.size, cfg.timesteps, w, &dropped);
        EXPECT_EQ(dropped, mono_dropped);
        EXPECT_EQ(windows.size(),
                  static_cast<std::size_t>((cfg.timesteps + w - 1) / w));
        std::int64_t t0 = 0;
        for (const auto& win : windows) {
            const std::int64_t steps = win.shape()[0];
            for (std::int64_t t = 0; t < steps; ++t) {
                for (std::int64_t c = 0; c < 2; ++c) {
                    for (std::int64_t y = 0; y < cfg.size; ++y) {
                        for (std::int64_t x = 0; x < cfg.size; ++x) {
                            ASSERT_EQ(win.at(t, c, y, x), mono.at(t0 + t, c, y, x));
                        }
                    }
                }
            }
            t0 += steps;
        }
        EXPECT_EQ(t0, cfg.timesteps);
    }
    EXPECT_THROW(
        static_cast<void>(events_to_windows(events, cfg.size, cfg.timesteps, 0)),
        std::invalid_argument);
}

TEST(Cifar, MissingDirectoryReturnsNullopt) {
    EXPECT_FALSE(load_cifar10("/nonexistent/cifar-dir").has_value());
}

}  // namespace
}  // namespace sia::data
