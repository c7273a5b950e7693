// SnnModel serialization round-trip and corruption-handling tests, plus
// the deployment property: a loaded model is bit-identical in execution
// to the original (functional engine outputs match exactly), and a
// seeded mutation test over every serialized input (model and train
// bytes, DVS event lists): hostile input fails on its own, with a
// structured error, or runs to the same bits on both executors.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "core/compiler.hpp"
#include "core/convert.hpp"
#include "data/events.hpp"
#include "nn/vgg.hpp"
#include "sim/sia.hpp"
#include "snn/encoding.hpp"
#include "snn/engine.hpp"
#include "snn/serialize.hpp"
#include "support.hpp"
#include "util/rng.hpp"

namespace sia::snn {
namespace {

SnnModel make_model() {
    util::Rng rng(77);
    nn::VggConfig cfg;
    cfg.width = 4;
    cfg.input_size = 16;
    nn::Vgg11 ann(cfg, rng);
    tensor::Tensor x(tensor::Shape{2, 3, 16, 16});
    for (std::int64_t i = 0; i < x.numel(); ++i) x.flat(i) = rng.uniform(0.0F, 1.0F);
    (void)ann.forward(x, true);
    ann.begin_activation_calibration();
    (void)ann.forward(x, false);
    ann.end_activation_calibration();
    ann.enable_quantized_activations(2);
    return core::AnnToSnnConverter().convert(ann.ir());
}

TEST(Serialize, RoundTripPreservesEveryField) {
    const SnnModel model = make_model();
    std::stringstream buf;
    save_model(model, buf);
    const SnnModel back = load_model(buf);

    EXPECT_EQ(back.name, model.name);
    EXPECT_EQ(back.input_channels, model.input_channels);
    EXPECT_EQ(back.classes, model.classes);
    ASSERT_EQ(back.layers.size(), model.layers.size());
    for (std::size_t i = 0; i < model.layers.size(); ++i) {
        const auto& a = model.layers[i];
        const auto& b = back.layers[i];
        EXPECT_EQ(b.label, a.label);
        EXPECT_EQ(b.input, a.input);
        EXPECT_EQ(b.main.weights, a.main.weights);
        EXPECT_EQ(b.main.gain, a.main.gain);
        EXPECT_EQ(b.main.bias, a.main.bias);
        EXPECT_EQ(b.main.gain_shift, a.main.gain_shift);
        EXPECT_FLOAT_EQ(b.main.weight_scale, a.main.weight_scale);
        EXPECT_EQ(b.main.stream_weight_bytes, a.main.stream_weight_bytes);
        EXPECT_EQ(b.threshold, a.threshold);
        EXPECT_EQ(b.initial_potential, a.initial_potential);
        EXPECT_EQ(b.spiking, a.spiking);
        EXPECT_EQ(static_cast<int>(b.neuron), static_cast<int>(a.neuron));
        EXPECT_EQ(static_cast<int>(b.reset), static_cast<int>(a.reset));
        EXPECT_FLOAT_EQ(b.step_size, a.step_size);
        EXPECT_EQ(b.out_channels, a.out_channels);
    }
}

TEST(Serialize, LoadedModelExecutesBitIdentically) {
    const SnnModel model = make_model();
    std::stringstream buf;
    save_model(model, buf);
    const SnnModel back = load_model(buf);

    util::Rng rng(78);
    tensor::Tensor img(tensor::Shape{1, 3, 16, 16});
    for (std::int64_t i = 0; i < img.numel(); ++i) img.flat(i) = rng.uniform(0.0F, 1.0F);
    const auto train = encode_thermometer(img, 6);

    const RunResult a = run_snn(model, train);
    const RunResult b = run_snn(back, train);
    test::expect_same(b, a);
}

TEST(Serialize, FileRoundTrip) {
    const SnnModel model = make_model();
    const std::string path = "/tmp/sia_test_model.snn";
    save_model_file(model, path);
    const SnnModel back = load_model_file(path);
    EXPECT_EQ(back.layers.size(), model.layers.size());
    std::remove(path.c_str());
}

TEST(Serialize, RejectsBadMagic) {
    std::stringstream buf;
    buf << "NOTASNNFILE-------------------------";
    EXPECT_THROW(load_model(buf), std::runtime_error);
}

TEST(Serialize, RejectsNewerVersion) {
    const SnnModel model = make_model();
    std::stringstream buf;
    save_model(model, buf);
    std::string bytes = buf.str();
    bytes[8] = char(99);  // bump the version field (first byte after magic)
    std::stringstream tampered(bytes);
    EXPECT_THROW(load_model(tampered), std::runtime_error);
}

TEST(Serialize, RejectsTruncation) {
    const SnnModel model = make_model();
    std::stringstream buf;
    save_model(model, buf);
    const std::string bytes = buf.str();
    for (const std::size_t cut : {bytes.size() / 4, bytes.size() / 2, bytes.size() - 3}) {
        std::stringstream truncated(bytes.substr(0, cut));
        EXPECT_THROW(load_model(truncated), std::runtime_error) << "cut=" << cut;
    }
}

/// An 85-byte model stream that ends 16 bytes into a vector whose
/// stored length claims 2^31 elements: the first layer's int8 weights
/// (2 GiB), or, after an empty weight vector, its int16 gain bank
/// (4 GiB).
std::string forged_length_stream(bool gain_bank) {
    std::ostringstream out;
    const auto put = [&](const auto& v) {
        out.write(reinterpret_cast<const char*>(&v), sizeof v);
    };
    out.write("SIASNN0\n", 8);
    put(kSnnFormatVersion);
    put(std::uint32_t{0});  // name
    for (const std::int64_t v : {3, 8, 8, 4}) put(v);  // input c, h, w; classes
    put(std::uint32_t{1});  // layer count
    put(std::uint8_t{0});   // op
    put(std::uint32_t{0});  // label
    put(std::int32_t{-1});  // input
    if (gain_bank) {
        put(std::uint64_t{0});  // weights
        put(1.0F);              // weight_scale
        put(std::int64_t{0});   // stream_weight_bytes
    }
    put(std::uint64_t{1} << 31);
    out << std::string(16, '\x01');
    return out.str();
}

long peak_rss_kb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_maxrss;
}

TEST(Serialize, ForgedVectorLengthFailsWithoutAllocatingIt) {
    for (const bool gain_bank : {false, true}) {
        const std::string bytes = forged_length_stream(gain_bank);
        const long before = peak_rss_kb();
        std::istringstream in(bytes);
        EXPECT_THROW(load_model(in), std::runtime_error) << "gain_bank=" << gain_bank;
        EXPECT_LT(peak_rss_kb() - before, 64 * 1024) << "gain_bank=" << gain_bank;
    }
    EXPECT_EQ(forged_length_stream(false).size(), 85U);
}

TEST(Serialize, MissingFileThrows) {
    EXPECT_THROW(load_model_file("/nonexistent/model.snn"), std::runtime_error);
}

// ---- Spike-train container (packed-word raw round-trip) ----

TEST(SerializeTrain, PackedWordsRoundTripBitExactly) {
    util::Rng rng(55);
    SpikeTrain train(7, SpikeMap(3, 5, 9));  // 135 sites: word-boundary tail
    for (auto& m : train) {
        for (std::int64_t i = 0; i < m.size(); ++i) m.set_flat(i, rng.bernoulli(0.2));
    }
    std::stringstream buf;
    save_train(train, buf);
    const SpikeTrain back = load_train(buf);
    ASSERT_EQ(back.size(), train.size());
    for (std::size_t t = 0; t < train.size(); ++t) {
        EXPECT_TRUE(back[t] == train[t]) << "t=" << t;
        EXPECT_EQ(back[t].raw(), train[t].raw()) << "t=" << t;
        EXPECT_EQ(back[t].count(), train[t].count()) << "t=" << t;
    }
}

TEST(SerializeTrain, EmptyTrainRoundTrips) {
    std::stringstream buf;
    save_train(SpikeTrain{}, buf);
    EXPECT_TRUE(load_train(buf).empty());
}

TEST(SerializeTrain, RejectsBadMagicAndTruncation) {
    std::stringstream bad("not a spike train at all");
    EXPECT_THROW(load_train(bad), std::runtime_error);

    SpikeTrain train(3, SpikeMap(1, 4, 4));
    train[1].set_flat(5, true);
    std::stringstream buf;
    save_train(train, buf);
    const std::string bytes = buf.str();
    std::stringstream truncated(bytes.substr(0, bytes.size() - 4));
    EXPECT_THROW(load_train(truncated), std::runtime_error);
}

// ---- malformed train files: each fails alone, with a runtime_error ----

/// A saved two-frame train (2x4x4: one packed word per frame) and the
/// byte offsets of its header fields.
std::string small_train_bytes() {
    SpikeTrain train(2, SpikeMap(2, 4, 4));
    train[0].set_flat(3, true);
    std::stringstream buf;
    save_train(train, buf);
    return buf.str();
}
constexpr std::size_t kVersionAt = 8;
constexpr std::size_t kTimestepsAt = 12;
constexpr std::size_t kChannelsAt = 20;
constexpr std::size_t kFirstWordCountAt = 44;

template <typename T>
std::string patched(std::string bytes, std::size_t offset, T value) {
    std::memcpy(bytes.data() + offset, &value, sizeof(T));
    return bytes;
}

SpikeTrain load_bytes(const std::string& bytes) {
    std::stringstream in(bytes);
    return load_train(in);
}

TEST(SerializeTrain, RejectsWordCountThatDisagreesWithGeometry) {
    const std::string good = small_train_bytes();
    ASSERT_EQ(load_bytes(good).size(), 2U);
    EXPECT_THROW(load_bytes(patched<std::uint64_t>(good, kFirstWordCountAt, 2)),
                 std::runtime_error);
    EXPECT_THROW(load_bytes(patched<std::uint64_t>(good, kFirstWordCountAt, 0)),
                 std::runtime_error);
}

TEST(SerializeTrain, CorruptHeaderClaimsFailWithoutAllocatingThem) {
    const std::string good = small_train_bytes();
    const std::vector<std::string> bad = {
        patched<std::uint32_t>(good, kVersionAt, kSpikeTrainFormatVersion + 1),
        patched<std::int64_t>(good, kChannelsAt, -2),
        patched<std::int64_t>(good, kChannelsAt, std::int64_t{1} << 40),
        // 2^24 frames claimed, two present.
        patched<std::uint64_t>(good, kTimestepsAt, std::uint64_t{1} << 24),
        // 2^31 words (16 GiB) claimed for a one-word frame.
        patched<std::uint64_t>(good, kFirstWordCountAt, std::uint64_t{1} << 31),
        // A geometry of 2^20 channels needs 2^18 words a frame; one is stored.
        patched<std::int64_t>(good, kChannelsAt, std::int64_t{1} << 20),
    };
    for (std::size_t i = 0; i < bad.size(); ++i) {
        EXPECT_THROW(load_bytes(bad[i]), std::runtime_error) << "case " << i;
    }
}

TEST(SerializeTrain, RejectsMixedGeometry) {
    SpikeTrain train;
    train.emplace_back(1, 2, 2);
    train.emplace_back(1, 2, 3);
    std::stringstream buf;
    EXPECT_THROW(save_train(train, buf), std::runtime_error);
}

// ---- seeded mutation over every serialized input ----
//
// A mutant overwrites one byte with another value, or (one in four)
// cuts the stream where the reader starts a field. Every mutant must
// fail to load with a structured error (std::runtime_error from the
// reader, std::invalid_argument from SnnModel::validate), or load and
// then either run on FunctionalEngine and Sia to the same logits and
// spike counts or be refused by both with std::invalid_argument. Any
// other exception escapes and fails the test.

constexpr int kMutants = 256;

/// A read-only buffer over `bytes` that records the offset of every
/// read a parser starts in it: the stream's field boundaries.
class FieldBoundaries : public std::streambuf {
public:
    explicit FieldBoundaries(std::string& bytes) {
        setg(bytes.data(), bytes.data(), bytes.data() + bytes.size());
    }
    std::vector<std::size_t> offsets;

protected:
    std::streamsize xsgetn(char* s, std::streamsize n) override {
        offsets.push_back(static_cast<std::size_t>(gptr() - eback()));
        return std::streambuf::xsgetn(s, n);
    }
};

/// Where `load` starts each read of `bytes` (a load that throws keeps
/// the boundaries it reached).
template <typename Load>
std::vector<std::size_t> field_boundaries(std::string bytes, const Load& load) {
    FieldBoundaries buf(bytes);
    std::istream in(&buf);
    try {
        (void)load(in);
    } catch (const std::runtime_error&) {
    }
    return buf.offsets;
}

std::string mutant(const std::string& bytes, const std::vector<std::size_t>& boundaries,
                   util::Rng& rng) {
    std::string m = bytes;
    if (rng.integer(0, 3) == 0) {
        m.resize(boundaries[static_cast<std::size_t>(
            rng.integer(0, static_cast<std::int64_t>(boundaries.size()) - 1))]);
    } else {
        const auto at = static_cast<std::size_t>(
            rng.integer(0, static_cast<std::int64_t>(bytes.size()) - 1));
        m[at] = static_cast<char>(static_cast<unsigned char>(m[at]) ^ rng.integer(1, 255));
    }
    return m;
}

/// A small model holding every branch kind the format stores: a conv
/// layer with a conv (downsample) skip, one with an identity skip, and a
/// linear readout.
SnnModel mutation_model() {
    util::Rng rng(91);
    // Random weights and coefficients for `outputs` output channels.
    const auto fill = [&](Branch& b, std::size_t weights, std::int64_t outputs) {
        b.weights.resize(weights);
        for (auto& w : b.weights) w = static_cast<std::int8_t>(rng.integer(-127, 127));
        b.gain.resize(static_cast<std::size_t>(outputs));
        b.bias.resize(static_cast<std::size_t>(outputs));
        for (auto& g : b.gain) g = static_cast<std::int16_t>(rng.integer(50, 2000));
        for (auto& h : b.bias) h = static_cast<std::int16_t>(rng.integer(-100, 100));
    };
    const auto branch = [&](std::int64_t ic, std::int64_t oc, std::int64_t k,
                            std::int64_t stride, std::int64_t padding) {
        Branch b;
        b.in_channels = ic;
        b.out_channels = oc;
        b.kernel = k;
        b.stride = stride;
        b.padding = padding;
        fill(b, static_cast<std::size_t>(oc * ic * k * k), oc);
        return b;
    };
    const auto conv = [&](const char* label, int input, Branch main, std::int64_t in_hw,
                          std::int64_t out_hw) {
        SnnLayer layer;
        layer.label = label;
        layer.input = input;
        layer.out_channels = main.out_channels;
        layer.main = std::move(main);
        layer.in_h = layer.in_w = in_hw;
        layer.out_h = layer.out_w = out_hw;
        return layer;
    };
    SnnModel model;
    model.name = "mutation";
    model.input_channels = 2;
    model.input_h = 4;
    model.input_w = 4;
    model.classes = 3;
    model.layers.push_back(conv("stem", -1, branch(2, 4, 3, 1, 1), 4, 4));
    SnnLayer down = conv("down", 0, branch(4, 8, 3, 2, 1), 4, 2);
    down.skip_src = 0;
    down.skip = branch(4, 8, 1, 2, 0);
    model.layers.push_back(std::move(down));
    SnnLayer block = conv("block", 1, branch(8, 8, 3, 1, 1), 2, 2);
    block.skip_src = 1;
    block.skip_is_identity = true;
    block.identity_skip.charge = 40;
    model.layers.push_back(std::move(block));
    SnnLayer fc;
    fc.op = LayerOp::kLinear;
    fc.label = "fc";
    fc.input = 2;
    fc.spiking = false;
    fc.main.in_features = 32;
    fc.main.out_features = 3;
    fc.main.stream_weight_bytes = 96;
    fill(fc.main, 96, 3);
    fc.out_channels = 3;
    model.layers.push_back(std::move(fc));
    model.validate();
    return model;
}

SpikeTrain mutation_input(const SnnModel& model, std::uint64_t seed) {
    util::Rng rng(seed);
    SpikeTrain train(4, SpikeMap(model.input_channels, model.input_h, model.input_w));
    for (auto& frame : train) {
        for (std::int64_t i = 0; i < frame.size(); ++i) frame.set_flat(i, rng.bernoulli(0.4));
    }
    return train;
}

/// Run `input` on both executors of `model`: true when both ran it, to
/// the same results (test::expect_same); false when both refused it with
/// std::invalid_argument. Anything else fails the test.
bool executors_agree(const SnnModel& model, const SpikeTrain& input) {
    std::optional<RunResult> functional;
    std::optional<sim::SiaRunResult> hardware;
    try {
        FunctionalEngine engine(model);
        functional = engine.run(input);
    } catch (const std::invalid_argument&) {
    }
    try {
        const sim::SiaConfig config;
        const sim::CompiledProgram program = core::SiaCompiler(config).compile(model);
        sim::Sia sia(config, model, program);
        hardware = sia.run(input);
    } catch (const std::invalid_argument&) {
    }
    EXPECT_EQ(functional.has_value(), hardware.has_value());
    if (!functional || !hardware) return false;
    test::expect_same(*hardware, *functional);
    return true;
}

/// Load one model mutant; true when it loaded and both executors ran it.
bool model_mutant_runs(const std::string& bytes, const SpikeTrain& input) {
    std::istringstream in(bytes);
    SnnModel model;
    try {
        model = load_model(in);
    } catch (const std::runtime_error&) {
        return false;
    } catch (const std::invalid_argument&) {
        return false;
    }
    return executors_agree(model, input);
}

TEST(Mutation, ModelBytesFailAloneOrRunTheSameOnBothExecutors) {
    const SnnModel model = mutation_model();
    std::stringstream buf;
    save_model(model, buf);
    const std::string bytes = buf.str();
    const auto boundaries = field_boundaries(bytes, [](std::istream& in) {
        return load_model(in);
    });
    const SpikeTrain input = mutation_input(model, 5);
    ASSERT_TRUE(model_mutant_runs(bytes, input));

    util::Rng rng(2024);
    int ran = 0;
    for (int i = 0; i < kMutants; ++i) {
        SCOPED_TRACE("mutant " + std::to_string(i));
        ran += model_mutant_runs(mutant(bytes, boundaries, rng), input) ? 1 : 0;
    }
    // Most bytes are weights, which load and run; the rest are refused.
    EXPECT_GT(ran, kMutants / 4);
    EXPECT_LT(ran, kMutants);
}

TEST(Mutation, ForgedLengthStreamMutantsFailWithoutAllocating) {
    const SpikeTrain input = mutation_input(mutation_model(), 5);
    util::Rng rng(2025);
    for (const bool gain_bank : {false, true}) {
        const std::string bytes = forged_length_stream(gain_bank);
        const auto boundaries = field_boundaries(bytes, [](std::istream& in) {
            return load_model(in);
        });
        for (int i = 0; i < kMutants / 2; ++i) {
            SCOPED_TRACE("gain_bank=" + std::to_string(gain_bank) + " mutant " +
                         std::to_string(i));
            const long before = peak_rss_kb();
            EXPECT_FALSE(model_mutant_runs(mutant(bytes, boundaries, rng), input));
            EXPECT_LT(peak_rss_kb() - before, 64 * 1024);
        }
    }
}

TEST(Mutation, TrainBytesFailAloneOrRunTheSameOnBothExecutors) {
    const SnnModel model = mutation_model();
    std::stringstream buf;
    save_train(mutation_input(model, 6), buf);
    const std::string bytes = buf.str();
    const auto boundaries = field_boundaries(bytes, [](std::istream& in) {
        return load_train(in);
    });

    util::Rng rng(2026);
    int ran = 0;
    for (int i = 0; i < kMutants; ++i) {
        SCOPED_TRACE("mutant " + std::to_string(i));
        std::istringstream in(mutant(bytes, boundaries, rng));
        SpikeTrain train;
        try {
            train = load_train(in);
        } catch (const std::runtime_error&) {
            continue;
        }
        ran += executors_agree(model, train) ? 1 : 0;
    }
    // Mutated spike words load and run; header and count fields refuse.
    EXPECT_GT(ran, 0);
    EXPECT_LT(ran, kMutants);
}

TEST(Mutation, HostileEventListsDropOnlyWhatIsOutOfRange) {
    constexpr std::int64_t kSize = 4;
    constexpr std::int64_t kSteps = 6;
    const SnnModel model = mutation_model();
    const std::vector<data::Event> scene = data::make_event_scene(
        {.size = kSize, .timesteps = kSteps, .objects = 1, .noise_rate = 0.05F, .seed = 8});
    ASSERT_FALSE(scene.empty());

    util::Rng rng(2027);
    const auto hostile16 = [&] {
        constexpr std::int16_t kValues[] = {-32768, -1, 0, 3, 4, 5, 32767};
        return kValues[rng.integer(0, 6)];
    };
    const auto hostile32 = [&] {
        constexpr std::int32_t kValues[] = {INT32_MIN, -1, 0, 5, 6, 7, INT32_MAX};
        return kValues[rng.integer(0, 6)];
    };
    for (int i = 0; i < kMutants; ++i) {
        SCOPED_TRACE("mutant " + std::to_string(i));
        std::vector<data::Event> events = scene;
        auto& e = events[static_cast<std::size_t>(
            rng.integer(0, static_cast<std::int64_t>(events.size()) - 1))];
        switch (rng.integer(0, 4)) {
            case 0: e.x = hostile16(); break;
            case 1: e.y = hostile16(); break;
            case 2: e.t = hostile32(); break;
            case 3: e.on = !e.on; break;
            default: events.resize(static_cast<std::size_t>(
                         rng.integer(0, static_cast<std::int64_t>(events.size()))));
        }
        std::int64_t out_of_range = 0;
        for (const data::Event& ev : events) {
            out_of_range += ev.x < 0 || ev.x >= kSize || ev.y < 0 || ev.y >= kSize ||
                            ev.t < 0 || ev.t >= kSteps;
        }
        const std::int64_t window = rng.integer(-1, kSteps + 1);
        std::int64_t dropped = -1;
        if (window < 1) {
            EXPECT_THROW((void)data::events_to_windows(events, kSize, kSteps, window, &dropped),
                         std::invalid_argument);
            continue;
        }
        const auto windows = data::events_to_windows(events, kSize, kSteps, window, &dropped);
        EXPECT_EQ(dropped, out_of_range);
        // The windows tile the whole-stream raster, and each runs the same
        // on both executors.
        const tensor::Tensor frames = data::events_to_frames(events, kSize, kSteps, nullptr);
        std::int64_t at = 0;
        for (const tensor::Tensor& w : windows) {
            for (std::int64_t j = 0; j < w.numel(); ++j) {
                ASSERT_EQ(w.flat(j), frames.flat(at + j));
            }
            at += w.numel();
            EXPECT_TRUE(executors_agree(model, frames_to_train(w)));
        }
        EXPECT_EQ(at, frames.numel());
    }
}

}  // namespace
}  // namespace sia::snn
