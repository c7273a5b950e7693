// SnnModel serialization round-trip and corruption-handling tests, plus
// the deployment property: a loaded model is bit-identical in execution
// to the original (functional engine outputs match exactly).
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "core/convert.hpp"
#include "nn/vgg.hpp"
#include "snn/encoding.hpp"
#include "snn/engine.hpp"
#include "snn/serialize.hpp"

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
    EXPECT_EQ(a.logits_per_step, b.logits_per_step);
    EXPECT_EQ(a.spike_counts, b.spike_counts);
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

}  // namespace
}  // namespace sia::snn
