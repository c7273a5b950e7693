#include "snn/serialize.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>

namespace sia::snn {

namespace {

constexpr char kMagic[8] = {'S', 'I', 'A', 'S', 'N', 'N', '0', '\n'};

// ---- primitive writers/readers (little-endian on all supported targets) ----

template <typename T>
void write_pod(std::ostream& out, const T& v) {
    out.write(reinterpret_cast<const char*>(&v), sizeof(T));
    if (!out) throw std::runtime_error("save_model: write failed");
}

template <typename T>
T read_pod(std::istream& in) {
    T v{};
    in.read(reinterpret_cast<char*>(&v), sizeof(T));
    if (!in) throw std::runtime_error("load_model: truncated stream");
    return v;
}

void write_string(std::ostream& out, const std::string& s) {
    write_pod<std::uint32_t>(out, static_cast<std::uint32_t>(s.size()));
    out.write(s.data(), static_cast<std::streamsize>(s.size()));
    if (!out) throw std::runtime_error("save_model: write failed");
}

std::string read_string(std::istream& in) {
    const auto n = read_pod<std::uint32_t>(in);
    if (n > (1U << 20)) throw std::runtime_error("load_model: absurd string length");
    std::string s(n, '\0');
    in.read(s.data(), n);
    if (!in) throw std::runtime_error("load_model: truncated string");
    return s;
}

template <typename T>
void write_vec(std::ostream& out, const std::vector<T>& v) {
    write_pod<std::uint64_t>(out, static_cast<std::uint64_t>(v.size()));
    out.write(reinterpret_cast<const char*>(v.data()),
              static_cast<std::streamsize>(v.size() * sizeof(T)));
    if (!out) throw std::runtime_error("save_model: write failed");
}

template <typename T>
std::vector<T> read_vec(std::istream& in) {
    const auto n = read_pod<std::uint64_t>(in);
    if (n > (1ULL << 31)) throw std::runtime_error("load_model: absurd vector length");
    // Read in bounded chunks, so the allocation grows only with the
    // bytes actually present: a forged length in a short stream fails
    // at its first missing chunk instead of reserving gigabytes.
    constexpr std::size_t kChunk = (std::size_t{1} << 20) / sizeof(T);
    std::vector<T> v;
    while (v.size() < n) {
        const std::size_t done = v.size();
        v.resize(done + std::min<std::size_t>(kChunk, static_cast<std::size_t>(n) - done));
        in.read(reinterpret_cast<char*>(v.data() + done),
                static_cast<std::streamsize>((v.size() - done) * sizeof(T)));
        if (!in) throw std::runtime_error("load_model: truncated vector");
    }
    return v;
}

void write_branch(std::ostream& out, const Branch& b) {
    write_vec(out, b.weights);
    write_pod(out, b.weight_scale);
    write_pod(out, b.stream_weight_bytes);
    write_vec(out, b.gain);
    write_vec(out, b.bias);
    write_pod<std::int32_t>(out, b.gain_shift);
    write_pod(out, b.in_channels);
    write_pod(out, b.out_channels);
    write_pod(out, b.kernel);
    write_pod(out, b.stride);
    write_pod(out, b.padding);
    write_pod(out, b.in_features);
    write_pod(out, b.out_features);
}

Branch read_branch(std::istream& in) {
    Branch b;
    b.weights = read_vec<std::int8_t>(in);
    b.weight_scale = read_pod<float>(in);
    b.stream_weight_bytes = read_pod<std::int64_t>(in);
    b.gain = read_vec<std::int16_t>(in);
    b.bias = read_vec<std::int16_t>(in);
    b.gain_shift = read_pod<std::int32_t>(in);
    b.in_channels = read_pod<std::int64_t>(in);
    b.out_channels = read_pod<std::int64_t>(in);
    b.kernel = read_pod<std::int64_t>(in);
    b.stride = read_pod<std::int64_t>(in);
    b.padding = read_pod<std::int64_t>(in);
    b.in_features = read_pod<std::int64_t>(in);
    b.out_features = read_pod<std::int64_t>(in);
    return b;
}

}  // namespace

void save_model(const SnnModel& model, std::ostream& out) {
    model.validate();
    out.write(kMagic, sizeof(kMagic));
    write_pod<std::uint32_t>(out, kSnnFormatVersion);
    write_string(out, model.name);
    write_pod(out, model.input_channels);
    write_pod(out, model.input_h);
    write_pod(out, model.input_w);
    write_pod(out, model.classes);
    write_pod<std::uint32_t>(out, static_cast<std::uint32_t>(model.layers.size()));
    for (const SnnLayer& layer : model.layers) {
        write_pod<std::uint8_t>(out, static_cast<std::uint8_t>(layer.op));
        write_string(out, layer.label);
        write_pod<std::int32_t>(out, layer.input);
        write_branch(out, layer.main);
        write_pod<std::int32_t>(out, layer.skip_src);
        write_pod<std::uint8_t>(out, layer.skip_is_identity ? 1 : 0);
        write_pod(out, layer.identity_skip.charge);
        if (layer.has_skip() && !layer.skip_is_identity) write_branch(out, layer.skip);
        write_pod<std::uint8_t>(out, layer.spiking ? 1 : 0);
        write_pod<std::uint8_t>(out, static_cast<std::uint8_t>(layer.neuron));
        write_pod<std::uint8_t>(out, static_cast<std::uint8_t>(layer.reset));
        write_pod(out, layer.threshold);
        write_pod(out, layer.initial_potential);
        write_pod<std::int32_t>(out, layer.leak_shift);
        write_pod(out, layer.step_size);
        write_pod(out, layer.out_channels);
        write_pod(out, layer.out_h);
        write_pod(out, layer.out_w);
        write_pod(out, layer.in_h);
        write_pod(out, layer.in_w);
    }
    out.flush();
    if (!out) throw std::runtime_error("save_model: flush failed");
}

SnnModel load_model(std::istream& in) {
    char magic[sizeof(kMagic)] = {};
    in.read(magic, sizeof(magic));
    if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
        throw std::runtime_error("load_model: bad magic (not a SIA SNN file)");
    }
    const auto version = read_pod<std::uint32_t>(in);
    if (version > kSnnFormatVersion) {
        throw std::runtime_error("load_model: unsupported format version " +
                                 std::to_string(version));
    }
    SnnModel model;
    model.name = read_string(in);
    model.input_channels = read_pod<std::int64_t>(in);
    model.input_h = read_pod<std::int64_t>(in);
    model.input_w = read_pod<std::int64_t>(in);
    model.classes = read_pod<std::int64_t>(in);
    const auto layer_count = read_pod<std::uint32_t>(in);
    if (layer_count > 4096) throw std::runtime_error("load_model: absurd layer count");
    model.layers.reserve(layer_count);
    for (std::uint32_t i = 0; i < layer_count; ++i) {
        SnnLayer layer;
        layer.op = static_cast<LayerOp>(read_pod<std::uint8_t>(in));
        layer.label = read_string(in);
        layer.input = read_pod<std::int32_t>(in);
        layer.main = read_branch(in);
        layer.skip_src = read_pod<std::int32_t>(in);
        layer.skip_is_identity = read_pod<std::uint8_t>(in) != 0;
        layer.identity_skip.charge = read_pod<std::int16_t>(in);
        if (layer.has_skip() && !layer.skip_is_identity) layer.skip = read_branch(in);
        layer.spiking = read_pod<std::uint8_t>(in) != 0;
        layer.neuron = static_cast<NeuronKind>(read_pod<std::uint8_t>(in));
        layer.reset = static_cast<ResetMode>(read_pod<std::uint8_t>(in));
        layer.threshold = read_pod<std::int16_t>(in);
        layer.initial_potential = read_pod<std::int16_t>(in);
        layer.leak_shift = read_pod<std::int32_t>(in);
        layer.step_size = read_pod<float>(in);
        layer.out_channels = read_pod<std::int64_t>(in);
        layer.out_h = read_pod<std::int64_t>(in);
        layer.out_w = read_pod<std::int64_t>(in);
        layer.in_h = read_pod<std::int64_t>(in);
        layer.in_w = read_pod<std::int64_t>(in);
        model.layers.push_back(std::move(layer));
    }
    model.validate();
    return model;
}

namespace {
constexpr char kTrainMagic[8] = {'S', 'I', 'A', 'S', 'P', 'K', '0', '\n'};
}  // namespace

void save_train(const SpikeTrain& train, std::ostream& out) {
    out.write(kTrainMagic, sizeof(kTrainMagic));
    write_pod<std::uint32_t>(out, kSpikeTrainFormatVersion);
    write_pod<std::uint64_t>(out, static_cast<std::uint64_t>(train.size()));
    const std::int64_t c = train.empty() ? 0 : train.front().channels();
    const std::int64_t h = train.empty() ? 0 : train.front().height();
    const std::int64_t w = train.empty() ? 0 : train.front().width();
    write_pod(out, c);
    write_pod(out, h);
    write_pod(out, w);
    for (const SpikeMap& m : train) {
        if (m.channels() != c || m.height() != h || m.width() != w) {
            throw std::runtime_error("save_train: mixed geometries in train");
        }
        write_vec(out, m.raw());
    }
    out.flush();
    if (!out) throw std::runtime_error("save_train: flush failed");
}

SpikeTrain load_train(std::istream& in) {
    char magic[sizeof(kTrainMagic)] = {};
    in.read(magic, sizeof(magic));
    if (!in || std::memcmp(magic, kTrainMagic, sizeof(kTrainMagic)) != 0) {
        throw std::runtime_error("load_train: bad magic (not a SIA spike train)");
    }
    const auto version = read_pod<std::uint32_t>(in);
    if (version > kSpikeTrainFormatVersion) {
        throw std::runtime_error("load_train: unsupported format version " +
                                 std::to_string(version));
    }
    const auto timesteps = read_pod<std::uint64_t>(in);
    if (timesteps > (1ULL << 24)) throw std::runtime_error("load_train: absurd timesteps");
    const auto c = read_pod<std::int64_t>(in);
    const auto h = read_pod<std::int64_t>(in);
    const auto w = read_pod<std::int64_t>(in);
    // Per-dimension bound first so the product below cannot overflow.
    constexpr std::int64_t kDimMax = 1LL << 20;
    if (c < 0 || h < 0 || w < 0 || c > kDimMax || h > kDimMax || w > kDimMax ||
        c * h * w > (1LL << 31)) {
        throw std::runtime_error("load_train: absurd geometry");
    }
    // Frames are read one at a time, and each stored word count is checked
    // against the geometry before its buffer is allocated, so a corrupt
    // header or count fails without reserving memory for data that is
    // not in the stream.
    const auto words_per_frame = static_cast<std::uint64_t>((c * h * w + 63) / 64);
    SpikeTrain train;
    for (std::uint64_t t = 0; t < timesteps; ++t) {
        if (read_pod<std::uint64_t>(in) != words_per_frame) {
            throw std::runtime_error("load_train: word count does not match the geometry");
        }
        std::vector<std::uint64_t> words(static_cast<std::size_t>(words_per_frame));
        in.read(reinterpret_cast<char*>(words.data()),
                static_cast<std::streamsize>(words.size() * sizeof(std::uint64_t)));
        if (!in) throw std::runtime_error("load_train: truncated frame");
        // set_words recomputes the maintained spike count.
        train.emplace_back(c, h, w).set_words(std::move(words));
    }
    return train;
}

void save_model_file(const SnnModel& model, const std::string& path) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("save_model_file: cannot open " + path);
    save_model(model, out);
}

SnnModel load_model_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("load_model_file: cannot open " + path);
    return load_model(in);
}

}  // namespace sia::snn
