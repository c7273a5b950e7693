// Streaming-session latency: serve synthetic DVS event streams as
// chunked event windows against core::Server sessions (persistent
// membranes, carried readout) and report per-window p50/p99 service
// latency at several event densities, for both backends.
//
// Every chunked stream is checked bit-identical against the monolithic
// single-run reference — the sessions' correctness contract — and a
// chunked-vs-monolithic throughput comparison quantifies what the
// session machinery costs: N streams served as T/W-step windows versus
// the same N streams served as one T-step request each. With --check
// the chunked side must hold at least 0.8x of monolithic throughput at
// the ~1% ("typical") event density, the regression tripwire for
// accidental serialization across sessions (serialization *within* a
// session is the contract; across sessions it is a bug). The ratio is
// the median over 5 alternating monolithic/chunked pairs on one warmed
// server, so host noise that slows one sub-second pass cannot fail the
// gate, while a real serialization bug slows every chunked pass.
//
// The model is direct-constructed (conv 2->8, conv 8->16 stride 2,
// linear readout): event frames are 2-channel (ON/OFF polarity), so
// the RGB paper topologies do not apply.
//
// Emits machine-readable BENCH_STREAM.json.
//
// Flags: --quick (reduced sweep), --check, --out <path>, --threads <n>.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.hpp"
#include "core/backend.hpp"
#include "core/batch_runner.hpp"
#include "core/server.hpp"
#include "data/events.hpp"
#include "snn/encoding.hpp"
#include "snn/engine.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace sia;
using Clock = std::chrono::steady_clock;

constexpr std::int64_t kSensorSize = 24;
constexpr std::int64_t kWindowSteps = 8;
constexpr std::size_t kMaxBatch = 16;

/// 2-channel spiking CNN sized for DVS polarity frames.
snn::SnnModel stream_model(std::uint64_t seed) {
    util::Rng rng(seed);
    snn::SnnModel model;
    model.name = "dvs-stream";
    model.input_channels = 2;
    model.input_h = kSensorSize;
    model.input_w = kSensorSize;

    const auto fill = [&rng](std::vector<std::int8_t>& weights, int lo, int hi) {
        for (auto& w : weights) w = static_cast<std::int8_t>(rng.integer(lo, hi));
    };
    const auto coeffs = [&rng](snn::Branch& b, std::int64_t channels) {
        b.gain.resize(static_cast<std::size_t>(channels));
        b.bias.resize(static_cast<std::size_t>(channels));
        for (auto& g : b.gain) g = static_cast<std::int16_t>(rng.integer(50, 2000));
        for (auto& h : b.bias) h = static_cast<std::int16_t>(rng.integer(-100, 100));
    };

    snn::SnnLayer conv0;
    conv0.op = snn::LayerOp::kConv;
    conv0.label = "conv0";
    conv0.input = -1;
    conv0.main.in_channels = 2;
    conv0.main.out_channels = 8;
    conv0.main.kernel = 3;
    conv0.main.stride = 1;
    conv0.main.padding = 1;
    conv0.main.weights.resize(static_cast<std::size_t>(2 * 8 * 9));
    fill(conv0.main.weights, -127, 127);
    coeffs(conv0.main, 8);
    conv0.in_h = kSensorSize;
    conv0.in_w = kSensorSize;
    conv0.out_channels = 8;
    conv0.out_h = kSensorSize;
    conv0.out_w = kSensorSize;
    model.layers.push_back(std::move(conv0));

    snn::SnnLayer conv1;
    conv1.op = snn::LayerOp::kConv;
    conv1.label = "conv1";
    conv1.input = 0;
    conv1.main.in_channels = 8;
    conv1.main.out_channels = 16;
    conv1.main.kernel = 3;
    conv1.main.stride = 2;
    conv1.main.padding = 1;
    conv1.main.weights.resize(static_cast<std::size_t>(8 * 16 * 9));
    fill(conv1.main.weights, -127, 127);
    coeffs(conv1.main, 16);
    conv1.in_h = kSensorSize;
    conv1.in_w = kSensorSize;
    conv1.out_channels = 16;
    conv1.out_h = kSensorSize / 2;
    conv1.out_w = kSensorSize / 2;
    model.layers.push_back(std::move(conv1));

    snn::SnnLayer fc;
    fc.op = snn::LayerOp::kLinear;
    fc.label = "fc";
    fc.input = 1;
    fc.spiking = false;
    fc.main.in_features = 16 * (kSensorSize / 2) * (kSensorSize / 2);
    fc.main.out_features = 10;
    fc.main.weights.resize(static_cast<std::size_t>(fc.main.in_features * 10));
    fill(fc.main.weights, -64, 64);
    fc.main.gain.assign(10, 256);
    fc.main.bias.assign(10, 0);
    fc.out_channels = 10;
    model.layers.push_back(std::move(fc));
    model.classes = 10;
    model.validate();
    return model;
}

// ---- event streams ----

struct RateSpec {
    std::string name;
    std::int64_t objects;
    float event_rate;
    float noise_rate;
};

/// Three densities spanning the DVS operating range: sparse background
/// activity (~0.5% of pixel-steps firing), a typical tracked scene
/// (~1% — the density the throughput gate runs at), and a busy
/// multi-object scene (~5%).
constexpr std::array<RateSpec, 3> kRates = {{
    {"sparse", 0, 0.9F, 0.005F},
    {"typical", 1, 0.5F, 0.001F},
    {"busy", 3, 0.9F, 0.010F},
}};

struct Stream {
    std::vector<snn::SpikeTrain> windows;
    snn::SpikeTrain mono;
    std::size_t events = 0;
};

Stream make_stream(const RateSpec& spec, std::int64_t timesteps, std::uint64_t seed) {
    data::EventSceneConfig cfg;
    cfg.size = kSensorSize;
    cfg.timesteps = timesteps;
    cfg.objects = spec.objects;
    cfg.event_rate = spec.event_rate;
    cfg.noise_rate = spec.noise_rate;
    cfg.seed = seed;
    const auto events = data::make_event_scene(cfg);

    Stream stream;
    stream.events = events.size();
    std::int64_t dropped = 0;
    stream.mono =
        snn::frames_to_train(data::events_to_frames(events, cfg.size, timesteps, &dropped));
    for (const auto& frames :
         data::events_to_windows(events, cfg.size, timesteps, kWindowSteps)) {
        stream.windows.push_back(snn::frames_to_train(frames));
    }
    return stream;
}

/// Fraction of pixel-steps carrying an event (the paper's notion of
/// input activity; 2 polarity channels share one pixel budget).
double density(const std::vector<Stream>& streams, std::int64_t timesteps) {
    std::size_t events = 0;
    for (const auto& s : streams) events += s.events;
    return static_cast<double>(events) /
           (static_cast<double>(streams.size()) * static_cast<double>(timesteps) *
            static_cast<double>(kSensorSize * kSensorSize));
}

/// Build per-worker engines before any timed section.
void warm(const std::shared_ptr<core::Backend>& backend, const snn::SpikeTrain& train,
          std::size_t threads) {
    core::BatchRunner runner(backend, {.threads = threads});
    std::vector<core::Request> batch;
    for (std::size_t i = 0; i < std::max<std::size_t>(1, threads) * 2; ++i) {
        batch.push_back(core::Request::view_train(train));
    }
    (void)runner.run(batch);
}

// ---- per-window latency (closed loop) ----

struct RatePoint {
    std::string rate;
    std::string backend;
    double density = 0.0;
    std::size_t windows = 0;
    double p50_us = 0.0;
    double p99_us = 0.0;
};

/// Closed-loop window service: each window is submitted against the
/// stream's session and awaited before the next, so the histogram
/// records per-window service latency (admission to completion) on an
/// otherwise idle server. Verifies the chunked logits against the
/// monolithic reference — a mismatch is fatal to the bench.
util::StreamingHistogram measure_window_latency(
    const std::shared_ptr<core::Backend>& backend, const std::vector<Stream>& streams,
    const std::vector<std::vector<std::vector<std::int64_t>>>& references,
    std::size_t threads, bool& bit_identical) {
    core::Server server(backend, {.threads = threads, .max_batch = kMaxBatch});
    util::StreamingHistogram latency;
    for (std::size_t s = 0; s < streams.size(); ++s) {
        const std::string id = "stream-" + std::to_string(s);
        std::vector<std::vector<std::int64_t>> logits;
        for (std::size_t w = 0; w < streams[s].windows.size(); ++w) {
            const bool last = w + 1 == streams[s].windows.size();
            const auto t0 = Clock::now();
            const auto response =
                server.submit(core::Request::from_train(streams[s].windows[w])
                                  .with_session(id, /*close=*/last))
                    .get();
            latency.add(
                std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
            logits.insert(logits.end(), response.logits_per_step.begin(),
                          response.logits_per_step.end());
        }
        if (logits != references[s]) {
            bit_identical = false;
            std::cerr << "BIT-IDENTITY FAILED: chunked stream " << s
                      << " diverged from its monolithic reference\n";
        }
    }
    server.shutdown();
    return latency;
}

// ---- chunked vs monolithic throughput ----

/// Alternating monolithic/chunked passes the throughput gate takes the
/// median of.
constexpr int kThroughputPairs = 5;

struct ThroughputPoint {
    std::string backend;
    double density = 0.0;
    double mono_steps_per_sec = 0.0;     ///< median over the pairs
    double chunked_steps_per_sec = 0.0;  ///< median over the pairs
    double ratio = 0.0;                  ///< median of the per-pair ratios
};

double median(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

ThroughputPoint measure_throughput(const std::string& name,
                                   const std::shared_ptr<core::Backend>& backend,
                                   const std::vector<Stream>& streams, std::int64_t timesteps,
                                   std::size_t threads) {
    const double total_steps =
        static_cast<double>(streams.size()) * static_cast<double>(timesteps);
    ThroughputPoint point;
    point.backend = name;
    point.density = density(streams, timesteps);

    warm(backend, streams.front().mono, threads);
    core::Server server(backend, {.threads = threads, .max_batch = kMaxBatch});
    std::vector<double> mono;
    std::vector<double> chunked;
    std::vector<double> ratios;
    for (int pair = 0; pair < kThroughputPairs; ++pair) {
        // Monolithic: one T-step request per stream, all in flight at once.
        std::vector<std::future<core::Response>> futures;
        const util::WallTimer mono_wall;
        for (const auto& s : streams) {
            futures.push_back(server.submit(core::Request::view_train(s.mono)));
        }
        for (auto& f : futures) (void)f.get();
        mono.push_back(1e3 * total_steps / mono_wall.millis());

        // Chunked: the same streams as T/W-step session windows (fresh
        // session ids every pair), every window of every stream submitted
        // up front. Windows of one stream serialize (the session
        // contract); distinct streams must still fill the wave in
        // parallel — that parallelism is what the 0.8x gate polices.
        futures.clear();
        const util::WallTimer chunked_wall;
        for (std::size_t s = 0; s < streams.size(); ++s) {
            const auto& windows = streams[s].windows;
            const std::string id =
                "pair-" + std::to_string(pair) + "-stream-" + std::to_string(s);
            for (std::size_t w = 0; w < windows.size(); ++w) {
                futures.push_back(server.submit(
                    core::Request::view_train(windows[w])
                        .with_session(id, /*close=*/w + 1 == windows.size())));
            }
        }
        for (auto& f : futures) (void)f.get();
        chunked.push_back(1e3 * total_steps / chunked_wall.millis());
        ratios.push_back(chunked.back() / mono.back());
    }
    server.shutdown();

    point.mono_steps_per_sec = median(mono);
    point.chunked_steps_per_sec = median(chunked);
    point.ratio = median(ratios);
    return point;
}

void write_json(const std::string& path, const std::vector<RatePoint>& rates,
                const std::vector<ThroughputPoint>& throughput, bool bit_identical,
                std::int64_t timesteps, std::size_t latency_streams,
                std::size_t throughput_streams, bool quick, std::size_t threads) {
    std::ofstream out(path, std::ios::trunc);
    if (!out) {
        std::cerr << "stream_latency: cannot open " << path << "\n";
        std::exit(EXIT_FAILURE);
    }
    out << "{\n  \"bench\": \"stream_latency\",\n"
        << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
        << "  \"threads\": " << threads << ",\n"
        << "  \"sensor_size\": " << kSensorSize << ",\n"
        << "  \"total_timesteps\": " << timesteps << ",\n"
        << "  \"window_steps\": " << kWindowSteps << ",\n"
        << "  \"latency_streams\": " << latency_streams << ",\n"
        << "  \"throughput_streams\": " << throughput_streams << ",\n"
        << "  \"bit_identical\": " << (bit_identical ? "true" : "false") << ",\n"
        << "  \"window_latency\": [\n";
    for (std::size_t i = 0; i < rates.size(); ++i) {
        const RatePoint& r = rates[i];
        out << "    {\"rate\": \"" << r.rate << "\", \"backend\": \"" << r.backend
            << "\", \"density\": " << r.density << ", \"windows\": " << r.windows
            << ", \"p50_us\": " << r.p50_us << ", \"p99_us\": " << r.p99_us << "}"
            << (i + 1 < rates.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"throughput\": [\n";
    for (std::size_t i = 0; i < throughput.size(); ++i) {
        const ThroughputPoint& t = throughput[i];
        out << "    {\"backend\": \"" << t.backend << "\", \"density\": " << t.density
            << ", \"mono_steps_per_sec\": " << t.mono_steps_per_sec
            << ", \"chunked_steps_per_sec\": " << t.chunked_steps_per_sec
            << ", \"ratio\": " << t.ratio << "}"
            << (i + 1 < throughput.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
    bool quick = false;
    bool check = false;
    std::string out_path = "BENCH_STREAM.json";
    std::size_t threads = 4;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--check") == 0) {
            check = true;
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
            threads = static_cast<std::size_t>(std::atoll(argv[++i]));
        } else {
            std::cerr << "usage: stream_latency [--quick] [--check] [--out <path>] "
                         "[--threads <n>]\n";
            return EXIT_FAILURE;
        }
    }

    bench::print_header("Streaming-session latency (chunked DVS event windows)");

    const std::int64_t timesteps = quick ? 32 : 64;
    const std::size_t latency_streams = quick ? 2 : 4;
    const std::size_t throughput_streams = quick ? 4 : 8;

    const auto model = stream_model(59);
    snn::FunctionalEngine reference(model);

    util::Table table("stream_latency" + std::string(quick ? " (quick)" : "") +
                      ", sensor " + std::to_string(kSensorSize) + "x" +
                      std::to_string(kSensorSize) + ", T=" + std::to_string(timesteps) +
                      ", W=" + std::to_string(kWindowSteps) +
                      ", threads=" + std::to_string(threads));
    table.header({"rate", "backend", "density %", "windows", "p50 ms", "p99 ms"});

    bool check_failed = false;
    bool bit_identical = true;
    std::vector<RatePoint> rate_points;

    for (const RateSpec& spec : kRates) {
        std::vector<Stream> streams;
        std::vector<std::vector<std::vector<std::int64_t>>> references;
        for (std::size_t s = 0; s < latency_streams; ++s) {
            streams.push_back(make_stream(spec, timesteps, 1000 + 31 * s));
            references.push_back(reference.run(streams.back().mono).logits_per_step);
        }
        const double d = density(streams, timesteps);
        const std::size_t windows = streams.front().windows.size() * streams.size();

        for (const bool use_sia : {false, true}) {
            const std::string name = use_sia ? "sia" : "functional";
            std::shared_ptr<core::Backend> backend;
            if (use_sia) {
                backend = std::make_shared<core::SiaBackend>(model);
            } else {
                backend = std::make_shared<core::FunctionalBackend>(model);
            }
            warm(backend, streams.front().mono, threads);
            const auto latency = measure_window_latency(backend, streams, references,
                                                        threads, bit_identical);
            RatePoint point;
            point.rate = spec.name;
            point.backend = name;
            point.density = d;
            point.windows = latency.count();
            point.p50_us = latency.p50();
            point.p99_us = latency.p99();
            rate_points.push_back(point);
            table.row({spec.name, name, util::cell(100.0 * d, 2),
                       util::cell(static_cast<double>(point.windows), 0),
                       util::cell(point.p50_us / 1e3, 3),
                       util::cell(point.p99_us / 1e3, 3)});
            if (check) {
                const bool lost = point.windows != windows;
                const bool disordered =
                    !(point.p50_us > 0.0) || point.p50_us > point.p99_us + 1e-9;
                if (lost || disordered) {
                    check_failed = true;
                    std::cerr << "CHECK FAILED: rate=" << spec.name << " backend="
                              << name << " windows=" << point.windows << "/" << windows
                              << " p50/p99=" << point.p50_us << "/" << point.p99_us
                              << "\n";
                }
            }
        }
    }
    table.separator();

    // Throughput comparison at the typical (~1%) density.
    const RateSpec& typical = kRates[1];
    std::vector<Stream> load_streams;
    for (std::size_t s = 0; s < throughput_streams; ++s) {
        load_streams.push_back(make_stream(typical, timesteps, 2000 + 17 * s));
    }

    std::vector<ThroughputPoint> throughput;
    // The throughput sections never read per-step logits, so the
    // functional lane drops readout history (the latency section above
    // verifies logits_per_step and keeps the default).
    snn::EngineConfig lean;
    lean.record_readout_history = false;
    for (const bool use_sia : {false, true}) {
        const std::string name = use_sia ? "sia" : "functional";
        std::shared_ptr<core::Backend> backend;
        if (use_sia) {
            backend = std::make_shared<core::SiaBackend>(model);
        } else {
            backend = std::make_shared<core::FunctionalBackend>(model, lean);
        }
        const ThroughputPoint point =
            measure_throughput(name, backend, load_streams, timesteps, threads);
        throughput.push_back(point);
        table.row({"throughput", name, util::cell(100.0 * point.density, 2),
                   util::cell(point.mono_steps_per_sec, 0) + " mono st/s",
                   util::cell(point.chunked_steps_per_sec, 0) + " chunk st/s",
                   util::cell(point.ratio, 3) + "x"});
        if (check && point.ratio < 0.8) {
            check_failed = true;
            std::cerr << "CHECK FAILED: backend=" << name << " chunked throughput "
                      << point.chunked_steps_per_sec << " st/s is "
                      << point.ratio << "x monolithic " << point.mono_steps_per_sec
                      << " st/s (floor 0.8x; median of " << kThroughputPairs
                      << " pairs) at density " << point.density << "\n";
        }
    }

    table.print(std::cout);
    write_json(out_path, rate_points, throughput, bit_identical, timesteps,
               latency_streams, throughput_streams, quick, threads);
    std::cout << "wrote " << out_path << "\n";

    if (!bit_identical) {
        std::cerr << "FATAL: chunked streams diverged from the monolithic reference\n";
        return EXIT_FAILURE;
    }
    if (check_failed) {
        std::cerr << "FATAL: streaming-session bench failed its gates\n";
        return EXIT_FAILURE;
    }
    return EXIT_SUCCESS;
}
