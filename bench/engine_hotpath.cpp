// FunctionalEngine hot-path bench: the conv psum kernel — the
// output-stationary event kernel (index build + compute::conv_psum_event,
// what FunctionalEngine and sim::Sia both run) against the dense gather
// reference (compute::conv_psum_chunk_oc on a zeroed bank, which no
// executor runs) — swept over spike density x VGG-11 / ResNet-18 conv
// shape; the fire-stage sweep — scalar per-neuron loop vs the fused
// vectorized aggregate+fire kernels, engine steps over the same shapes
// plus a pool-unrolled-style FC; and the intra-inference section: one
// whole VGG-11 inference (32 px, T=8, the calibrated model bench/e2e
// serves) at helper-team sizes 1, 2 and 4 against the serial engine.
//
// Prints steps/s per (shape, density) and emits machine-readable
// BENCH_ENGINE.json (the psum sweep in "results", the fire-stage sweep
// in "fire_results", single-inference latency per team size in
// "intra_inference"). With --check, exits nonzero if, on any conv
// shape at 5% or 50% density, the event kernel is slower than the
// dense gather or its psums differ from the gather's; if at 5% the
// fused fire stage is slower than the scalar baseline (the CI
// perf-smoke gates: at paper-realistic spike rates neither
// optimization may regress below its baseline, and the event kernel
// must hold up at half-full maps too); or if any tiled inference
// differs from the serial one in its readout, spike counts or any
// layer's last-step spikes. The team sizes carry no timing gate: they
// need idle cores, which shared CI runners do not promise.
//
// Flags: --quick (reduced sweep), --check, --out <path>,
//        --min-ms <per-measurement milliseconds>.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/e2e/models.hpp"
#include "core/convert.hpp"
#include "nn/vgg.hpp"
#include "snn/compute.hpp"
#include "snn/encoding.hpp"
#include "snn/engine.hpp"
#include "snn/model.hpp"
#include "snn/spike.hpp"
#include "snn/tile_team.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace sia;

struct BenchShape {
    std::string name;
    bool conv = true;
    // Conv geometry.
    std::int64_t ic = 0, oc = 0, in_hw = 0, kernel = 3, stride = 1, padding = 1;
    // Linear geometry (input is [1, in_feat_h, in_feat_w]).
    std::int64_t in_feat_h = 0, in_feat_w = 0, out_features = 0;
};

snn::SnnModel make_model(const BenchShape& s, util::Rng& rng) {
    snn::SnnModel model;
    model.name = s.name;
    model.classes = 1;
    snn::SnnLayer layer;
    layer.label = s.name;
    layer.input = -1;
    layer.spiking = true;
    if (s.conv) {
        model.input_channels = s.ic;
        model.input_h = s.in_hw;
        model.input_w = s.in_hw;
        layer.op = snn::LayerOp::kConv;
        layer.main.in_channels = s.ic;
        layer.main.out_channels = s.oc;
        layer.main.kernel = s.kernel;
        layer.main.stride = s.stride;
        layer.main.padding = s.padding;
        layer.main.weights.resize(
            static_cast<std::size_t>(s.oc * s.ic * s.kernel * s.kernel));
        layer.main.gain.assign(static_cast<std::size_t>(s.oc), 256);
        layer.main.bias.assign(static_cast<std::size_t>(s.oc), 0);
        layer.out_channels = s.oc;
        layer.out_h = (s.in_hw + 2 * s.padding - s.kernel) / s.stride + 1;
        layer.out_w = layer.out_h;
        layer.in_h = s.in_hw;
        layer.in_w = s.in_hw;
    } else {
        model.input_channels = 1;
        model.input_h = s.in_feat_h;
        model.input_w = s.in_feat_w;
        layer.op = snn::LayerOp::kLinear;
        layer.main.in_features = s.in_feat_h * s.in_feat_w;
        layer.main.out_features = s.out_features;
        layer.main.weights.resize(
            static_cast<std::size_t>(layer.main.in_features * s.out_features));
        layer.main.gain.assign(static_cast<std::size_t>(s.out_features), 256);
        layer.main.bias.assign(static_cast<std::size_t>(s.out_features), 0);
        layer.out_channels = s.out_features;
    }
    for (auto& w : layer.main.weights) {
        w = static_cast<std::int8_t>(rng.integer(-32, 31));
    }
    model.layers.push_back(std::move(layer));
    return model;
}

std::vector<snn::SpikeMap> make_inputs(const snn::SnnModel& model, double density,
                                       std::int64_t timesteps, util::Rng& rng) {
    std::vector<snn::SpikeMap> inputs(
        static_cast<std::size_t>(timesteps),
        snn::SpikeMap(model.input_channels, model.input_h, model.input_w));
    for (auto& map : inputs) {
        for (std::int64_t i = 0; i < map.size(); ++i) {
            if (rng.bernoulli(density)) map.set_flat(i, true);
        }
    }
    return inputs;
}

/// Best rate of `run` (which performs `steps` steps per call) over 3
/// independent reps of at least `min_ms` each: a single scheduler stall
/// inside one rep cannot poison the reading (measurements run on shared
/// CI runners, and a fast step here is microseconds).
template <typename Run>
double best_steps_per_sec(Run&& run, std::int64_t steps, double min_ms) {
    run();  // warm caches + page in
    double best_sps = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
        const util::WallTimer timer;
        std::int64_t done = 0;
        double elapsed = 0.0;
        do {
            run();
            done += steps;
            elapsed = timer.millis();
        } while (elapsed < min_ms);
        best_sps = std::max(best_sps, 1e3 * static_cast<double>(done) / elapsed);
    }
    return best_sps;
}

double engine_steps_per_sec(const snn::SnnModel& model, snn::EngineConfig config,
                            const std::vector<snn::SpikeMap>& inputs, double min_ms) {
    snn::FunctionalEngine engine(model, config);
    return best_steps_per_sec(
        [&] {
            for (const auto& in : inputs) engine.step(in);
        },
        static_cast<std::int64_t>(inputs.size()), min_ms);
}

/// Main-branch psums of one conv layer over every input, through each
/// kernel; `identical` records whether the banks agreed on every input.
struct PsumReading {
    double gather_sps = 0.0;
    double event_sps = 0.0;
    bool identical = true;
};

PsumReading measure_psum(const snn::SnnModel& model, const std::vector<snn::SpikeMap>& inputs,
                         double min_ms) {
    const snn::SnnLayer& layer = model.layers.front();
    const snn::Branch& b = layer.main;
    const std::vector<std::int8_t> wt = snn::compute::transpose_conv(b);
    const std::vector<std::int8_t> blocked = snn::compute::block_conv(b);
    const std::int64_t plane = layer.out_h * layer.out_w;
    const std::int64_t units = snn::compute::conv_event_blocks(b.out_channels) * plane;
    std::vector<std::int32_t> gather(static_cast<std::size_t>(plane * b.out_channels));
    std::vector<std::int32_t> event(gather.size());
    snn::compute::SpikeIndex index;
    const auto run_gather = [&](const snn::SpikeMap& in) {
        std::fill(gather.begin(), gather.end(), 0);
        snn::compute::conv_psum_chunk_oc(b, wt, in, layer.out_h, layer.out_w, 0, b.out_channels,
                                         gather);
    };
    const auto run_event = [&](const snn::SpikeMap& in) {
        index.build(in);
        snn::compute::conv_psum_event(b, blocked, index, layer.out_h, layer.out_w, 0, units,
                                      event);
    };
    PsumReading r;
    for (const auto& in : inputs) {
        run_gather(in);
        run_event(in);
        r.identical = r.identical && gather == event;
    }
    const auto steps = static_cast<std::int64_t>(inputs.size());
    r.gather_sps = best_steps_per_sec(
        [&] {
            for (const auto& in : inputs) run_gather(in);
        },
        steps, min_ms);
    r.event_sps = best_steps_per_sec(
        [&] {
            for (const auto& in : inputs) run_event(in);
        },
        steps, min_ms);
    return r;
}

struct ResultRow {
    std::string shape;
    bool conv = true;
    double density = 0.0;
    double measured_density = 0.0;
    /// Psum sweep (conv shapes only).
    PsumReading psum;
    /// Fire-stage sweep: engine steps with the scalar per-neuron loop
    /// vs the fused vector kernels.
    double scalar_fire_sps = 0.0;
    double vector_fire_sps = 0.0;
};

/// Single-inference latency at one helper-team size (0 = the serial
/// engine, no team lent).
struct TeamRow {
    std::size_t team = 0;
    double median_ms = 0.0;
    bool bit_identical = true;
};

/// Everything one inference leaves behind that tiling must not change.
struct Fingerprint {
    std::vector<std::int64_t> readout;
    std::vector<std::int64_t> spike_counts;
    std::vector<snn::SpikeMap> last_spikes;

    bool operator==(const Fingerprint&) const = default;
};

Fingerprint fingerprint(const snn::FunctionalEngine& engine, const snn::RunResult& run) {
    Fingerprint f{run.readout, run.spike_counts, {}};
    for (std::size_t l = 0; l < engine.model().layers.size(); ++l) {
        f.last_spikes.push_back(engine.layer_spikes(l));
    }
    return f;
}

/// The intra-inference section: every image runs through the serial
/// engine and through each team size in turn, alternating, so host
/// drift hits every configuration alike; each reading is the median
/// over images and passes.
std::vector<TeamRow> measure_teams(bool quick) {
    util::Rng calibration(bench::e2e::kModelSeed);
    const auto ann = bench::e2e::calibrated_ann<nn::Vgg11>(
        nn::VggConfig{}, bench::e2e::uniform_images(2, 3, 32, calibration));
    const snn::SnnModel model = core::AnnToSnnConverter{}.convert(ann->ir());
    const auto images = bench::e2e::image_pool(quick ? 4 : 16, 3, 32, 1);
    const int passes = quick ? 2 : 3;
    constexpr std::int64_t kTimesteps = 8;

    const std::vector<std::size_t> sizes = {0, 1, 2, 4};
    std::vector<std::unique_ptr<snn::TileTeam>> teams;
    std::vector<std::unique_ptr<snn::FunctionalEngine>> engines;
    for (const std::size_t size : sizes) {
        teams.push_back(size > 0 ? std::make_unique<snn::TileTeam>(size - 1) : nullptr);
        engines.push_back(std::make_unique<snn::FunctionalEngine>(
            model, snn::EngineConfig{.record_readout_history = false}));
    }
    std::vector<TeamRow> rows(sizes.size());
    std::vector<std::vector<double>> times(sizes.size());
    for (std::size_t i = 0; i < sizes.size(); ++i) rows[i].team = sizes[i];
    for (int pass = -1; pass < passes; ++pass) {  // pass -1 warms up
        for (const tensor::Tensor& image : images) {
            const snn::SpikeTrain train = snn::encode_thermometer(image, kTimesteps);
            Fingerprint serial;
            for (std::size_t i = 0; i < sizes.size(); ++i) {
                snn::FunctionalEngine& engine = *engines[i];
                const snn::TeamLoan loan(engine, teams[i].get());
                const util::WallTimer timer;
                const snn::RunResult run = engine.run(train);
                const double ms = timer.millis();
                if (pass >= 0) times[i].push_back(ms);
                Fingerprint got = fingerprint(engine, run);
                if (i == 0) {
                    serial = std::move(got);
                } else if (!(got == serial)) {
                    rows[i].bit_identical = false;
                }
            }
        }
    }
    for (std::size_t i = 0; i < sizes.size(); ++i) {
        std::vector<double>& t = times[i];
        std::nth_element(t.begin(), t.begin() + static_cast<std::ptrdiff_t>(t.size() / 2),
                         t.end());
        rows[i].median_ms = t[t.size() / 2];
    }
    return rows;
}

void write_json(const std::string& path, const std::vector<ResultRow>& rows,
                const std::vector<TeamRow>& teams, bool quick) {
    std::ofstream out(path, std::ios::trunc);
    if (!out) {
        std::cerr << "engine_hotpath: cannot open " << path << "\n";
        std::exit(EXIT_FAILURE);
    }
    out << "{\n  \"bench\": \"engine_hotpath\",\n"
        << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
        << "  \"results\": [\n";
    std::vector<const ResultRow*> conv_rows;
    for (const ResultRow& r : rows) {
        if (r.conv) conv_rows.push_back(&r);
    }
    for (std::size_t i = 0; i < conv_rows.size(); ++i) {
        const ResultRow& r = *conv_rows[i];
        out << "    {\"shape\": \"" << r.shape << "\", \"density\": " << r.density
            << ", \"measured_density\": " << r.measured_density
            << ", \"gather_steps_per_sec\": " << r.psum.gather_sps
            << ", \"event_steps_per_sec\": " << r.psum.event_sps << ", \"event_speedup\": "
            << (r.psum.gather_sps > 0 ? r.psum.event_sps / r.psum.gather_sps : 0.0)
            << ", \"bit_identical\": " << (r.psum.identical ? "true" : "false") << "}"
            << (i + 1 < conv_rows.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"fire_results\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const ResultRow& r = rows[i];
        out << "    {\"shape\": \"" << r.shape << "\", \"kind\": \""
            << (r.conv ? "conv" : "linear") << "\", \"density\": " << r.density
            << ", \"scalar_fire_steps_per_sec\": " << r.scalar_fire_sps
            << ", \"vector_fire_steps_per_sec\": " << r.vector_fire_sps
            << ", \"fire_speedup\": "
            << (r.scalar_fire_sps > 0 ? r.vector_fire_sps / r.scalar_fire_sps : 0.0)
            << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    const double serial_ms = teams.front().median_ms;
    out << "  ],\n  \"intra_inference\": {\"model\": \"vgg11_32px_T8\", "
        << "\"serial_ms\": " << serial_ms << ", \"teams\": [\n";
    for (std::size_t i = 1; i < teams.size(); ++i) {
        const TeamRow& t = teams[i];
        out << "    {\"team\": " << t.team << ", \"median_ms\": " << t.median_ms
            << ", \"speedup\": " << (t.median_ms > 0 ? serial_ms / t.median_ms : 0.0)
            << ", \"bit_identical\": " << (t.bit_identical ? "true" : "false") << "}"
            << (i + 1 < teams.size() ? "," : "") << "\n";
    }
    out << "  ]}\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
    bool quick = false;
    bool check = false;
    double min_ms = 0.0;  // 0 = pick by sweep size
    std::string out_path = "BENCH_ENGINE.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--check") == 0) {
            check = true;
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        } else if (std::strcmp(argv[i], "--min-ms") == 0 && i + 1 < argc) {
            min_ms = std::atof(argv[++i]);
        } else {
            std::cerr << "usage: engine_hotpath [--quick] [--check] [--out <path>] "
                         "[--min-ms <ms>]\n";
            return EXIT_FAILURE;
        }
    }
    if (min_ms <= 0.0) min_ms = quick ? 60.0 : 300.0;

    std::vector<BenchShape> shapes = {
        {.name = "vgg_conv3x3_64c_32px", .ic = 64, .oc = 64, .in_hw = 32},
        {.name = "vgg_conv3x3_128c_16px", .ic = 128, .oc = 128, .in_hw = 16},
        {.name = "vgg_conv3x3_256c_8px", .ic = 256, .oc = 256, .in_hw = 8},
        {.name = "res_down3x3_64to128_s2",
         .ic = 64,
         .oc = 128,
         .in_hw = 32,
         .stride = 2},
        {.name = "fc_4096to512",
         .conv = false,
         .in_feat_h = 64,
         .in_feat_w = 64,
         .out_features = 512},
    };
    std::vector<double> densities = {0.01, 0.05, 0.10, 0.15, 0.25, 0.50};
    if (quick) {
        shapes = {shapes[0], shapes[4]};  // headline VGG conv block + the FC
        densities = {0.05, 0.50};
    }

    const snn::EngineConfig scalar_fire{.fire = snn::FirePath::kScalar};
    std::cout << "==============================================================\n"
              << "Engine hot path: event kernel vs dense gather (psums),\n"
              << "scalar vs fused-vector fire stage (engine steps)\n"
              << "(steps/s, T=16 inputs per pass)\n"
              << "==============================================================\n";

    std::vector<ResultRow> rows;
    util::Table table("psum kernels" + std::string(quick ? " (quick)" : ""));
    table.header({"shape", "density", "gather st/s", "event st/s", "speedup", "identical"});
    util::Table fire_table("fire stage: scalar loop vs fused vector kernels");
    fire_table.header({"shape", "density", "scalar st/s", "vector st/s", "speedup"});

    bool check_failed = false;
    const auto gated = [](double density) {
        return std::abs(density - 0.05) < 1e-9 || std::abs(density - 0.50) < 1e-9;
    };
    for (const BenchShape& shape : shapes) {
        util::Rng rng(0xE7E47ULL);
        const snn::SnnModel model = make_model(shape, rng);
        for (const double density : densities) {
            const auto inputs = make_inputs(model, density, 16, rng);
            std::int64_t spikes = 0;
            std::int64_t sites = 0;
            for (const auto& in : inputs) {
                spikes += in.count();
                sites += in.size();
            }
            ResultRow row;
            row.shape = shape.name;
            row.conv = shape.conv;
            row.density = density;
            row.measured_density =
                sites > 0 ? static_cast<double>(spikes) / static_cast<double>(sites) : 0.0;
            if (shape.conv) {
                row.psum = measure_psum(model, inputs, min_ms);
                table.row({shape.name, util::cell(density, 2),
                           util::cell(row.psum.gather_sps, 0),
                           util::cell(row.psum.event_sps, 0),
                           util::cell(row.psum.event_sps / row.psum.gather_sps, 2) + "x",
                           row.psum.identical ? "yes" : "NO"});
            }
            row.scalar_fire_sps = engine_steps_per_sec(model, scalar_fire, inputs, min_ms);
            row.vector_fire_sps = engine_steps_per_sec(model, {}, inputs, min_ms);
            rows.push_back(row);
            fire_table.row({shape.name, util::cell(density, 2),
                            util::cell(row.scalar_fire_sps, 0),
                            util::cell(row.vector_fire_sps, 0),
                            util::cell(row.vector_fire_sps / row.scalar_fire_sps, 2) +
                                "x"});

            if (check && shape.conv && !row.psum.identical) {
                check_failed = true;
                std::cerr << "CHECK FAILED: event-kernel psums differ from the gather's on "
                          << shape.name << " at density " << density << "\n";
            }
            if (check && shape.conv && gated(density) &&
                row.psum.event_sps < row.psum.gather_sps) {
                check_failed = true;
                std::cerr << "CHECK FAILED: event kernel (" << row.psum.event_sps
                          << " steps/s) slower than the dense gather ("
                          << row.psum.gather_sps << " steps/s) on " << shape.name
                          << " at density " << density << "\n";
            }
            if (check && shape.conv && density <= 0.05 + 1e-9 &&
                row.vector_fire_sps < row.scalar_fire_sps) {
                check_failed = true;
                std::cerr << "CHECK FAILED: fused fire (" << row.vector_fire_sps
                          << " steps/s) slower than scalar fire (" << row.scalar_fire_sps
                          << " steps/s) on " << shape.name << " at density " << density
                          << "\n";
            }
        }
        if (shape.conv) table.separator();
        fire_table.separator();
    }
    table.print(std::cout);
    fire_table.print(std::cout);

    const std::vector<TeamRow> teams = measure_teams(quick);
    util::Table team_table("intra-inference: one VGG-11 inference (32 px, T=8) per "
                           "helper-team size");
    team_table.header({"team", "median ms", "speedup", "bit-identical"});
    for (const TeamRow& t : teams) {
        team_table.row({t.team == 0 ? "serial" : std::to_string(t.team),
                        util::cell(t.median_ms, 2),
                        util::cell(teams.front().median_ms / t.median_ms, 2) + "x",
                        t.bit_identical ? "yes" : "NO"});
        if (check && !t.bit_identical) {
            check_failed = true;
            std::cerr << "CHECK FAILED: team size " << t.team
                      << " diverged from the serial engine\n";
        }
    }
    team_table.print(std::cout);

    write_json(out_path, rows, teams, quick);
    std::cout << "wrote " << out_path << "\n";

    if (check_failed) {
        std::cerr << "FATAL: a hot-path kernel lost to its baseline or diverged from "
                     "it, or a tiled inference diverged (see CHECK FAILED lines)\n";
        return EXIT_FAILURE;
    }
    return EXIT_SUCCESS;
}
