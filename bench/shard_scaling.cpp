// Multi-accelerator shard scaling: a stride-2 conv pyramid + small FC
// head run through sim::SiaCluster at 1/2/4/8 shards under both
// partition strategies (layer-pipelined and channel-parallel), with
// the single-Sia serial cycle count as the baseline. Every cluster
// run's logits are asserted bit-identical to single-Sia execution
// before its timing row counts — a wrong-but-fast shard plan is a
// bench failure, not a data point.
//
// Prints modeled makespan / speedup / transfer exposure per
// (partition, shards) and emits machine-readable BENCH_SHARD.json.
// With --check, exits nonzero if 4-shard pipelined execution fails to
// reach 2x the single-Sia baseline (the CI scaling-smoke gate).
//
// Flags: --quick (smaller model + batch), --check, --out <path>.
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/compiler.hpp"
#include "sim/sia.hpp"
#include "sim/sia_cluster.hpp"
#include "snn/model.hpp"
#include "snn/spike.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace sia;

/// Conv pyramid: 16x16 input halved every other layer down to 2x2,
/// then a small FC head. Deep enough that a 4-stage pipeline cut has
/// real work per stage, and wide enough (channels) that channel
/// slices stay balanced at 8 shards.
snn::SnnModel pyramid_model(std::int64_t channels, std::uint64_t seed) {
    util::Rng rng(seed);
    snn::SnnModel model;
    model.name = "pyramid_c" + std::to_string(channels);
    model.input_channels = 2;
    model.input_h = 16;
    model.input_w = 16;

    struct ConvSpec {
        std::int64_t stride;
        std::int64_t in_hw;
    };
    // Strides: 1,2,1,2,1,2,1,2 — 16x16 halved down to 1x1, so the FC
    // head reads `channels` features: its PS-word weight streaming
    // (564 cycles/word, every timestep) must not dwarf the conv
    // stages, or the pipeline bottlenecks on one uncuttable layer.
    const std::vector<ConvSpec> specs = {{1, 16}, {2, 16}, {1, 8}, {2, 8},
                                         {1, 4},  {2, 4},  {1, 2}, {2, 2}};
    std::int64_t in_c = model.input_channels;
    for (std::size_t d = 0; d < specs.size(); ++d) {
        const ConvSpec& spec = specs[d];
        snn::SnnLayer layer;
        layer.op = snn::LayerOp::kConv;
        layer.label = "conv" + std::to_string(d);
        layer.input = static_cast<int>(d) - 1;
        auto& b = layer.main;
        b.in_channels = in_c;
        b.out_channels = channels;
        b.kernel = 3;
        b.stride = spec.stride;
        b.padding = 1;
        b.weights.resize(static_cast<std::size_t>(in_c * channels * 9));
        for (auto& w : b.weights) w = static_cast<std::int8_t>(rng.integer(-127, 127));
        b.gain.resize(static_cast<std::size_t>(channels));
        b.bias.resize(static_cast<std::size_t>(channels));
        for (auto& g : b.gain) g = static_cast<std::int16_t>(rng.integer(50, 2000));
        for (auto& h : b.bias) h = static_cast<std::int16_t>(rng.integer(-100, 100));
        layer.in_h = spec.in_hw;
        layer.in_w = spec.in_hw;
        layer.out_h = (spec.in_hw + 2 - 3) / spec.stride + 1;
        layer.out_w = layer.out_h;
        layer.out_channels = channels;
        model.layers.push_back(std::move(layer));
        in_c = channels;
    }

    snn::SnnLayer fc;
    fc.op = snn::LayerOp::kLinear;
    fc.label = "fc";
    fc.input = static_cast<int>(specs.size()) - 1;
    fc.spiking = false;
    fc.main.in_features = channels;
    fc.main.out_features = 10;
    fc.main.weights.resize(static_cast<std::size_t>(fc.main.in_features * 10));
    for (auto& w : fc.main.weights) w = static_cast<std::int8_t>(rng.integer(-64, 64));
    fc.main.gain.assign(10, 256);
    fc.main.bias.assign(10, 0);
    fc.out_channels = 10;
    model.layers.push_back(std::move(fc));
    model.classes = 10;
    model.validate();
    return model;
}

std::vector<snn::SpikeTrain> random_batch(const snn::SnnModel& model, std::size_t count,
                                          std::int64_t timesteps, std::uint64_t seed) {
    std::vector<snn::SpikeTrain> batch;
    batch.reserve(count);
    util::Rng rng(seed);
    for (std::size_t i = 0; i < count; ++i) {
        snn::SpikeTrain train(static_cast<std::size_t>(timesteps),
                              snn::SpikeMap(model.input_channels, model.input_h,
                                            model.input_w));
        for (auto& frame : train) {
            for (std::int64_t j = 0; j < frame.size(); ++j) {
                frame.set_flat(j, rng.bernoulli(0.2));
            }
        }
        batch.push_back(std::move(train));
    }
    return batch;
}

struct ResultRow {
    std::string partition;
    std::int64_t shards_requested = 0;
    std::int64_t shards_effective = 0;
    bool double_buffered = true;
    sim::ShardStats stats;
    double speedup = 0.0;  ///< measured single-Sia serial cycles / makespan
};

void write_json(const std::string& path, const std::vector<ResultRow>& rows,
                bool quick, std::size_t items, std::int64_t timesteps,
                std::int64_t channels, std::int64_t baseline_cycles) {
    std::ofstream out(path, std::ios::trunc);
    if (!out) {
        std::cerr << "shard_scaling: cannot open " << path << "\n";
        std::exit(EXIT_FAILURE);
    }
    out << "{\n  \"bench\": \"shard_scaling\",\n"
        << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
        << "  \"model\": \"pyramid_c" << channels << "\",\n"
        << "  \"items\": " << items << ",\n"
        << "  \"timesteps\": " << timesteps << ",\n"
        << "  \"single_sia_cycles\": " << baseline_cycles << ",\n"
        << "  \"results\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const ResultRow& r = rows[i];
        const sim::ShardStats& s = r.stats;
        out << "    {\"partition\": \"" << r.partition
            << "\", \"shards_requested\": " << r.shards_requested
            << ", \"shards_effective\": " << r.shards_effective
            << ", \"double_buffered\": " << (r.double_buffered ? "true" : "false")
            << ", \"makespan_cycles\": " << s.makespan_cycles
            << ", \"speedup\": " << r.speedup
            << ", \"compute_cycles\": " << s.compute_cycles
            << ", \"transfer_bytes\": " << s.transfer_bytes
            << ", \"transfer_cycles\": " << s.transfer_cycles
            << ", \"transfer_stall_cycles\": " << s.transfer_stall_cycles
            << ", \"fill_cycles\": " << s.fill_cycles
            << ", \"drain_cycles\": " << s.drain_cycles << "}"
            << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
    bool quick = false;
    bool check = false;
    std::string out_path = "BENCH_SHARD.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--check") == 0) {
            check = true;
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        } else {
            std::cerr << "usage: shard_scaling [--quick] [--check] [--out <path>]\n";
            return EXIT_FAILURE;
        }
    }

    const std::int64_t channels = quick ? 16 : 32;
    const std::size_t items = quick ? 12 : 24;
    const std::int64_t timesteps = quick ? 4 : 8;

    const sim::SiaConfig config;
    const core::SiaCompiler compiler(config);
    const snn::SnnModel model = pyramid_model(channels, 0x51A0ULL);
    const auto inputs = random_batch(model, items, timesteps, 0xBA7C4ULL);

    // Single-Sia baseline: the serial modeled cycles the cluster rows
    // are scored against, plus the reference logits for bit-identity.
    const auto program = compiler.compile(model);
    sim::Sia single(config, model, program);
    std::int64_t baseline_cycles = 0;
    std::vector<sim::SiaRunResult> ref;
    ref.reserve(items);
    for (const auto& train : inputs) {
        ref.push_back(single.run(train));
        baseline_cycles += ref.back().total_cycles();
    }

    std::cout << "==============================================================\n"
              << "Shard scaling: " << model.name << ", " << model.layers.size()
              << " layers, batch " << items << ", T=" << timesteps << "\n"
              << "(modeled cycles; single-Sia serial baseline "
              << baseline_cycles << " cycles = "
              << util::cell(config.cycles_to_ms(baseline_cycles), 1) << " ms)\n"
              << "==============================================================\n";

    util::Table table("shard_scaling" + std::string(quick ? " (quick)" : ""));
    table.header({"partition", "shards", "eff", "makespan", "speedup", "xfer stall",
                  "fill", "drain", "items/s"});

    std::vector<ResultRow> rows;
    double pipelined4_speedup = 0.0;
    for (const auto partition :
         {sim::ShardPartition::kPipeline, sim::ShardPartition::kChannel}) {
        for (const std::int64_t shards : {1, 2, 4, 8}) {
            // The 4-shard pipelined point is also measured without
            // double-buffering to expose what the overlap buys.
            const bool contrast_db =
                partition == sim::ShardPartition::kPipeline && shards == 4;
            for (const bool double_buffer : contrast_db
                                                ? std::vector<bool>{true, false}
                                                : std::vector<bool>{true}) {
                const auto plan = compiler.compile_sharded(
                    model, {.partition = partition,
                            .shards = shards,
                            .est_timesteps = timesteps});
                sim::SiaCluster cluster(config, model, plan,
                                        {.double_buffer = double_buffer});
                const auto results = cluster.run_batch(sim::as_batch(inputs));
                for (std::size_t i = 0; i < results.size(); ++i) {
                    if (results[i].logits_per_step != ref[i].logits_per_step ||
                        results[i].spike_counts != ref[i].spike_counts) {
                        std::cerr << "FATAL: " << sim::to_string(partition) << " x"
                                  << shards << " logits diverge from single-Sia on "
                                     "item " << i << "\n";
                        return EXIT_FAILURE;
                    }
                }

                ResultRow row;
                row.partition = sim::to_string(partition);
                row.shards_requested = shards;
                row.shards_effective = plan.effective_shards();
                row.double_buffered = double_buffer;
                row.stats = cluster.last_stats();
                row.speedup = static_cast<double>(baseline_cycles) /
                              static_cast<double>(row.stats.makespan_cycles);
                rows.push_back(row);

                if (partition == sim::ShardPartition::kPipeline && shards == 4 &&
                    double_buffer) {
                    pipelined4_speedup = row.speedup;
                }
                table.row({row.partition + (double_buffer ? "" : " (no db)"),
                           util::cell(shards), util::cell(row.shards_effective),
                           util::cell(row.stats.makespan_cycles),
                           util::cell(row.speedup, 2) + "x",
                           util::cell(row.stats.transfer_stall_cycles),
                           util::cell(row.stats.fill_cycles),
                           util::cell(row.stats.drain_cycles),
                           util::cell(row.stats.items_per_second(config), 1)});
            }
        }
        table.separator();
    }
    table.print(std::cout);

    write_json(out_path, rows, quick, items, timesteps, channels, baseline_cycles);
    std::cout << "wrote " << out_path << "\n";

    if (check && pipelined4_speedup < 2.0) {
        std::cerr << "CHECK FAILED: 4-shard pipelined speedup "
                  << pipelined4_speedup << "x < 2.0x over single-Sia\n";
        return EXIT_FAILURE;
    }
    return EXIT_SUCCESS;
}
