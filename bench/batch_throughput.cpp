// Batched-inference throughput: sequential FunctionalEngine vs
// core::BatchRunner at several thread counts, over a calibrated
// reduced-width VGG-11, plus the cycle-accurate path's resident batches
// vs sequential run() calls (the BRAM-residency amortization).
// Demonstrates the serving-path speedup of the fixed thread pool and
// cross-checks the determinism contract (batched results must equal the
// sequential reference at every thread count).
#include <cstdlib>
#include <iostream>
#include <vector>

#include "bench/common.hpp"
#include "core/batch_runner.hpp"
#include "core/compiler.hpp"
#include "core/convert.hpp"
#include "sim/sia.hpp"
#include "snn/encoding.hpp"
#include "snn/engine.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace sia;

std::vector<snn::SpikeTrain> make_batch(const snn::SnnModel& model, std::size_t count,
                                        std::int64_t timesteps) {
    util::Rng rng(123);
    std::vector<snn::SpikeTrain> batch;
    batch.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        tensor::Tensor img(tensor::Shape{1, model.input_channels, model.input_h,
                                         model.input_w});
        for (std::int64_t j = 0; j < img.numel(); ++j) img.flat(j) = rng.uniform();
        batch.push_back(snn::encode_thermometer(img, timesteps));
    }
    return batch;
}

}  // namespace

int main() {
    bench::print_header("Batched inference throughput (BatchRunner vs sequential)");

    nn::VggConfig cfg;
    cfg.width = 8;
    cfg.input_size = 16;
    const auto ann = bench::calibrated_model<nn::Vgg11>(cfg);
    const auto model = core::AnnToSnnConverter(core::ConvertOptions{}).convert(ann->ir());

    const std::size_t batch_size = 32;
    const std::int64_t timesteps = 8;
    const auto batch = make_batch(model, batch_size, timesteps);
    std::vector<core::Request> requests;
    requests.reserve(batch.size());
    for (const auto& train : batch) {
        requests.push_back(core::Request::view_train(train));
    }

    // Sequential reference.
    snn::FunctionalEngine engine(model);
    std::vector<snn::RunResult> reference;
    reference.reserve(batch.size());
    const util::WallTimer seq_timer;
    for (const auto& train : batch) reference.push_back(engine.run(train));
    const double seq_ms = seq_timer.millis();

    util::Table table("BatchRunner throughput, VGG-11 w=8, batch=32, T=8");
    table.header({"threads", "wall_ms", "inputs/s", "speedup", "bit_exact"});
    table.row({"seq", util::cell(seq_ms, 1),
               util::cell(1e3 * static_cast<double>(batch_size) / seq_ms, 1), "1.00",
               "ref"});
    table.separator();

    bool all_exact = true;
    for (const std::size_t threads : {1UL, 2UL, 4UL, 8UL}) {
        core::BatchRunner runner(std::make_shared<core::FunctionalBackend>(model),
                                 {.threads = threads});
        const auto results = runner.run(requests);
        const auto& stats = runner.last_stats();

        bool exact = results.size() == reference.size();
        for (std::size_t i = 0; exact && i < results.size(); ++i) {
            exact = results[i].logits_per_step == reference[i].logits_per_step &&
                    results[i].spike_counts == reference[i].spike_counts;
        }
        all_exact = all_exact && exact;

        table.row({std::to_string(threads), util::cell(stats.wall_ms, 1),
                   util::cell(stats.inputs_per_sec(), 1),
                   util::cell(seq_ms / stats.wall_ms, 2), exact ? "yes" : "NO"});
    }
    // Stochastic (Poisson-rate) encoding path: same images, per-item RNG
    // streams; thread-count invariance is the determinism claim here.
    std::vector<tensor::Tensor> images;
    util::Rng img_rng(321);
    for (std::size_t i = 0; i < batch_size; ++i) {
        tensor::Tensor img(tensor::Shape{1, model.input_channels, model.input_h,
                                         model.input_w});
        for (std::int64_t j = 0; j < img.numel(); ++j) img.flat(j) = img_rng.uniform();
        images.push_back(std::move(img));
    }
    std::vector<core::Request> poisson_requests;
    poisson_requests.reserve(images.size());
    for (const auto& img : images) {
        poisson_requests.push_back(core::Request::view_poisson(img, timesteps));
    }
    core::BatchRunner ref_runner(std::make_shared<core::FunctionalBackend>(model),
                                 {.threads = 1});
    const auto poisson_ref = ref_runner.run(poisson_requests);
    for (const std::size_t threads : {2UL, 8UL}) {
        core::BatchRunner runner(std::make_shared<core::FunctionalBackend>(model),
                                 {.threads = threads});
        const auto results = runner.run(poisson_requests);
        bool exact = results.size() == poisson_ref.size();
        for (std::size_t i = 0; exact && i < results.size(); ++i) {
            exact = results[i].logits_per_step == poisson_ref[i].logits_per_step;
        }
        all_exact = all_exact && exact;
        table.row({std::to_string(threads) + " poisson",
                   util::cell(runner.last_stats().wall_ms, 1),
                   util::cell(runner.last_stats().inputs_per_sec(), 1), "-",
                   exact ? "yes" : "NO"});
    }
    table.print(std::cout);

    // ---- cycle-accurate path: sequential run() vs resident batches ----

    const std::size_t sim_batch_size = 16;
    const std::vector<snn::SpikeTrain> sim_batch(
        batch.begin(), batch.begin() + static_cast<std::ptrdiff_t>(sim_batch_size));
    std::vector<core::Request> sim_requests;
    sim_requests.reserve(sim_batch.size());
    for (const auto& train : sim_batch) {
        sim_requests.push_back(core::Request::view_train(train));
    }
    const sim::SiaConfig sia_config;

    // Sequential reference: one resident instance, inputs one at a time
    // (also the bit-exactness referee for the batched rows).
    const auto program = core::SiaCompiler(sia_config).compile(model);
    sim::Sia ref_sia(sia_config, model, program);
    std::vector<sim::SiaRunResult> sim_ref;
    sim_ref.reserve(sim_batch.size());
    const util::WallTimer sim_seq_timer;
    for (const auto& train : sim_batch) sim_ref.push_back(ref_sia.run(train));
    const double sim_seq_ms = sim_seq_timer.millis();

    const auto sim_exact = [&](const std::vector<core::Response>& results) {
        if (results.size() != sim_ref.size()) return false;
        for (std::size_t i = 0; i < results.size(); ++i) {
            if (results[i].logits_per_step != sim_ref[i].logits_per_step ||
                results[i].spike_counts != sim_ref[i].spike_counts ||
                results[i].total_cycles() != sim_ref[i].total_cycles()) {
                return false;
            }
        }
        return true;
    };

    util::Table sim_table("SiaBackend resident batches, VGG-11 w=8, batch=16, T=8");
    sim_table.header({"schedule", "threads", "wall_ms", "inputs/s", "setup_ms",
                      "run_ms", "bit_exact"});
    sim_table.row({"seq run()", "-", util::cell(sim_seq_ms, 1),
                   util::cell(1e3 * static_cast<double>(sim_batch_size) / sim_seq_ms, 1),
                   "-", "-", "ref"});
    sim_table.separator();

    sim::SiaBatchStats residency{};
    for (const std::size_t threads : {1UL, 4UL}) {
        core::BatchRunner runner(std::make_shared<core::SiaBackend>(model, sia_config),
                                 {.threads = threads});
        const auto results = runner.run(sim_requests);
        const auto& stats = runner.last_stats();
        const bool exact = sim_exact(results);
        all_exact = all_exact && exact;
        residency = runner.last_sim_batch_stats();
        sim_table.row({"resident", std::to_string(threads), util::cell(stats.wall_ms, 1),
                       util::cell(stats.inputs_per_sec(), 1), util::cell(stats.setup_ms, 2),
                       util::cell(stats.run_ms, 1), exact ? "yes" : "NO"});
    }
    sim_table.print(std::cout);

    std::cout << "simulated residency (resident, threads=4): " << residency.chunk_passes
              << " passes x " << residency.banks << " membrane banks ("
              << residency.membrane_slice_bytes / 1024 << " kB/context, membranes "
              << (residency.membrane_resident ? "fit" : "DO NOT fit — host-mirrored")
              << "), kernels " << residency.weight_bytes_streamed / 1024
              << " kB streamed vs " << residency.weight_bytes_sequential / 1024
              << " kB sequential, " << residency.resident_cycles / 1000
              << " kcycles vs " << residency.sequential_cycles / 1000 << " kcycles ("
              << util::cell(residency.amortization(), 2) << "x amortization)\n";

    if (!all_exact) {
        std::cerr << "FATAL: batched results diverged from sequential reference\n";
        return EXIT_FAILURE;
    }
    return EXIT_SUCCESS;
}
