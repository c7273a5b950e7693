// cifar-sia-batch: the cycle-accurate simulator as the product.
//
// An offline closed loop of fixed rounds: one batch of 16 VGG-11 images,
// then one batch of 4 ResNet-18 images (both full width, CIFAR 32x32,
// T=8), each model through its own core::BatchRunner (threads=4) over a
// core::SiaBackend with resident simulators and no exit criterion.
// sim::Sia does almost all the work; the server and the ragged
// early-exit schedule are bypassed. Every round repeats the same seeded
// batches, so each image's modeled cycles can be checked for repeats.
//
// A request's latency is its batch's round trip. The 4:1 image mix puts
// the median inside the VGG-11 batches and the p95 inside the ResNet-18
// ones, so neither percentile sits on the boundary between the two.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench/e2e/models.hpp"
#include "bench/e2e/workload.hpp"
#include "core/batch_runner.hpp"
#include "core/compiler.hpp"
#include "core/convert.hpp"
#include "nn/resnet.hpp"
#include "nn/vgg.hpp"
#include "sim/sia.hpp"
#include "snn/encoding.hpp"
#include "snn/engine.hpp"

namespace sia::bench::e2e {

struct CifarSiaBatch {
    static constexpr std::int64_t kTimesteps = 8;
    static constexpr std::size_t kThreads = 4;
    static constexpr std::array<std::size_t, 2> kBatch = {16, 4};  ///< VGG-11, ResNet-18

    struct Served {
        std::uint32_t model = 0;
        std::size_t image = 0;
        bool ok = false;
        std::vector<std::int64_t> logits;
        std::int64_t cycles = 0;
        std::int64_t steps = 0;
    };

    struct State {
        SetupStages stages;
        std::array<snn::SnnModel, 2> models;
        std::array<std::vector<tensor::Tensor>, 2> pools;
        SpanLog log;
        std::array<std::unique_ptr<core::BatchRunner>, 2> runners;
        std::uint64_t next_stream = 0;  ///< pinned per request, the trace key
        std::vector<Served> served;
    };

    static std::unique_ptr<State> build(const Args& args) {
        auto st = std::make_unique<State>();
        util::Rng calibration(kModelSeed);
        const tensor::Tensor x = uniform_images(2, 3, 32, calibration);
        std::unique_ptr<nn::Vgg11> vgg;
        std::unique_ptr<nn::ResNet18> resnet;
        st->stages.calibrate_ms = time_ms([&] {
            vgg = calibrated_ann<nn::Vgg11>(nn::VggConfig{}, x);
            resnet = calibrated_ann<nn::ResNet18>(nn::ResNetConfig{}, x);
        });
        st->stages.convert_ms = time_ms([&] {
            st->models[0] = core::AnnToSnnConverter{}.convert(vgg->ir());
            st->models[1] = core::AnnToSnnConverter{}.convert(resnet->ir());
        });
        for (std::uint32_t m = 0; m < 2; ++m) {
            st->pools[m] = image_pool(kBatch[m], 3, 32, util::mix_seed(args.seed, 1 + m));
            auto backend = std::make_shared<core::SiaBackend>(st->models[m]);
            st->stages.prepare_ms += warm_up(backend, kThreads, [&](std::size_t i) {
                return core::Request::view_thermometer(st->pools[m][i], kTimesteps);
            });
            st->runners[m] = std::make_unique<core::BatchRunner>(
                lane_backend(backend, m, st->log, args.traced()),
                core::BatchOptions{.threads = kThreads});
        }
        return st;
    }

    static Phase run_phase(State& st, double seconds) {
        Phase phase;
        phase.start = Clock::now();
        const auto deadline = phase.start + seconds_of(seconds);
        Clock::time_point ready = phase.start;
        while (Clock::now() < deadline) {
            for (std::uint32_t m = 0; m < 2; ++m) {
                std::vector<core::Request> batch;
                std::vector<ClientRecord> records(kBatch[m]);
                for (std::size_t i = 0; i < kBatch[m]; ++i) {
                    batch.push_back(core::Request::view_thermometer(st.pools[m][i], kTimesteps));
                    batch.back().rng_stream = st.next_stream;
                    records[i].lane = m;
                    records[i].stream = st.next_stream++;
                    records[i].due = ready;
                }
                const auto submit = Clock::now();
                std::vector<core::Response> responses = st.runners[m]->run(batch);
                ready = Clock::now();
                for (std::size_t i = 0; i < kBatch[m]; ++i) {
                    core::Response& r = responses[i];
                    records[i].submit = submit;
                    records[i].complete = ready;
                    records[i].ok = r.ok();
                    st.served.push_back({m, i, r.ok(), std::move(r.logits), r.total_cycles(),
                                         r.steps_used});
                    phase.requests.push_back(records[i]);
                }
            }
        }
        phase.end = ready;
        return phase;
    }

    static void verify(State& st, Result& result) {
        std::array<std::vector<std::vector<std::int64_t>>, 2> expected;
        std::array<std::vector<std::int64_t>, 2> first_cycles;
        for (std::uint32_t m = 0; m < 2; ++m) {
            snn::FunctionalEngine reference(st.models[m], lean_engine());
            for (const tensor::Tensor& image : st.pools[m]) {
                expected[m].push_back(
                    reference.run(snn::encode_thermometer(image, kTimesteps)).readout);
            }
            first_cycles[m].assign(kBatch[m], -1);
        }
        std::size_t cycle_drift = 0;
        for (const Served& s : st.served) {
            if (!s.ok || s.logits != expected[s.model][s.image]) ++result.failed;
            std::int64_t& first = first_cycles[s.model][s.image];
            if (first < 0) first = s.cycles;
            if (s.cycles <= 0 || s.cycles != first) ++cycle_drift;
        }
        result.check(result.failed == 0, std::to_string(result.failed) +
                                             " responses failed or differ from the "
                                             "sequential FunctionalEngine reference");
        result.check(cycle_drift == 0, std::to_string(cycle_drift) +
                                           " responses report modeled cycles that differ "
                                           "from an earlier run of the same image");
        result.failed += cycle_drift;
    }

    static LayerReport layers(State& st, const Phase& traced, Result& /*result*/) {
        LayerReport out;
        out.worker_threads = kThreads;  // the two runners alternate, never overlap
        out.wave_size_mean = static_cast<double>(kBatch[0] + kBatch[1]) / 2.0;
        std::array<sim::CompiledProgram, 2> programs;
        out.compile_ms = time_ms([&] {
            for (std::size_t m = 0; m < 2; ++m) {
                programs[m] = core::SiaCompiler{}.compile(st.models[m]);
            }
        });
        // Probes keep the workload's 4:1 image mix.
        for (std::size_t m = 0; m < 2; ++m) {
            const std::size_t images = kBatch[m] / 4;
            snn::FunctionalEngine engine(st.models[m], lean_engine());
            sim::Sia sia(sim::SiaConfig{}, st.models[m], programs[m]);
            (void)sia.run(snn::encode_thermometer(st.pools[m][0], kTimesteps));
            for (std::size_t k = 0; k < images; ++k) {
                snn::SpikeTrain train;
                out.engine.encode_us.push_back(1e3 * time_ms([&] {
                    train = snn::encode_thermometer(st.pools[m][k], kTimesteps);
                }));
                snn::RunResult run;
                out.engine.add(run, time_ms([&] { run = engine.run(train); }));
                sim::SiaRunResult sim_run;
                out.sia.add(sim_run, time_ms([&] { sim_run = sia.run(train); }));
            }
        }
        out.steps_per_item = mean_steps(st.served, traced.requests.size());
        return out;
    }
};

}  // namespace sia::bench::e2e
