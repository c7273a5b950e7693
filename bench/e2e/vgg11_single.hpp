// vgg11-single: the latency floor a lone user sees.
//
// One closed-loop client sends awaited requests to a core::Server
// functional lane (threads=4): Request::thermometer on full-width
// VGG-11 (CIFAR 32x32, T=8), drawn round-robin from 64 seeded images.
// snn.engine does nearly all the work while 3 of the 4 workers idle and
// the server has nothing to batch, so intra-inference parallelism shows
// here and only here.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench/e2e/models.hpp"
#include "bench/e2e/workload.hpp"
#include "core/compiler.hpp"
#include "core/convert.hpp"
#include "core/server.hpp"
#include "nn/vgg.hpp"
#include "sim/sia.hpp"
#include "snn/encoding.hpp"
#include "snn/engine.hpp"

namespace sia::bench::e2e {

struct Vgg11Single {
    static constexpr std::int64_t kTimesteps = 8;
    static constexpr std::size_t kPool = 64;
    static constexpr std::size_t kThreads = 4;

    struct Served {
        std::size_t image = 0;
        bool ok = false;
        std::vector<std::int64_t> logits;
        std::int64_t steps = 0;
    };

    struct State {
        SetupStages stages;
        snn::SnnModel model;
        std::vector<tensor::Tensor> pool;
        SpanLog log;
        std::unique_ptr<core::Server> server;
        std::uint64_t next_stream = 0;  ///< the lane's admission sequence
        std::vector<Served> served;
    };

    static std::unique_ptr<State> build(const Args& args) {
        auto st = std::make_unique<State>();
        util::Rng calibration(kModelSeed);
        std::unique_ptr<nn::Vgg11> ann;
        st->stages.calibrate_ms = time_ms([&] {
            ann = calibrated_ann<nn::Vgg11>(nn::VggConfig{}, uniform_images(2, 3, 32, calibration));
        });
        st->stages.convert_ms =
            time_ms([&] { st->model = core::AnnToSnnConverter{}.convert(ann->ir()); });
        st->pool = image_pool(kPool, 3, 32, util::mix_seed(args.seed, 1));
        auto backend = std::make_shared<core::FunctionalBackend>(st->model, lean_engine());
        st->stages.prepare_ms = warm_up(backend, kThreads, [&](std::size_t i) {
            return core::Request::view_thermometer(st->pool[i], kTimesteps);
        });
        st->server = std::make_unique<core::Server>(
            lane_backend(backend, 0, st->log, args.traced()),
            core::ServerOptions{.threads = kThreads});
        return st;
    }

    static Phase run_phase(State& st, double seconds) {
        Phase phase;
        phase.start = Clock::now();
        const auto deadline = phase.start + seconds_of(seconds);
        Clock::time_point ready = phase.start;
        while (Clock::now() < deadline) {
            Served served;
            served.image = st.served.size() % kPool;
            ClientRecord record;
            record.stream = st.next_stream++;
            record.due = ready;
            record.submit = Clock::now();
            core::Response response =
                st.server
                    ->submit(core::Request::view_thermometer(st.pool[served.image], kTimesteps))
                    .get();
            record.complete = Clock::now();
            ready = record.complete;
            served.ok = record.ok = response.ok();
            served.logits = std::move(response.logits);
            served.steps = response.steps_used;
            st.served.push_back(std::move(served));
            phase.requests.push_back(record);
        }
        phase.end = ready;
        return phase;
    }

    static void verify(State& st, Result& result) {
        snn::FunctionalEngine reference(st.model, lean_engine());
        std::vector<std::vector<std::int64_t>> expected;
        for (const tensor::Tensor& image : st.pool) {
            expected.push_back(reference.run(snn::encode_thermometer(image, kTimesteps)).readout);
        }
        for (const Served& s : st.served) {
            if (!s.ok || s.logits != expected[s.image]) ++result.failed;
        }
        result.check(result.failed == 0, std::to_string(result.failed) +
                                             " responses failed or differ from the "
                                             "sequential FunctionalEngine reference");
    }

    static LayerReport layers(State& st, const Phase& traced, Result& result) {
        LayerReport out;
        out.worker_threads = kThreads;
        out.wave_size_mean = 1.0;  // one client, one request in flight
        sim::CompiledProgram program;
        out.compile_ms = time_ms([&] { program = core::SiaCompiler{}.compile(st.model); });

        snn::FunctionalEngine engine(st.model, lean_engine());
        for (std::size_t k = 0; k < 16; ++k) {
            snn::SpikeTrain train;
            out.engine.encode_us.push_back(
                1e3 * time_ms([&] { train = snn::encode_thermometer(st.pool[k], kTimesteps); }));
            snn::RunResult run;
            const double ms = time_ms([&] { run = engine.run(train); });
            out.engine.add(run, ms);
        }
        sim::Sia sia(sim::SiaConfig{}, st.model, program);
        (void)sia.run(snn::encode_thermometer(st.pool[0], kTimesteps));  // build resident weights
        for (std::size_t k = 0; k < 4; ++k) {
            const snn::SpikeTrain train = snn::encode_thermometer(st.pool[k], kTimesteps);
            sim::SiaRunResult run;
            const double ms = time_ms([&] { run = sia.run(train); });
            out.sia.add(run, ms);
        }

        out.steps_per_item = mean_steps(st.served, traced.requests.size());

        // On the single-request path the client's median is the sum of
        // the parts' medians, and the lane's run_span is one engine run.
        const TraceParts parts = join_trace(st.log.spans(), traced.requests);
        const double client = quantile(parts.client_us, 0.50);
        const double sum = quantile(parts.lag_us, 0.50) + quantile(parts.queue_us, 0.50) +
                           quantile(parts.exec_us, 0.50) + quantile(parts.post_us, 0.50);
        result.check(sum > 0.95 * client && sum < 1.05 * client,
                     "median parts (" + std::to_string(sum) +
                         " us) do not reconcile with the client median (" +
                         std::to_string(client) + " us) within 5%");
        const double direct_us = median(out.engine.encode_us) + 1e3 * mean(out.engine.run_ms);
        const double exec_us = quantile(parts.exec_us, 0.50);
        if (exec_us > 1.1 * direct_us || exec_us < 0.9 * direct_us) {
            std::cerr << "warning: lane run_span median " << exec_us
                      << " us is more than 10% from a direct encode + engine run ("
                      << direct_us << " us)\n";
        }
        return out;
    }
};

}  // namespace sia::bench::e2e
