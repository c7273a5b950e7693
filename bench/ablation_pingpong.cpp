// Ablation — ping-pong membrane memory (Fig. 3): the U1/U2 organisation
// lets the PE pipeline read last-step potentials while writing updated
// ones. A single-bank organisation must serialise the read and write
// streams, doubling the aggregation-phase memory cycles; this bench
// quantifies the latency impact on a real workload plus the observed
// bank traffic, following the doubling-memory-bandwidth argument of the
// paper's reference [32].
#include "bench/common.hpp"
#include "core/compiler.hpp"
#include "core/convert.hpp"
#include "sim/sia.hpp"
#include "snn/encoding.hpp"

int main() {
    using namespace sia;
    bench::print_header("Ablation: ping-pong vs single-bank membrane memory");

    nn::VggConfig mcfg;
    mcfg.width = 64;
    const auto ann = bench::calibrated_model<nn::Vgg11>(mcfg);
    const auto model = core::AnnToSnnConverter().convert(ann->ir());

    // One membrane context: the whole U1/U2 pair serves the single
    // inference, as in the paper's Fig. 3 organisation.
    sim::SiaConfig cfg;
    cfg.membrane_banks = 1;
    const auto program = core::SiaCompiler(cfg).compile(model);
    sim::Sia sia(cfg, model, program);
    util::Rng rng(5);
    tensor::Tensor img(tensor::Shape{1, 3, 32, 32});
    for (std::int64_t i = 0; i < img.numel(); ++i) img.flat(i) = rng.uniform(0.0F, 1.0F);
    const auto res = sia.run(snn::encode_thermometer(img, 8));

    // Ping-pong: aggregation retires one neuron/cycle (read bank A, write
    // bank B concurrently). Single bank: the same port serves both
    // streams, so the retire phase serialises to 2 cycles/neuron.
    std::int64_t aggregate_cycles = 0;
    std::int64_t other_cycles = 0;
    for (const auto& s : res.layer_stats) {
        aggregate_cycles += s.aggregate;
        other_cycles += s.compute + s.dma + s.mmio + s.overhead;
    }
    const std::int64_t pingpong_total = aggregate_cycles + other_cycles;
    const std::int64_t single_total = 2 * aggregate_cycles + other_cycles;

    const auto& bank_r = sia.memory().membrane.read_bank();
    const auto& bank_w = sia.memory().membrane.write_bank();
    const std::int64_t traffic = bank_r.bytes_read() + bank_r.bytes_written() +
                                 bank_w.bytes_read() + bank_w.bytes_written();

    util::Table table("VGG-11, T=8, width 64");
    table.header({"organisation", "aggregate cycles", "total cycles", "latency (ms)",
                  "slowdown"});
    table.row({"ping-pong U1/U2 (paper)", util::cell(aggregate_cycles),
               util::cell(pingpong_total), util::cell(cfg.cycles_to_ms(pingpong_total), 2),
               "1.00x"});
    table.row({"single bank", util::cell(2 * aggregate_cycles), util::cell(single_total),
               util::cell(cfg.cycles_to_ms(single_total), 2),
               util::cell(static_cast<double>(single_total) /
                              static_cast<double>(pingpong_total),
                          2) +
                   "x"});
    table.print(std::cout);
    std::cout << "membrane bank traffic this run: " << traffic / 1024 << " kB across "
              << "U1+U2 (capacity " << 2 * sia.memory().membrane.bank_capacity() / 1024
              << " kB)\n";
    std::cout << "the ping-pong organisation doubles effective membrane bandwidth\n"
                 "for free BRAM cost (the 64 kB is split, not duplicated) — Fig. 3.\n";
    return 0;
}
