// Hardware-block unit tests: PE window cycles, aggregation arithmetic
// and retirement, BRAM banks, ping-pong membrane organisation, DMA and
// AXI-lite transfer costs, controller FSM legality, and the folds of the
// batch and cluster accounting structs.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "sim/config.hpp"
#include "sim/controller.hpp"
#include "sim/cost.hpp"
#include "sim/memory.hpp"
#include "sim/shard.hpp"
#include "sim/sia.hpp"
#include "snn/compute.hpp"

namespace sia::sim {
namespace {

TEST(PeDatapath, WindowCycleCounts) {
    // 3x3 -> 3 rows x 3 cycles + 1 = 10, exactly the paper's schedule.
    EXPECT_EQ(SiaConfig::window_cycles(3), 10);
    EXPECT_EQ(SiaConfig::window_cycles(1), 4);
    EXPECT_EQ(SiaConfig::window_cycles(5), 31);   // 5 rows x 2 segs x 3 + 1
    EXPECT_EQ(SiaConfig::window_cycles(7), 64);   // 7 x 3 x 3 + 1
    EXPECT_EQ(SiaConfig::window_cycles(11), 133); // 11 x 4 x 3 + 1
}

TEST(Aggregation, BatchNormAffine) {
    // (psum * G) >> 8 + H with saturation.
    EXPECT_EQ(snn::compute::aggregate(100, 256, 10, 8), 110);
    EXPECT_EQ(snn::compute::aggregate(100, -256, 0, 8), -100);
    EXPECT_EQ(snn::compute::aggregate(40000, 256, 0, 8), 32767);  // psum sat first
}

TEST(Aggregation, RetireCyclesPipelined) {
    EXPECT_EQ(retire_cycles(160, 16, 4), 14);  // 10 + fill
    EXPECT_EQ(retire_cycles(100, 16, 4), 11);  // ceil + fill
    EXPECT_EQ(retire_cycles(0, 16, 4), 0);
}

TEST(Bram, ReadWriteAndCounters) {
    BramBank bank("test", 64);
    bank.write16(10, -1234);
    EXPECT_EQ(bank.read16(10), -1234);
    bank.write8(0, 0xAB);
    EXPECT_EQ(bank.read8(0), 0xAB);
    EXPECT_EQ(bank.bytes_written(), 3);
    EXPECT_EQ(bank.bytes_read(), 3);
}

TEST(Bram, CapacityEnforced) {
    BramBank bank("small", 8);
    EXPECT_THROW(bank.write16(7, 1), std::out_of_range);
    EXPECT_THROW((void)bank.read8(8), std::out_of_range);
    EXPECT_THROW((void)bank.read8(-1), std::out_of_range);
    EXPECT_NO_THROW(bank.write16(6, 1));
}

TEST(PingPong, RolesSwapPerTimestep) {
    PingPongMembrane mem(128);
    EXPECT_EQ(mem.bank_capacity(), 64);
    EXPECT_TRUE(mem.write_bank_is_u1());
    mem.write16(0, 42);               // written to U1
    mem.toggle();                     // now U1 is the read bank
    EXPECT_FALSE(mem.write_bank_is_u1());
    EXPECT_EQ(mem.read16(0), 42);
    mem.write16(0, 77);               // goes to U2
    mem.toggle();
    EXPECT_EQ(mem.read16(0), 77);     // now reads U2
}

TEST(PingPong, BanksAreIndependent) {
    PingPongMembrane mem(64);
    mem.write16(4, 11);   // U1
    mem.toggle();
    mem.write16(4, 22);   // U2
    EXPECT_EQ(mem.read16(4), 11);  // read bank is U1
    mem.toggle();
    EXPECT_EQ(mem.read16(4), 22);  // read bank is U2
}

TEST(PingPong, PartitionedContextsAreIndependent) {
    // Batched-mode banking: each per-inference context owns a slice of
    // both phase banks and its own ping-pong phase.
    PingPongMembrane mem(128);
    mem.partition(4);
    EXPECT_EQ(mem.contexts(), 4);
    EXPECT_EQ(mem.bank_capacity(), 16);  // 64-byte phase bank / 4 contexts

    for (std::int64_t c = 0; c < 4; ++c) {
        mem.set_active(c);
        mem.write16(0, static_cast<std::int16_t>(100 + c));
    }
    // Toggling one context does not move the others' phases.
    mem.set_active(2);
    mem.toggle();
    EXPECT_FALSE(mem.write_bank_is_u1());
    mem.set_active(1);
    EXPECT_TRUE(mem.write_bank_is_u1());
    mem.set_active(2);
    EXPECT_EQ(mem.read16(0), 102);

    // Slice bounds are enforced per context, and invalid selections throw.
    EXPECT_THROW(mem.write16(15, 1), std::out_of_range);
    EXPECT_THROW(mem.set_active(4), std::out_of_range);
    EXPECT_THROW(mem.partition(0), std::invalid_argument);

    // Re-partitioning to one context restores the classic organisation.
    mem.partition(1);
    EXPECT_EQ(mem.bank_capacity(), 64);
    EXPECT_TRUE(mem.write_bank_is_u1());
    mem.write16(0, 42);
    mem.toggle();
    EXPECT_EQ(mem.read16(0), 42);
}

TEST(Controller, DoneMayReInitForNextWave) {
    Controller ctrl;
    ctrl.transition(CtrlState::kInit);
    ctrl.transition(CtrlState::kLoadConfig);
    ctrl.transition(CtrlState::kReadInput);
    ctrl.transition(CtrlState::kPeCompute);
    ctrl.transition(CtrlState::kAggregate);
    ctrl.transition(CtrlState::kWriteOutput);
    ctrl.transition(CtrlState::kDone);
    // Batched resident runs start the next wave without going idle.
    EXPECT_NO_THROW(ctrl.transition(CtrlState::kInit));
    EXPECT_EQ(ctrl.entries(CtrlState::kInit), 2);
}

TEST(MemoryUnit, PaperProvisioning) {
    const SiaConfig cfg;
    const MemoryUnit mem(cfg);
    EXPECT_EQ(mem.output_spikes.capacity(), 56 * 1024);
    EXPECT_EQ(mem.membrane.bank_capacity(), 32 * 1024);  // 64 kB split in two
}

TEST(Axi, DmaCyclesProportionalToBytes) {
    const SiaConfig cfg;  // 4 bytes/cycle
    EXPECT_EQ(dma_cycles(400, cfg), 100);
    EXPECT_EQ(dma_cycles(402, cfg), 101);  // rounds up
}

TEST(Axi, MmioWordCost) {
    SiaConfig cfg;
    cfg.mmio_cycles_per_word = 100;
    EXPECT_EQ(mmio_cycles(8, cfg), 200);   // 2 words
    EXPECT_EQ(mmio_cycles(9, cfg), 300);   // 3 words (partial rounds up)
}

TEST(Axi, DmaRoundingAtNonMultipleByteCounts) {
    const SiaConfig cfg;  // 4 bytes/cycle
    for (std::int64_t bytes = 1; bytes <= 4; ++bytes) {
        EXPECT_EQ(dma_cycles(bytes, cfg), 1) << bytes;
    }
    EXPECT_EQ(dma_cycles(5, cfg), 2);
    EXPECT_EQ(dma_cycles(7, cfg), 2);
    EXPECT_EQ(dma_cycles(8, cfg), 2);
    EXPECT_EQ(dma_cycles(9, cfg), 3);
}

TEST(Axi, ZeroAndNegativeByteTransfersAreFree) {
    const SiaConfig cfg;
    EXPECT_EQ(dma_cycles(0, cfg), 0);
    EXPECT_EQ(dma_cycles(-8, cfg), 0);
    EXPECT_EQ(mmio_cycles(0, cfg), 0);
}

TEST(Axi, DmaBytesPerCycleEdgeValues) {
    // A huge link never rounds a nonzero transfer down to zero cycles...
    SiaConfig wide;
    wide.dma_bytes_per_cycle = 1e12;
    EXPECT_EQ(dma_cycles(1, wide), 1);
    EXPECT_EQ(dma_cycles(64 * 1024, wide), 1);
    // ...a narrow one charges bytes/rate rounded up...
    SiaConfig narrow;
    narrow.dma_bytes_per_cycle = 0.5;
    EXPECT_EQ(dma_cycles(1, narrow), 2);
    EXPECT_EQ(dma_cycles(3, narrow), 6);
    // ...and a fractional rate rounds per-transfer, not per-byte.
    SiaConfig frac;
    frac.dma_bytes_per_cycle = 3.0;
    EXPECT_EQ(dma_cycles(3, frac), 1);
    EXPECT_EQ(dma_cycles(4, frac), 2);
    EXPECT_EQ(dma_cycles(9, frac), 3);
    EXPECT_EQ(dma_cycles(10, frac), 4);
}

TEST(Axi, MmioWordRounding) {
    const SiaConfig cfg;  // 564 cycles/word (Fig. 4 measurement)
    EXPECT_EQ(mmio_cycles(1, cfg), cfg.mmio_cycles_per_word);
    EXPECT_EQ(mmio_cycles(4, cfg), cfg.mmio_cycles_per_word);
    EXPECT_EQ(mmio_cycles(5, cfg), 2 * cfg.mmio_cycles_per_word);
}

TEST(Controller, LegalLayerLoop) {
    Controller ctrl;
    ctrl.transition(CtrlState::kInit);
    ctrl.transition(CtrlState::kLoadConfig);
    for (int t = 0; t < 2; ++t) {
        ctrl.transition(CtrlState::kReadInput);
        ctrl.transition(CtrlState::kPeCompute);
        ctrl.transition(CtrlState::kPeCompute);  // multi-tile
        ctrl.transition(CtrlState::kAggregate);
        ctrl.transition(CtrlState::kWriteOutput);
    }
    ctrl.transition(CtrlState::kLoadConfig);  // next layer
    ctrl.transition(CtrlState::kReadInput);
    ctrl.transition(CtrlState::kPeCompute);
    ctrl.transition(CtrlState::kAggregate);
    ctrl.transition(CtrlState::kWriteOutput);
    ctrl.transition(CtrlState::kDone);
    EXPECT_EQ(ctrl.entries(CtrlState::kPeCompute), 5);
    EXPECT_EQ(ctrl.entries(CtrlState::kLoadConfig), 2);
}

TEST(Controller, IllegalTransitionsThrow) {
    Controller ctrl;
    EXPECT_THROW(ctrl.transition(CtrlState::kPeCompute), std::logic_error);
    ctrl.transition(CtrlState::kInit);
    EXPECT_THROW(ctrl.transition(CtrlState::kDone), std::logic_error);
    ctrl.transition(CtrlState::kLoadConfig);
    EXPECT_THROW(ctrl.transition(CtrlState::kAggregate), std::logic_error);
}

TEST(Config, PeakGopsMatchesPaper) {
    const SiaConfig cfg;
    // 64 PEs x 6 ops x 100 MHz = 38.4 GOPS (paper's headline).
    EXPECT_DOUBLE_EQ(cfg.peak_gops(), 38.4);
    EXPECT_EQ(cfg.pe_count(), 64);
    EXPECT_DOUBLE_EQ(cfg.cycles_to_ms(100000), 1.0);
}

TEST(StatsFold, SiaBatchStatsAddCountersAndKeepTheRules) {
    SiaBatchStats total;
    total.batch = 3;
    total.banks = 4;
    total.membrane_slice_bytes = 1024;
    total.membrane_resident = true;
    total.weight_bytes_streamed = 10;
    total.weight_bytes_sequential = 30;
    total.resident_cycles = 100;
    total.sequential_cycles = 300;
    total.retired_early = 1;
    total.backfills = 2;
    total.chunk_passes = 1;
    total.steps_executed = 20;
    total.steps_offered = 24;
    total.retired_at = {8, 4, 8};

    SiaBatchStats later;
    later.batch = 2;
    later.banks = 2;
    later.membrane_slice_bytes = 2048;
    later.membrane_resident = false;
    later.weight_bytes_streamed = 5;
    later.weight_bytes_sequential = 7;
    later.resident_cycles = 11;
    later.sequential_cycles = 13;
    later.retired_early = 3;
    later.backfills = 4;
    later.chunk_passes = 6;
    later.steps_executed = 9;
    later.steps_offered = 16;
    later.retired_at = {1, 8};

    total += later;
    EXPECT_EQ(total.batch, 5U);
    EXPECT_EQ(total.banks, 4);                    // max
    EXPECT_EQ(total.membrane_slice_bytes, 2048);  // the later value
    EXPECT_FALSE(total.membrane_resident);        // both must fit
    EXPECT_EQ(total.weight_bytes_streamed, 15);
    EXPECT_EQ(total.weight_bytes_sequential, 37);
    EXPECT_EQ(total.resident_cycles, 111);
    EXPECT_EQ(total.sequential_cycles, 313);
    EXPECT_EQ(total.retired_early, 4);
    EXPECT_EQ(total.backfills, 6);
    EXPECT_EQ(total.chunk_passes, 7);
    EXPECT_EQ(total.steps_executed, 29);
    EXPECT_EQ(total.steps_offered, 40);
    EXPECT_EQ(total.retired_at, (std::vector<std::int64_t>{8, 4, 8, 1, 8}));

    // A fresh total takes a batch's banks and residency as they are.
    SiaBatchStats fresh;
    fresh += later;
    EXPECT_EQ(fresh.banks, 2);
    EXPECT_FALSE(fresh.membrane_resident);
    later.membrane_resident = true;
    SiaBatchStats fits;
    fits += later;
    EXPECT_TRUE(fits.membrane_resident);
}

TEST(StatsFold, ShardStatsAddCountersAndTakeTheLaterShape) {
    ShardStats total;
    total.partition = ShardPartition::kPipeline;
    total.shards = 4;
    total.batch = 3;
    total.double_buffered = true;
    total.compute_cycles = 100;
    total.transfer_bytes = 200;
    total.transfer_cycles = 30;
    total.transfer_stall_cycles = 4;
    total.fill_cycles = 5;
    total.drain_cycles = 6;
    total.makespan_cycles = 70;
    total.item_cycles = 80;
    total.retired_early = 1;
    total.steps_executed = 9;
    total.steps_offered = 10;

    ShardStats later;
    later.partition = ShardPartition::kChannel;
    later.shards = 2;
    later.batch = 2;
    later.double_buffered = false;
    later.compute_cycles = 1;
    later.transfer_bytes = 2;
    later.transfer_cycles = 3;
    later.transfer_stall_cycles = 4;
    later.fill_cycles = 5;
    later.drain_cycles = 6;
    later.makespan_cycles = 7;
    later.item_cycles = 8;
    later.retired_early = 9;
    later.steps_executed = 10;
    later.steps_offered = 11;

    total += later;
    EXPECT_EQ(total.partition, ShardPartition::kChannel);
    EXPECT_EQ(total.shards, 2);
    EXPECT_FALSE(total.double_buffered);
    EXPECT_EQ(total.batch, 5U);
    EXPECT_EQ(total.compute_cycles, 101);
    EXPECT_EQ(total.transfer_bytes, 202);
    EXPECT_EQ(total.transfer_cycles, 33);
    EXPECT_EQ(total.transfer_stall_cycles, 8);
    EXPECT_EQ(total.fill_cycles, 10);
    EXPECT_EQ(total.drain_cycles, 12);
    EXPECT_EQ(total.makespan_cycles, 77);
    EXPECT_EQ(total.item_cycles, 88);
    EXPECT_EQ(total.retired_early, 10);
    EXPECT_EQ(total.steps_executed, 19);
    EXPECT_EQ(total.steps_offered, 21);
}

}  // namespace
}  // namespace sia::sim
