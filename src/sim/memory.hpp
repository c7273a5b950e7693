// Memory unit model (§III-D): BRAM banks with byte-accurate capacity
// accounting and the ping-pong membrane-potential organisation of Fig. 3.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace sia::sim {

/// A single BRAM bank: capacity-checked byte store with access counters.
/// One read or write port access per cycle (the cycle cost is accounted
/// by the caller; the bank tracks volume for bandwidth/energy reports).
class BramBank {
public:
    BramBank(std::string name, std::int64_t capacity_bytes)
        : name_(std::move(name)), data_(static_cast<std::size_t>(capacity_bytes), 0) {}

    [[nodiscard]] std::int64_t capacity() const noexcept {
        return static_cast<std::int64_t>(data_.size());
    }
    [[nodiscard]] const std::string& name() const noexcept { return name_; }

    void write8(std::int64_t addr, std::uint8_t v);
    [[nodiscard]] std::uint8_t read8(std::int64_t addr);
    void write16(std::int64_t addr, std::int16_t v);
    [[nodiscard]] std::int16_t read16(std::int64_t addr);

    [[nodiscard]] std::int64_t bytes_read() const noexcept { return bytes_read_; }
    [[nodiscard]] std::int64_t bytes_written() const noexcept { return bytes_written_; }
    void reset_counters() noexcept {
        bytes_read_ = 0;
        bytes_written_ = 0;
    }

private:
    void check(std::int64_t addr, std::int64_t len) const;

    std::string name_;
    std::vector<std::uint8_t> data_;
    std::int64_t bytes_read_ = 0;
    std::int64_t bytes_written_ = 0;
};

/// Ping-pong membrane store (Fig. 3): two half-size banks; at any
/// timestep one is read (previous potentials) and the other written
/// (updated potentials); roles swap every timestep.
///
/// For batched (resident) execution the U1/U2 pair can additionally be
/// partitioned into equal per-inference *contexts*: each in-flight
/// inference owns one slice of both phase banks and its own ping-pong
/// phase, so interleaving inferences never aliases membrane state.
/// Single-inference callers use the default single-context partitioning
/// and see the original two-half-bank behaviour unchanged.
class PingPongMembrane {
public:
    explicit PingPongMembrane(std::int64_t total_bytes)
        : banks_{BramBank("U1-State", total_bytes / 2),
                 BramBank("U2-State", total_bytes / 2)} {
        partition(1);
    }

    /// Re-partition both phase banks into `contexts` equal per-inference
    /// slices. Resets every context's phase and selects context 0;
    /// contents are stale until rewritten (each layer run rewrites its
    /// initial potentials anyway). Throws if a slice cannot hold even
    /// one 16-bit potential.
    void partition(std::int64_t contexts);

    /// Select the context subsequent read/write/toggle calls address.
    void set_active(std::int64_t context);

    [[nodiscard]] std::int64_t contexts() const noexcept {
        return static_cast<std::int64_t>(phase_.size());
    }
    [[nodiscard]] std::int64_t active() const noexcept { return active_; }

    /// Capacity of one phase slice of the active partitioning (must hold
    /// one layer tile's potentials for the inference owning the slice).
    [[nodiscard]] std::int64_t bank_capacity() const noexcept { return slice_; }

    /// Swap the active context's read/write roles (every timestep).
    void toggle() noexcept { phase_[static_cast<std::size_t>(active_)] ^= 1U; }

    [[nodiscard]] bool write_bank_is_u1() const noexcept {
        return phase_[static_cast<std::size_t>(active_)] == 0;
    }

    void write16(std::int64_t addr, std::int16_t v) {
        check_slice(addr, 2);
        write_bank().write16(base() + addr, v);
    }
    [[nodiscard]] std::int16_t read16(std::int64_t addr) {
        check_slice(addr, 2);
        return read_bank().read16(base() + addr);
    }

    [[nodiscard]] BramBank& write_bank() noexcept { return banks_[write_bank_is_u1() ? 0 : 1]; }
    [[nodiscard]] BramBank& read_bank() noexcept { return banks_[write_bank_is_u1() ? 1 : 0]; }
    [[nodiscard]] const BramBank& write_bank() const noexcept {
        return banks_[write_bank_is_u1() ? 0 : 1];
    }
    [[nodiscard]] const BramBank& read_bank() const noexcept {
        return banks_[write_bank_is_u1() ? 1 : 0];
    }

private:
    void check_slice(std::int64_t addr, std::int64_t len) const;
    [[nodiscard]] std::int64_t base() const noexcept { return active_ * slice_; }

    BramBank banks_[2];
    std::vector<std::uint8_t> phase_;  ///< per context: 0 = write U1, 1 = write U2
    std::int64_t slice_ = 0;           ///< bytes per context per phase bank
    std::int64_t active_ = 0;
};

/// RAII re-partitioning of a PingPongMembrane: partitions into
/// `contexts` slices on construction and restores single-context
/// partitioning on destruction, so a mid-wave exception (batched or
/// sharded execution) can never leave a stale multi-context
/// partitioning behind for the next single-inference run().
class PartitionGuard {
public:
    PartitionGuard(PingPongMembrane& membrane, std::int64_t contexts)
        : membrane_(membrane) {
        membrane_.partition(contexts);
    }
    ~PartitionGuard() { membrane_.partition(1); }

    PartitionGuard(const PartitionGuard&) = delete;
    PartitionGuard& operator=(const PartitionGuard&) = delete;

private:
    PingPongMembrane& membrane_;
};

/// The §III-D banks the simulator stores into: output spikes and the
/// ping-pong membranes. The incoming-spike, residual and weight
/// memories exist only as SiaConfig capacities (the compiler sizes
/// kernel slots and checks residual traffic against them, and the
/// hw/ resource models count their BRAM); nothing is stored in them.
struct MemoryUnit {
    explicit MemoryUnit(const struct SiaConfig& config);

    BramBank output_spikes;
    PingPongMembrane membrane;
};

}  // namespace sia::sim
