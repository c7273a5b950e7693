#include "sim/memory.hpp"

#include "sim/config.hpp"

namespace sia::sim {

void BramBank::check(std::int64_t addr, std::int64_t len) const {
    if (addr < 0 || addr + len > capacity()) {
        throw std::out_of_range("BramBank " + name_ + ": access at " + std::to_string(addr) +
                                " len " + std::to_string(len) + " exceeds capacity " +
                                std::to_string(capacity()));
    }
}

void BramBank::write8(std::int64_t addr, std::uint8_t v) {
    check(addr, 1);
    data_[static_cast<std::size_t>(addr)] = v;
    ++bytes_written_;
}

std::uint8_t BramBank::read8(std::int64_t addr) {
    check(addr, 1);
    ++bytes_read_;
    return data_[static_cast<std::size_t>(addr)];
}

void BramBank::write16(std::int64_t addr, std::int16_t v) {
    check(addr, 2);
    data_[static_cast<std::size_t>(addr)] = static_cast<std::uint8_t>(v & 0xFF);
    data_[static_cast<std::size_t>(addr + 1)] =
        static_cast<std::uint8_t>((static_cast<std::uint16_t>(v) >> 8) & 0xFF);
    bytes_written_ += 2;
}

std::int16_t BramBank::read16(std::int64_t addr) {
    check(addr, 2);
    bytes_read_ += 2;
    const auto lo = static_cast<std::uint16_t>(data_[static_cast<std::size_t>(addr)]);
    const auto hi = static_cast<std::uint16_t>(data_[static_cast<std::size_t>(addr + 1)]);
    return static_cast<std::int16_t>(static_cast<std::uint16_t>(lo | (hi << 8)));
}

void PingPongMembrane::partition(std::int64_t contexts) {
    if (contexts < 1) {
        throw std::invalid_argument("PingPongMembrane: contexts must be >= 1");
    }
    const std::int64_t slice = banks_[0].capacity() / contexts;
    if (slice < 2) {
        throw std::invalid_argument(
            "PingPongMembrane: " + std::to_string(contexts) +
            " contexts leave slices under one 16-bit potential");
    }
    slice_ = slice;
    phase_.assign(static_cast<std::size_t>(contexts), 0);
    active_ = 0;
}

void PingPongMembrane::set_active(std::int64_t context) {
    if (context < 0 || context >= contexts()) {
        throw std::out_of_range("PingPongMembrane: context " + std::to_string(context) +
                                " of " + std::to_string(contexts()));
    }
    active_ = context;
}

void PingPongMembrane::check_slice(std::int64_t addr, std::int64_t len) const {
    if (addr < 0 || addr + len > slice_) {
        throw std::out_of_range("PingPongMembrane: access at " + std::to_string(addr) +
                                " len " + std::to_string(len) +
                                " exceeds context slice " + std::to_string(slice_));
    }
}

MemoryUnit::MemoryUnit(const SiaConfig& config)
    : output_spikes("output-spikes", config.output_bytes),
      membrane(config.membrane_bytes) {}

}  // namespace sia::sim
