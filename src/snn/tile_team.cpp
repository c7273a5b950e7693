#include "snn/tile_team.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

namespace sia::snn {

namespace {

using Clock = std::chrono::steady_clock;

/// How long a helper of a claimed team spins without finding a tile
/// before it parks. Covers the serial stretches between one inference's
/// tiled layer-steps, so helpers stay awake through an inference
/// without burning a core across a long idle claim.
constexpr auto kSpinBudget = std::chrono::microseconds(1000);

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
}

}  // namespace

TileTeam::TileTeam(std::size_t helpers) {
    threads_.reserve(helpers);
    try {
        for (std::size_t i = 0; i < helpers; ++i) {
            threads_.emplace_back([this, i] { helper_loop(i + 1); });
        }
    } catch (...) {
        // Spawning failed: stop the helpers that did start so their
        // joinable threads do not terminate the process on destruction.
        stop_helpers();
        throw;
    }
}

TileTeam::~TileTeam() { stop_helpers(); }

void TileTeam::stop_helpers() noexcept {
    {
        const std::lock_guard<std::mutex> lock(park_mutex_);
        stop_.store(true);
    }
    park_cv_.notify_all();
    for (auto& t : threads_) t.join();
}

bool TileTeam::take_tiles(std::size_t participant) {
    bool took = false;
    std::uint64_t ticket = ticket_.load(std::memory_order_acquire);
    while (true) {
        // The acquire load of the ticket makes the job fields of its
        // epoch visible. Fields of a LATER job may be read instead (the
        // caller re-filled them after closing this ticket); the
        // compare-exchange below then fails, because that close
        // happens-before these reads and hence before the exchange.
        const Job* job = job_.load(std::memory_order_acquire);
        const std::uint32_t tiles = tiles_.load(std::memory_order_acquire);
        const auto next = static_cast<std::uint32_t>(ticket);
        if (next >= tiles || cancelled_.load(std::memory_order_relaxed)) return took;
        if (!ticket_.compare_exchange_weak(ticket, ticket + 1, std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
            continue;  // `ticket` now holds the current value
        }
        // Tile `next` of this epoch is ours. The caller waits for it,
        // so the job and everything its tiles touch stay alive.
        try {
            job->call(job->fn, next, participant);
        } catch (...) {
            cancelled_.store(true, std::memory_order_relaxed);
            const std::lock_guard<std::mutex> lock(error_mutex_);
            if (!error_) error_ = std::current_exception();
        }
        done_.fetch_add(1, std::memory_order_release);
        took = true;
        ticket = ticket_.load(std::memory_order_acquire);
    }
}

void TileTeam::run_job(std::size_t tiles, const Job& job) {
    if (tiles == 0) return;
    // The ticket is closed, so no helper can claim while the fields
    // change; opening the next epoch publishes them.
    job_.store(&job, std::memory_order_release);
    tiles_.store(static_cast<std::uint32_t>(tiles), std::memory_order_release);
    done_.store(0, std::memory_order_relaxed);
    cancelled_.store(false, std::memory_order_relaxed);
    const std::uint64_t epoch = std::uint64_t{++epoch_} << 32;
    ticket_.store(epoch, std::memory_order_release);
    if (parked_.load(std::memory_order_relaxed) > 0) {
        {
            const std::lock_guard<std::mutex> lock(park_mutex_);
            ++wake_seq_;
        }
        park_cv_.notify_all();
    }

    (void)take_tiles(0);
    // Close the job. Every tile taken before the close still runs; the
    // ones nobody took (only after a throw) never will.
    const std::uint64_t last = ticket_.exchange(epoch | kClosed, std::memory_order_acq_rel);
    const std::uint32_t taken =
        std::min(static_cast<std::uint32_t>(last), static_cast<std::uint32_t>(tiles));
    for (unsigned spin = 0; done_.load(std::memory_order_acquire) < taken; ++spin) {
        if (spin < 4096) {
            cpu_relax();
        } else {
            std::this_thread::yield();
        }
    }

    std::exception_ptr error;
    {
        const std::lock_guard<std::mutex> lock(error_mutex_);
        error = std::exchange(error_, nullptr);
    }
    if (error) std::rethrow_exception(error);
}

void TileTeam::helper_loop(std::size_t participant) {
    std::uint64_t seen = 0;
    while (true) {
        {
            std::unique_lock<std::mutex> lock(park_mutex_);
            parked_.fetch_add(1, std::memory_order_relaxed);
            park_cv_.wait(lock, [&] { return stop_.load() || wake_seq_ != seen; });
            parked_.fetch_sub(1, std::memory_order_relaxed);
            if (stop_.load()) return;
            seen = wake_seq_;
        }
        // Serve the claimed inference's jobs; park once the claim is
        // released or no tile has turned up for kSpinBudget.
        Clock::time_point idle_since = Clock::now();
        for (unsigned spin = 1;; ++spin) {
            if (take_tiles(participant)) {
                idle_since = Clock::now();
                spin = 0;
                continue;
            }
            if (!claimed_.load(std::memory_order_acquire) || stop_.load()) break;
            if (spin % 64 == 0) {
                if (Clock::now() - idle_since > kSpinBudget) break;
                std::this_thread::yield();
            } else {
                cpu_relax();
            }
        }
    }
}

}  // namespace sia::snn
