// TileTeam: the helper threads a FunctionalEngine borrows to split one
// inference's heavy conv layer-steps into tiles.
//
// A team has one claim. The engine that holds it (see snn::TeamLoan)
// publishes a tile job with run(); it takes tiles itself from a shared
// cursor while whichever helpers are awake take the rest. The team
// differs from util::ThreadPool, which fans whole requests out across
// a batch, in what a microsecond-scale tile inside one inference needs:
//   * the caller takes tiles too, so a job starts the moment it is
//     published instead of after a worker wakes up;
//   * the caller waits only for tiles a helper has already taken,
//     never for a helper that has not checked in, so on a CPU-starved
//     host a job costs at most its serial time plus the bookkeeping;
//   * helpers spin, for a bounded time, between the jobs of a claimed
//     inference instead of parking after every job, and park as soon
//     as the claim is released.
// A tile's exception is rethrown by run() after the job drains; the
// team stays usable.
//
// The team also owns each participant's int32 scratch bank (the
// private psum buffers of a tiled layer-step), so engines that share a
// team share one set of buffers instead of allocating their own.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "snn/simd.hpp"

namespace sia::snn {

class TileTeam {
public:
    /// Spawns `helpers` parked helper threads. With 0 helpers the claim
    /// holder runs every tile itself.
    explicit TileTeam(std::size_t helpers);
    /// Stops and joins the helpers. The team must not be claimed.
    ~TileTeam();

    TileTeam(const TileTeam&) = delete;
    TileTeam& operator=(const TileTeam&) = delete;

    [[nodiscard]] std::size_t helpers() const noexcept { return threads_.size(); }
    /// Participants of a job: the claim holder (participant 0) and the
    /// helpers (1..helpers()).
    [[nodiscard]] std::size_t participants() const noexcept { return threads_.size() + 1; }

    /// Take exclusive use of the team without blocking; false when
    /// another caller holds it.
    [[nodiscard]] bool try_claim() noexcept {
        return !claimed_.exchange(true, std::memory_order_acquire);
    }
    /// Give the claim back; idle helpers park.
    void release() noexcept { claimed_.store(false, std::memory_order_release); }

    /// Run fn(tile, participant) for every tile in [0, tiles) and return
    /// once every tile has run; rethrows the first exception a tile
    /// threw (tiles not yet taken are then skipped). Claim holder only.
    /// Tiles may run in any order on any participant, so each must
    /// write memory no other tile of the job touches.
    template <typename Fn>
    void run(std::size_t tiles, Fn&& fn) {
        using F = std::remove_reference_t<Fn>;
        const Job job{&fn, [](void* f, std::size_t tile, std::size_t participant) {
                          (*static_cast<F*>(f))(tile, participant);
                      }};
        run_job(tiles, job);
    }

    /// Grow every participant's scratch bank to at least `elements`
    /// int32s (zeroed when it grows). Claim holder only, outside run().
    void reserve_scratch(std::size_t elements);
    /// Participant `p`'s scratch bank, 64-byte aligned, at least as long
    /// as the last reserve_scratch() asked for.
    [[nodiscard]] std::int32_t* scratch(std::size_t participant) noexcept {
        return scratch_[participant].data();
    }

private:
    /// A type-erased tile function, alive on the caller's stack for the
    /// duration of run_job().
    struct Job {
        void* fn;
        void (*call)(void* fn, std::size_t tile, std::size_t participant);
    };

    void run_job(std::size_t tiles, const Job& job);
    /// Take and run tiles of the open job until none is left; returns
    /// whether this participant ran any.
    bool take_tiles(std::size_t participant);
    void helper_loop(std::size_t participant);
    void stop_helpers() noexcept;

    /// (job epoch << 32) | next tile index. Helpers claim a tile with a
    /// compare-exchange on the whole word, so a helper holding a stale
    /// view of an earlier job can never claim a tile of a later one.
    /// The caller closes a job by setting the index to kClosed.
    std::atomic<std::uint64_t> ticket_{kClosed};
    static constexpr std::uint64_t kClosed = 0xFFFFFFFFULL;
    /// The open job's fields. Written only while the ticket is closed
    /// and read after loading the ticket (see take_tiles()).
    std::atomic<const Job*> job_{nullptr};
    std::atomic<std::uint32_t> tiles_{0};
    std::atomic<std::uint32_t> done_{0};     ///< tiles of the job finished
    std::atomic<bool> cancelled_{false};     ///< a tile threw: skip the rest
    std::uint32_t epoch_ = 0;                ///< caller-only job counter
    std::mutex error_mutex_;
    std::exception_ptr error_;               ///< first tile exception (error_mutex_)

    std::atomic<bool> claimed_{false};
    std::atomic<bool> stop_{false};
    std::atomic<std::size_t> parked_{0};     ///< helpers parked (or about to park)
    std::mutex park_mutex_;
    std::condition_variable park_cv_;
    std::uint64_t wake_seq_ = 0;             ///< bumped to wake parked helpers (park_mutex_)

    std::vector<simd::AlignedVec<std::int32_t>> scratch_;
    std::vector<std::thread> threads_;
};

}  // namespace sia::snn
