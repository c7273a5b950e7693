// Portable fixed-width SIMD helpers for the fused fire-stage kernels
// and the event conv kernel.
//
// The fused aggregate+fire pass (snn::compute::aggregate_fire_*) walks
// flat CHW neuron banks 64 neurons at a time — one packed SpikeMap word
// per iteration — as eight groups of eight int32 lanes; the event conv
// kernel (snn::compute::conv_psum_event) holds up to eight such groups
// of psums in registers and adds widened int8 weight rows. On GCC/Clang
// the lane type compiles to the native vector extensions (SSE2/AVX2
// depending on -march), everywhere else to a plain struct whose
// elementwise loops the optimizer can still auto-vectorize; both
// spellings execute the identical lane arithmetic, so results never
// depend on which one was compiled in.
//
// Also home to AlignedVec, the 64-byte-aligned flat buffer behind
// snn::LayerState's SoA banks (cache-line and vector-register aligned,
// zero-initialized, sized in whole 64-lane blocks by the caller).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>

#if defined(__SSE2__)
#include <immintrin.h>
#endif

namespace sia::snn::simd {

/// int32 lanes per vector group; the fused kernels consume 8 groups
/// (= one 64-bit spike word) per iteration.
inline constexpr int kLanes = 8;
/// Neurons per fused-kernel iteration: one packed SpikeMap word.
inline constexpr std::int64_t kBlock = 64;

// Define SIA_FORCE_SCALAR_SIMD to compile the plain-struct fallback on
// any compiler (used to cross-check that both spellings agree).
#if (defined(__GNUC__) || defined(__clang__)) && !defined(SIA_FORCE_SCALAR_SIMD)
#define SIA_SIMD_NATIVE 1
// 32-byte vectors without -mavx make GCC warn that the value-passing
// ABI differs from AVX builds (-Wpsabi). Every function here is inline
// and only ever crosses boundaries inside this build, where the ABI is
// uniform — the warning does not apply, so silence it for the TU
// (a pop would just resurface it at the inlined call sites).
#pragma GCC diagnostic ignored "-Wpsabi"
using i32x8 = std::int32_t __attribute__((vector_size(32)));
using i16x8 = std::int16_t __attribute__((vector_size(16)));

[[nodiscard]] inline i32x8 broadcast(std::int32_t v) noexcept {
    return i32x8{v, v, v, v, v, v, v, v};
}
[[nodiscard]] inline i32x8 load(const std::int32_t* p) noexcept {
    i32x8 v;
    std::memcpy(&v, p, sizeof v);
    return v;
}
/// Load 8 int16 values widened to int32 lanes.
[[nodiscard]] inline i32x8 load_i16(const std::int16_t* p) noexcept {
    i16x8 s;
    std::memcpy(&s, p, sizeof s);
    return __builtin_convertvector(s, i32x8);
}
/// Load 8 int8 values sign-extended to int32 lanes: the weight-row read
/// of the event conv kernel. GCC lowers the generic 8x int8 -> int32
/// convertvector into per-lane extracts and inserts, which made that
/// kernel several times slower, so AVX2 builds take the one-instruction
/// widening load.
[[nodiscard]] inline i32x8 load_i8(const std::int8_t* p) noexcept {
#if defined(__AVX2__)
    const __m256i v =
        _mm256_cvtepi8_epi32(_mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)));
    i32x8 out;
    std::memcpy(&out, &v, sizeof out);
    return out;
#else
    using i8x8 = std::int8_t __attribute__((vector_size(8)));
    i8x8 s;
    std::memcpy(&s, p, sizeof s);
    return __builtin_convertvector(s, i32x8);
#endif
}
/// Store int32 lanes narrowed to int16 (values must already be in
/// int16 range — the kernels clamp before storing).
inline void store_i16(std::int16_t* p, i32x8 v) noexcept {
    const i16x8 s = __builtin_convertvector(v, i16x8);
    std::memcpy(p, &s, sizeof s);
}
/// Lane-select: mask lanes are all-ones/all-zero (comparison results).
[[nodiscard]] inline i32x8 select(i32x8 mask, i32x8 a, i32x8 b) noexcept {
    return (mask & a) | (~mask & b);
}
/// Sign bit of each lane packed into the low 8 bits (lane 0 = bit 0);
/// mask lanes are all-ones/all-zero. This is the spike-emission
/// primitive, so it takes the hardware movemask when the ISA has one —
/// the generic extract loop costs about as much as the rest of the
/// fused kernel put together.
[[nodiscard]] inline std::uint64_t movemask(i32x8 mask) noexcept {
#if defined(__AVX2__)
    __m256i v;
    std::memcpy(&v, &mask, sizeof v);
    return static_cast<std::uint32_t>(_mm256_movemask_ps(_mm256_castsi256_ps(v)));
#elif defined(__SSE2__)
    __m128i halves[2];
    std::memcpy(halves, &mask, sizeof halves);
    const auto lo = static_cast<std::uint32_t>(
        _mm_movemask_ps(_mm_castsi128_ps(halves[0])));
    const auto hi = static_cast<std::uint32_t>(
        _mm_movemask_ps(_mm_castsi128_ps(halves[1])));
    return lo | (hi << 4);
#else
    std::uint64_t bits = 0;
    for (int l = 0; l < kLanes; ++l) {
        bits |= static_cast<std::uint64_t>(mask[l] & 1) << l;
    }
    return bits;
#endif
}

#else  // portable fallback: identical lane semantics, scalar spelling

struct i32x8 {
    std::int32_t l[8];

    friend i32x8 operator+(i32x8 a, i32x8 b) noexcept {
        for (int i = 0; i < 8; ++i) a.l[i] += b.l[i];
        return a;
    }
    friend i32x8 operator-(i32x8 a, i32x8 b) noexcept {
        for (int i = 0; i < 8; ++i) a.l[i] -= b.l[i];
        return a;
    }
    friend i32x8 operator*(i32x8 a, i32x8 b) noexcept {
        for (int i = 0; i < 8; ++i) a.l[i] *= b.l[i];
        return a;
    }
    friend i32x8 operator>>(i32x8 a, int s) noexcept {
        for (int i = 0; i < 8; ++i) a.l[i] >>= s;
        return a;
    }
    friend i32x8 operator&(i32x8 a, i32x8 b) noexcept {
        for (int i = 0; i < 8; ++i) a.l[i] &= b.l[i];
        return a;
    }
    friend i32x8 operator|(i32x8 a, i32x8 b) noexcept {
        for (int i = 0; i < 8; ++i) a.l[i] |= b.l[i];
        return a;
    }
    friend i32x8 operator~(i32x8 a) noexcept {
        for (int i = 0; i < 8; ++i) a.l[i] = ~a.l[i];
        return a;
    }
    /// Comparisons yield all-ones/all-zero lanes, as the native
    /// vector-extension comparisons do.
    friend i32x8 operator<(i32x8 a, i32x8 b) noexcept {
        for (int i = 0; i < 8; ++i) a.l[i] = a.l[i] < b.l[i] ? -1 : 0;
        return a;
    }
    friend i32x8 operator>=(i32x8 a, i32x8 b) noexcept {
        for (int i = 0; i < 8; ++i) a.l[i] = a.l[i] >= b.l[i] ? -1 : 0;
        return a;
    }
    std::int32_t operator[](int i) const noexcept { return l[i]; }
};

[[nodiscard]] inline i32x8 broadcast(std::int32_t v) noexcept {
    return i32x8{{v, v, v, v, v, v, v, v}};
}
[[nodiscard]] inline i32x8 load(const std::int32_t* p) noexcept {
    i32x8 v;
    std::memcpy(v.l, p, sizeof v.l);
    return v;
}
[[nodiscard]] inline i32x8 load_i16(const std::int16_t* p) noexcept {
    i32x8 v;
    for (int i = 0; i < 8; ++i) v.l[i] = p[i];
    return v;
}
[[nodiscard]] inline i32x8 load_i8(const std::int8_t* p) noexcept {
    i32x8 v;
    for (int i = 0; i < 8; ++i) v.l[i] = p[i];
    return v;
}
inline void store_i16(std::int16_t* p, i32x8 v) noexcept {
    for (int i = 0; i < 8; ++i) p[i] = static_cast<std::int16_t>(v.l[i]);
}
[[nodiscard]] inline i32x8 select(i32x8 mask, i32x8 a, i32x8 b) noexcept {
    return (mask & a) | (~mask & b);
}
[[nodiscard]] inline std::uint64_t movemask(i32x8 mask) noexcept {
    std::uint64_t bits = 0;
    for (int l = 0; l < kLanes; ++l) {
        bits |= static_cast<std::uint64_t>(mask[l] & 1) << l;
    }
    return bits;
}

#endif

#if defined(SIA_SIMD_NATIVE) && \
    (defined(__clang__) || (defined(__GNUC__) && __GNUC__ >= 12))
#define SIA_SIMD_SHUFFLE 1
/// Transpose an 8x8 int32 tile held in 8 vectors: out[j] = column j of
/// rows r[0..7]. Three stages of two-vector shuffles (24 total), the
/// standard butterfly network — this is what makes the HWC->CHW psum
/// reorder run at register speed instead of one scalar move per
/// element.
inline void transpose8x8(const i32x8 r[8], i32x8 out[8]) noexcept {
    i32x8 x[8];
    for (int k = 0; k < 4; ++k) {
        x[2 * k] = __builtin_shufflevector(r[2 * k], r[2 * k + 1], 0, 8, 2, 10, 4, 12,
                                           6, 14);
        x[2 * k + 1] = __builtin_shufflevector(r[2 * k], r[2 * k + 1], 1, 9, 3, 11, 5,
                                               13, 7, 15);
    }
    i32x8 y[8];
    for (int k = 0; k < 2; ++k) {
        const int b = 4 * k;
        y[b + 0] = __builtin_shufflevector(x[b + 0], x[b + 2], 0, 1, 8, 9, 4, 5, 12, 13);
        y[b + 1] = __builtin_shufflevector(x[b + 0], x[b + 2], 2, 3, 10, 11, 6, 7, 14, 15);
        y[b + 2] = __builtin_shufflevector(x[b + 1], x[b + 3], 0, 1, 8, 9, 4, 5, 12, 13);
        y[b + 3] = __builtin_shufflevector(x[b + 1], x[b + 3], 2, 3, 10, 11, 6, 7, 14, 15);
    }
    out[0] = __builtin_shufflevector(y[0], y[4], 0, 1, 2, 3, 8, 9, 10, 11);
    out[4] = __builtin_shufflevector(y[0], y[4], 4, 5, 6, 7, 12, 13, 14, 15);
    out[2] = __builtin_shufflevector(y[1], y[5], 0, 1, 2, 3, 8, 9, 10, 11);
    out[6] = __builtin_shufflevector(y[1], y[5], 4, 5, 6, 7, 12, 13, 14, 15);
    out[1] = __builtin_shufflevector(y[2], y[6], 0, 1, 2, 3, 8, 9, 10, 11);
    out[5] = __builtin_shufflevector(y[2], y[6], 4, 5, 6, 7, 12, 13, 14, 15);
    out[3] = __builtin_shufflevector(y[3], y[7], 0, 1, 2, 3, 8, 9, 10, 11);
    out[7] = __builtin_shufflevector(y[3], y[7], 4, 5, 6, 7, 12, 13, 14, 15);
}
#endif

inline void store(std::int32_t* p, i32x8 v) noexcept { std::memcpy(p, &v, sizeof v); }

#if defined(SIA_SIMD_NATIVE)
// The vector-conditional spelling is what GCC/Clang pattern-match to
// single min/max instructions; the generic select() spelling compiles
// to a 4-op cmp/and/andn/or chain, which triples the cost of every
// saturation clamp in the fused kernels.
[[nodiscard]] inline i32x8 min(i32x8 a, i32x8 b) noexcept { return a < b ? a : b; }
[[nodiscard]] inline i32x8 max(i32x8 a, i32x8 b) noexcept { return a > b ? a : b; }
#else
[[nodiscard]] inline i32x8 min(i32x8 a, i32x8 b) noexcept {
    return select(a < b, a, b);
}
[[nodiscard]] inline i32x8 max(i32x8 a, i32x8 b) noexcept {
    return select(b < a, a, b);
}
#endif
/// Lane form of util::saturate16: clamp int32 lanes into int16 range.
[[nodiscard]] inline i32x8 clamp16(i32x8 v) noexcept {
    return max(min(v, broadcast(32767)), broadcast(-32768));
}

/// Flat 64-byte-aligned zero-initialized buffer for trivially-copyable
/// lane types — the storage behind snn::LayerState's SoA banks. Unlike
/// std::vector it guarantees cache-line/vector alignment, and assign()
/// re-zeroes in place without reallocation churn.
template <typename T>
class AlignedVec {
    static_assert(std::is_trivially_copyable_v<T>);

public:
    static constexpr std::size_t kAlign = 64;

    AlignedVec() = default;
    explicit AlignedVec(std::size_t n) { assign(n); }

    /// Resize to exactly `n` elements, all zero.
    void assign(std::size_t n) {
        if (n != size_) {
            ptr_.reset(n > 0 ? static_cast<T*>(::operator new(
                                   n * sizeof(T), std::align_val_t{kAlign}))
                             : nullptr);
            size_ = n;
        }
        if (size_ > 0) std::memset(ptr_.get(), 0, size_ * sizeof(T));
    }

    [[nodiscard]] T* data() noexcept { return ptr_.get(); }
    [[nodiscard]] const T* data() const noexcept { return ptr_.get(); }
    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
    [[nodiscard]] T& operator[](std::size_t i) noexcept { return ptr_.get()[i]; }
    [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
        return ptr_.get()[i];
    }

private:
    struct Deleter {
        void operator()(T* p) const noexcept {
            ::operator delete(p, std::align_val_t{kAlign});
        }
    };
    std::unique_ptr<T, Deleter> ptr_;
    std::size_t size_ = 0;
};

}  // namespace sia::snn::simd
