#pragma once

/// \file simd_tile.hpp
/// Lane-tiling primitives of the phase kernels: the Simd tile width, the
/// hoisted minimum-image wrap, padded tile-index gathers and the
/// fixed-order lane reductions. Every primitive is generic over the tile
/// width W, so one kernel source serves the Scalar backend (W = 1) and the
/// Simd backend (W = kLaneWidth).
///
/// Determinism contract (docs/ARCHITECTURE.md, "Backend layer"): a phase
/// kernel walks one particle's neighbor row in tiles of W lanes,
/// accumulates per-lane partial sums, and reduces them in fixed index order
/// 0..W-1. Tile boundaries depend only on the neighbor row — never on pool
/// size, scheduling strategy or chunk boundaries — so results are bitwise
/// invariant across pools and strategies for either width. At W = 1 the
/// single lane is the seed's left-to-right accumulate-to-self sum. Padded
/// lanes replicate the last valid neighbor index (no out-of-bounds gather,
/// all arithmetic stays finite) and are annihilated by a 0/1 validity
/// multiplier before accumulation.

#include <cstddef>
#include <limits>

#include "domain/box.hpp"

namespace sphexa::backend {

/// Lanes per Simd tile. 8 doubles = one AVX-512 vector or two AVX2
/// vectors; a compile-time constant independent of pool size so tile
/// boundaries (and therefore FP sums) are a function of the neighbor row
/// alone.
inline constexpr std::size_t kLaneWidth = 8;

/// Minimum-image wrap with the per-axis constants hoisted out of the inner
/// loop. A non-periodic axis gets an infinite half-width so its selects
/// never fire; a periodic axis reproduces Box::delta exactly — the same L/2
/// threshold and single-subtraction corrections, expressed as selects so
/// lane loops stay branch-free. Shared by the phase kernels of both
/// backends and the cluster member scan (tree/cluster_list.hpp), whose
/// bitwise list equality with the per-particle walk depends on exactly this
/// arithmetic.
template<class T>
struct PeriodicWrap
{
    T Lx, Ly, Lz;
    T hwx, hwy, hwz; ///< half-widths; +inf on non-periodic axes

    explicit PeriodicWrap(const Box<T>& box)
        : Lx(box.length(0))
        , Ly(box.length(1))
        , Lz(box.length(2))
        , hwx(box.pbc[0] ? Lx / 2 : std::numeric_limits<T>::infinity())
        , hwy(box.pbc[1] ? Ly / 2 : std::numeric_limits<T>::infinity())
        , hwz(box.pbc[2] ? Lz / 2 : std::numeric_limits<T>::infinity())
    {
    }

    T x(T d) const { return d > hwx ? d - Lx : (d < -hwx ? d + Lx : d); }
    T y(T d) const { return d > hwy ? d - Ly : (d < -hwy ? d + Ly : d); }
    T z(T d) const { return d > hwz ? d - Lz : (d < -hwz ? d + Lz : d); }
};

/// Fill one tile's gather indices from a neighbor row: lanes [0, m) map to
/// nbrs[base..base+m) and padded lanes replicate the last valid entry, with
/// valid[l] the 0/1 annihilation multiplier. Returns m, the valid lane
/// count (W except for the remainder tile).
template<class T, class Index, std::size_t W>
inline std::size_t tileIndices(const Index* nbrs, std::size_t base, std::size_t count,
                               std::size_t (&j)[W], T (&valid)[W])
{
    std::size_t m = count - base;
    if (m > W) m = W;
    for (std::size_t l = 0; l < W; ++l)
    {
        j[l]     = nbrs[base + (l < m ? l : m - 1)];
        valid[l] = l < m ? T(1) : T(0);
    }
    return m;
}

/// Fixed-order lane reduction: always 0 + 1 + ... + (W-1), the association
/// the bitwise pool/strategy invariance of both backends rests on.
template<class T, std::size_t W>
inline T laneSum(const T (&acc)[W])
{
    T s = acc[0];
    for (std::size_t l = 1; l < W; ++l)
        s += acc[l];
    return s;
}

/// Fixed-order lane max (max is a selection, so any order would do; fixed
/// order keeps the contract uniform).
template<class T, std::size_t W>
inline T laneMax(const T (&acc)[W])
{
    T s = acc[0];
    for (std::size_t l = 1; l < W; ++l)
        s = s > acc[l] ? s : acc[l];
    return s;
}

} // namespace sphexa::backend
