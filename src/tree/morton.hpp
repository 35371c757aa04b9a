#pragma once

/// \file morton.hpp
/// 63-bit Morton (Z-order) space-filling-curve keys, 21 bits per dimension.
///
/// Morton keys serve two roles in the mini-app, mirroring ChaNGa's design:
/// they define the particle ordering from which the octree is built, and
/// they drive the SFC-based domain decomposition (Table 4).

#include <cstdint>
#include <stdexcept>

#include "domain/box.hpp"
#include "math/vec.hpp"

namespace sphexa {

/// Bits per dimension in a 63-bit 3D SFC key.
inline constexpr int sfcBitsPerDim = 21;
/// Number of cells per dimension at the deepest level.
inline constexpr std::uint64_t sfcCellsPerDim = 1ULL << sfcBitsPerDim;

namespace detail {

/// Spread the lower 21 bits of x so that bit i moves to bit 3i.
inline constexpr std::uint64_t spreadBits3(std::uint64_t x)
{
    x &= 0x1fffffULL;
    x = (x | x << 32) & 0x1f00000000ffffULL;
    x = (x | x << 16) & 0x1f0000ff0000ffULL;
    x = (x | x << 8) & 0x100f00f00f00f00fULL;
    x = (x | x << 4) & 0x10c30c30c30c30c3ULL;
    x = (x | x << 2) & 0x1249249249249249ULL;
    return x;
}

/// Inverse of spreadBits3: compact every third bit into the low 21 bits.
inline constexpr std::uint64_t compactBits3(std::uint64_t x)
{
    x &= 0x1249249249249249ULL;
    x = (x ^ (x >> 2)) & 0x10c30c30c30c30c3ULL;
    x = (x ^ (x >> 4)) & 0x100f00f00f00f00fULL;
    x = (x ^ (x >> 8)) & 0x1f0000ff0000ffULL;
    x = (x ^ (x >> 16)) & 0x1f00000000ffffULL;
    x = (x ^ (x >> 32)) & 0x1fffffULL;
    return x;
}

} // namespace detail

/// Encode integer cell coordinates (each < 2^21) into a Morton key.
inline constexpr std::uint64_t mortonEncode(std::uint64_t ix, std::uint64_t iy,
                                            std::uint64_t iz)
{
    return detail::spreadBits3(ix) << 2 | detail::spreadBits3(iy) << 1 |
           detail::spreadBits3(iz);
}

/// Decode a Morton key into integer cell coordinates.
inline constexpr void mortonDecode(std::uint64_t key, std::uint64_t& ix, std::uint64_t& iy,
                                   std::uint64_t& iz)
{
    ix = detail::compactBits3(key >> 2);
    iy = detail::compactBits3(key >> 1);
    iz = detail::compactBits3(key);
}

/// Map a normalized coordinate in [0, 1) to an integer cell coordinate,
/// clamping finite values outside that range. A NaN or infinite coordinate
/// has no cell: it throws std::domain_error instead of reaching the
/// integer cast. Every SFC key (phase L's sort, phase A's build, the SFC
/// decomposition) passes through here, so a non-finite position stops the
/// step loudly.
template<class T>
constexpr std::uint64_t toCellCoord(T xNorm)
{
    // x - x is 0 for every finite x and NaN for NaN and +-inf (a constexpr
    // std::isfinite)
    if (!(xNorm - xNorm == T(0))) throw std::domain_error("SFC key of a non-finite coordinate");
    if (xNorm <= T(0)) return 0;
    if (xNorm >= T(1)) return sfcCellsPerDim - 1;
    auto c = static_cast<std::uint64_t>(xNorm * T(sfcCellsPerDim));
    return c < sfcCellsPerDim ? c : sfcCellsPerDim - 1;
}

/// Morton key of a point within a global box.
template<class T>
std::uint64_t mortonKey(const Vec3<T>& p, const Box<T>& box)
{
    Vec3<T> n = box.normalize(p);
    return mortonEncode(toCellCoord(n.x), toCellCoord(n.y), toCellCoord(n.z));
}

} // namespace sphexa
