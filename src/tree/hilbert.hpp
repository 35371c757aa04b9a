#pragma once

/// \file hilbert.hpp
/// 63-bit 3D Hilbert space-filling-curve keys (Skilling's transpose
/// algorithm, AIP Conf. Proc. 707, 2004).
///
/// The Hilbert curve trades slightly costlier key computation for strictly
/// better locality than Morton order: consecutive keys are always unit steps
/// in exactly one axis, which tightens the clusters of the SFC-sorted
/// neighbor search and reduces the surface (and therefore the halo traffic)
/// of SFC domain decompositions. It is the default SimulationConfig::sfcCurve
/// (phases L, A and B and the decomposition); Morton stays selectable.

#include <cstdint>

#include "domain/box.hpp"
#include "tree/morton.hpp"

namespace sphexa {

namespace detail {

/// In-place conversion of axis coordinates to Hilbert "transpose" form.
inline constexpr void axesToTranspose(std::uint64_t X[3], int bits)
{
    std::uint64_t M = 1ULL << (bits - 1), P, Q, t;
    // Inverse undo
    for (Q = M; Q > 1; Q >>= 1)
    {
        P = Q - 1;
        for (int i = 0; i < 3; ++i)
        {
            if (X[i] & Q) { X[0] ^= P; }
            else
            {
                t = (X[0] ^ X[i]) & P;
                X[0] ^= t;
                X[i] ^= t;
            }
        }
    }
    // Gray encode
    for (int i = 1; i < 3; ++i)
        X[i] ^= X[i - 1];
    t = 0;
    for (Q = M; Q > 1; Q >>= 1)
    {
        if (X[2] & Q) t ^= Q - 1;
    }
    for (int i = 0; i < 3; ++i)
        X[i] ^= t;
}

/// Inverse of axesToTranspose.
inline constexpr void transposeToAxes(std::uint64_t X[3], int bits)
{
    std::uint64_t M = 2ULL << (bits - 1), P, Q, t;
    // Gray decode by H ^ (H/2)
    t = X[2] >> 1;
    for (int i = 2; i > 0; --i)
        X[i] ^= X[i - 1];
    X[0] ^= t;
    // Undo excess work
    for (Q = 2; Q != M; Q <<= 1)
    {
        P = Q - 1;
        for (int i = 2; i >= 0; --i)
        {
            if (X[i] & Q) { X[0] ^= P; }
            else
            {
                t = (X[0] ^ X[i]) & P;
                X[0] ^= t;
                X[i] ^= t;
            }
        }
    }
}

/// Interleave the transpose form into a single key: bit j of X[d] becomes
/// bit 3j + (2 - d) of the key.
inline constexpr std::uint64_t interleaveTranspose(const std::uint64_t X[3], int bits)
{
    std::uint64_t key = 0;
    for (int j = bits - 1; j >= 0; --j)
    {
        key = key << 3 | ((X[0] >> j & 1) << 2) | ((X[1] >> j & 1) << 1) | (X[2] >> j & 1);
    }
    return key;
}

inline constexpr void deinterleaveTranspose(std::uint64_t key, std::uint64_t X[3], int bits)
{
    X[0] = X[1] = X[2] = 0;
    for (int j = 0; j < bits; ++j)
    {
        X[0] |= ((key >> (3 * j + 2)) & 1) << j;
        X[1] |= ((key >> (3 * j + 1)) & 1) << j;
        X[2] |= ((key >> (3 * j + 0)) & 1) << j;
    }
}

} // namespace detail

/// Encode integer cell coordinates (each < 2^21) into a Hilbert key.
inline constexpr std::uint64_t hilbertEncode(std::uint64_t ix, std::uint64_t iy,
                                             std::uint64_t iz)
{
    std::uint64_t X[3] = {ix, iy, iz};
    detail::axesToTranspose(X, sfcBitsPerDim);
    return detail::interleaveTranspose(X, sfcBitsPerDim);
}

/// Decode a Hilbert key back to integer cell coordinates.
inline constexpr void hilbertDecode(std::uint64_t key, std::uint64_t& ix, std::uint64_t& iy,
                                    std::uint64_t& iz)
{
    std::uint64_t X[3];
    detail::deinterleaveTranspose(key, X, sfcBitsPerDim);
    detail::transposeToAxes(X, sfcBitsPerDim);
    ix = X[0];
    iy = X[1];
    iz = X[2];
}

/// Hilbert key of a point within a global box.
template<class T>
std::uint64_t hilbertKey(const Vec3<T>& p, const Box<T>& box)
{
    Vec3<T> n = box.normalize(p);
    return hilbertEncode(toCellCoord(n.x), toCellCoord(n.y), toCellCoord(n.z));
}

/// SFC curve selector shared by tree build and domain decomposition.
enum class SfcCurve
{
    Morton,
    Hilbert,
};

template<class T>
std::uint64_t sfcKey(SfcCurve curve, const Vec3<T>& p, const Box<T>& box)
{
    return curve == SfcCurve::Morton ? mortonKey(p, box) : hilbertKey(p, box);
}

} // namespace sphexa
