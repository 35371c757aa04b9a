#pragma once

/// \file multipole.hpp
/// Cartesian multipole moments of octree nodes, up to hexadecapole order —
/// the "Multipoles (16-pole)" self-gravity of Table 2 (ChaNGa uses 16-pole,
/// SPHYNX 4-pole; both orders are supported and selected per code profile).
///
/// Moments are raw (non-traceless) Cartesian tensors about the node's center
/// of mass (so the dipole vanishes identically):
///     M        = sum m_b
///     Q_ij     = sum m_b d_i d_j
///     O_ijk    = sum m_b d_i d_j d_k
///     H_ijkl   = sum m_b d_i d_j d_k d_l,     d = r_b - R_com.
/// Raw moments are valid because the trace parts act through the harmonic
/// Laplacian of 1/r and vanish away from the source.
///
/// Evaluating a moment set at a target (M2P) is one closed form per order in
/// backend/gravity_kernel.hpp; src/ holds no generic tensor contraction (the
/// contraction with the derivative tensors of 1/s is the test oracle,
/// tests/gravity_oracle.hpp).

#include <array>
#include <cstdint>
#include <span>
#include <string_view>

#include "math/vec.hpp"

namespace sphexa {

/// Expansion order selector, named by the paper's N-pole convention.
enum class MultipoleOrder
{
    Monopole = 1,     ///< 2-pole: mass only
    Quadrupole = 2,   ///< 4-pole (SPHYNX)
    Octupole = 3,     ///< 8-pole
    Hexadecapole = 4, ///< 16-pole (ChaNGa)
};

constexpr std::string_view multipoleOrderName(MultipoleOrder o)
{
    switch (o)
    {
        case MultipoleOrder::Monopole: return "Multipoles (2-pole)";
        case MultipoleOrder::Quadrupole: return "Multipoles (4-pole)";
        case MultipoleOrder::Octupole: return "Multipoles (8-pole)";
        case MultipoleOrder::Hexadecapole: return "Multipoles (16-pole)";
    }
    return "?";
}

/// Multipole moments of a mass distribution about its center of mass.
///
/// Each symmetric tensor stores its distinct components once, at the sorted
/// index tuples (a <= b <= ...) in lexicographic order, which is where the
/// closed forms of backend/gravity_kernel.hpp read them:
///     q:  xx xy xz yy yz zz                                 (0..5)
///     o:  xxx xxy xxz xyy xyz xzz yyy yyz yzz zzz           (0..9)
///     hx: xxxx xxxy xxxz xxyy xxyz xxzz xyyy xyyz xyzz xzzz
///         yyyy yyyz yyzz yzzz zzzz                          (0..14)
/// Moments above the order they were computed at stay zero.
template<class T>
struct Multipole
{
    T mass{};
    Vec3<T> com{};
    std::array<T, 6>  q{};  ///< rank-2 raw moments
    std::array<T, 10> o{};  ///< rank-3 raw moments
    std::array<T, 15> hx{}; ///< rank-4 raw moments
};

/// Particle-to-multipole: accumulate moments of the given particles about
/// their center of mass, up to \p order. The nested a <= b <= c <= e loops
/// visit the index tuples in storage order, so each moment is written by a
/// running index.
template<class T>
Multipole<T> computeMultipole(std::span<const T> x, std::span<const T> y,
                              std::span<const T> z, std::span<const T> m,
                              std::span<const std::uint32_t> indices, MultipoleOrder order)
{
    Multipole<T> mp;
    for (auto j : indices)
    {
        mp.mass += m[j];
        mp.com += m[j] * Vec3<T>{x[j], y[j], z[j]};
    }
    if (mp.mass > T(0)) mp.com /= mp.mass;
    if (order == MultipoleOrder::Monopole) return mp;

    for (auto j : indices)
    {
        Vec3<T> d = Vec3<T>{x[j], y[j], z[j]} - mp.com;
        T mb = m[j];
        int k = 0;
        for (int a = 0; a < 3; ++a)
            for (int b = a; b < 3; ++b)
                mp.q[k++] += mb * d[a] * d[b];

        if (order >= MultipoleOrder::Octupole)
        {
            k = 0;
            for (int a = 0; a < 3; ++a)
                for (int b = a; b < 3; ++b)
                    for (int c = b; c < 3; ++c)
                        mp.o[k++] += mb * d[a] * d[b] * d[c];
        }
        if (order >= MultipoleOrder::Hexadecapole)
        {
            k = 0;
            for (int a = 0; a < 3; ++a)
                for (int b = a; b < 3; ++b)
                    for (int c = b; c < 3; ++c)
                        for (int e = c; e < 3; ++e)
                            mp.hx[k++] += mb * d[a] * d[b] * d[c] * d[e];
        }
    }
    return mp;
}

} // namespace sphexa
