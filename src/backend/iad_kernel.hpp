#pragma once

/// \file iad_kernel.hpp
/// The per-particle IAD tau-matrix kernel (phase F of Algorithm 1) of both
/// backends. The dispatch shell lives in sph/iad.hpp; this function
/// accumulates tau_ij = sum_b V_b (r_b - r_a)_i (r_b - r_a)_j W_ab over one
/// neighbor row and stores the inverted coefficients c11..c33.

#include <cmath>
#include <cstddef>

#include "backend/simd_tile.hpp"
#include "math/matrix3.hpp"
#include "sph/particles.hpp"

namespace sphexa::backend {

/// Shared epilogue: invert tau, store the six coefficient components.
template<class T>
inline void iadEpilogue(ParticleSet<T>& ps, std::size_t i, const SymMat3<T>& tau)
{
    SymMat3<T> c = tau.inverse();
    ps.c11[i] = c.xx;
    ps.c12[i] = c.xy;
    ps.c13[i] = c.xz;
    ps.c22[i] = c.yy;
    ps.c23[i] = c.yz;
    ps.c33[i] = c.zz;
}

/// tau of particle i in tiles of Lanes::width lanes: six per-lane
/// accumulators (one per independent tau component), per-pair arithmetic
/// in SymMat3::addOuter's expression order, fixed-order lane reduction.
/// Evaluates f only.
template<class T, class Lanes, class Index>
inline void iadParticle(ParticleSet<T>& ps, std::size_t i, const Index* nbrs,
                        std::size_t count, const Lanes& lanes, const PeriodicWrap<T>& wrap)
{
    constexpr std::size_t W = Lanes::width;
    const T hi = ps.h[i];
    const T h3 = hi * hi * hi;
    const T xi = ps.x[i], yi = ps.y[i], zi = ps.z[i];

    T aXX[W] = {}, aXY[W] = {}, aXZ[W] = {}, aYY[W] = {}, aYZ[W] = {}, aZZ[W] = {};

    for (std::size_t base = 0; base < count; base += W)
    {
        std::size_t j[W];
        T valid[W], q[W], f[W];
        T bx[W], by[W], bz[W], vol[W];
        tileIndices<T>(nbrs, base, count, j, valid);
        for (std::size_t l = 0; l < W; ++l)
        {
            // rba = -(minimum-image (r_a - r_b)): negate after the wrap,
            // matching -box.delta(...) exactly
            bx[l] = -wrap.x(xi - ps.x[j[l]]);
            by[l] = -wrap.y(yi - ps.y[j[l]]);
            bz[l] = -wrap.z(zi - ps.z[j[l]]);
            T r   = std::sqrt(bx[l] * bx[l] + by[l] * by[l] + bz[l] * bz[l]);
            q[l]   = r / hi;
            vol[l] = ps.vol[j[l]];
        }
        lanes.f(q, f);
        for (std::size_t l = 0; l < W; ++l)
        {
            T s  = vol[l] * (f[l] / h3); // V_b * W_ab(h_a)
            T sx = s * bx[l];
            T sy = s * by[l];
            T sz = s * bz[l];
            aXX[l] += valid[l] * (sx * bx[l]);
            aXY[l] += valid[l] * (sx * by[l]);
            aXZ[l] += valid[l] * (sx * bz[l]);
            aYY[l] += valid[l] * (sy * by[l]);
            aYZ[l] += valid[l] * (sy * bz[l]);
            aZZ[l] += valid[l] * (sz * bz[l]);
        }
    }

    SymMat3<T> tau{laneSum(aXX), laneSum(aXY), laneSum(aXZ),
                   laneSum(aYY), laneSum(aYZ), laneSum(aZZ)};
    iadEpilogue(ps, i, tau);
}

} // namespace sphexa::backend
