#pragma once

/// \file density_kernel.hpp
/// The per-particle density kernel (phase E of Algorithm 1) of both
/// backends. The dispatch shell lives in sph/density.hpp; this function
/// holds the physics: the kx / d(kx)/dh sums over one neighbor row and the
/// vol/rho/gradh epilogue.

#include <cmath>
#include <cstddef>

#include "backend/simd_tile.hpp"
#include "sph/particles.hpp"

namespace sphexa::backend {

/// Shared epilogue: kx -> volume element, density, grad-h term.
template<class T>
inline void densityEpilogue(ParticleSet<T>& ps, std::size_t i, T hi, T kx, T dkxh)
{
    ps.vol[i] = ps.xmass[i] / kx;
    ps.rho[i] = ps.m[i] * kx / ps.xmass[i];
    // Omega_a = 1 + h/(3 kx) * d(kx)/dh
    ps.gradh[i] = T(1) + hi / (T(3) * kx) * dkxh;
    // guard against pathological neighbor geometry
    if (!(ps.gradh[i] > T(0.1)) || !(ps.gradh[i] < T(10)))
    {
        ps.gradh[i] = T(1);
    }
}

/// Density of particle i in tiles of Lanes::width lanes: gathered
/// xmass/coordinate batches, per-lane partial kx and d(kx)/dh, fixed-order
/// lane reduction. The self term seeds lane 0, so the 1-lane sum is the
/// seed's order (self, then the row left to right); f and f' come from one
/// shape evaluation per pair.
template<class T, class Lanes, class Index>
inline void densityParticle(ParticleSet<T>& ps, std::size_t i, const Index* nbrs,
                            std::size_t count, const Lanes& lanes,
                            const PeriodicWrap<T>& wrap)
{
    constexpr std::size_t W = Lanes::width;
    const T hi = ps.h[i];
    const T h3 = hi * hi * hi;
    const T h4 = hi * hi * hi * hi;
    const T xi = ps.x[i], yi = ps.y[i], zi = ps.z[i];

    // self contribution: q = 0 is exact for every kernel type (see
    // lane_kernel.hpp)
    T f0, df0;
    lanes.fdf(T(0), f0, df0);
    T accKx[W] = {ps.xmass[i] * (f0 / h3)};
    T accDk[W] = {ps.xmass[i] * (-(T(3) * f0 + T(0) * df0) / h4)};

    for (std::size_t base = 0; base < count; base += W)
    {
        std::size_t j[W];
        T valid[W], q[W], f[W], df[W], xm[W];
        tileIndices<T>(nbrs, base, count, j, valid);
        for (std::size_t l = 0; l < W; ++l)
        {
            T dx = wrap.x(xi - ps.x[j[l]]);
            T dy = wrap.y(yi - ps.y[j[l]]);
            T dz = wrap.z(zi - ps.z[j[l]]);
            T r  = std::sqrt(dx * dx + dy * dy + dz * dz);
            q[l]  = r / hi;
            xm[l] = ps.xmass[j[l]];
        }
        lanes.fdf(q, f, df);
        for (std::size_t l = 0; l < W; ++l)
        {
            accKx[l] += valid[l] * (xm[l] * (f[l] / h3));
            accDk[l] += valid[l] * (xm[l] * (-(T(3) * f[l] + q[l] * df[l]) / h4));
        }
    }

    densityEpilogue(ps, i, hi, laneSum(accKx), laneSum(accDk));
}

} // namespace sphexa::backend
