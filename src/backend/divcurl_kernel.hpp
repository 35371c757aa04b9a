#pragma once

/// \file divcurl_kernel.hpp
/// The per-particle velocity div/curl kernel (phase G of Algorithm 1) of
/// both backends. The dispatch shell lives in sph/divcurl.hpp; this
/// function accumulates div v and curl v over one neighbor row (IAD or
/// kernel-derivative gradients) and stores the Balsara limiter.

#include <cmath>
#include <cstddef>

#include "backend/simd_tile.hpp"
#include "math/vec.hpp"
#include "sph/iad.hpp"
#include "sph/particles.hpp"

namespace sphexa::backend {

/// Shared epilogue: store div/|curl| and the Balsara (1995) limiter.
template<class T>
inline void divCurlEpilogue(ParticleSet<T>& ps, std::size_t i, T div, const Vec3<T>& curl)
{
    ps.divv[i]  = div;
    ps.curlv[i] = norm(curl);
    T denom = std::abs(div) + ps.curlv[i] + T(1e-4) * ps.c[i] / ps.h[i];
    ps.balsara[i] = denom > T(0) ? std::abs(div) / denom : T(1);
}

/// div/curl of particle i in tiles of Lanes::width lanes. IAD lanes keep
/// r = 0 pairs (their gradient is exactly zero) and evaluate f only;
/// kernel-derivative lanes evaluate f' only and mask r = 0 pairs out with
/// a safe divisor, so every surviving lane runs the per-pair expression
/// sequence of the seed loop.
template<class T, class Lanes, class Index>
inline void divCurlParticle(ParticleSet<T>& ps, std::size_t i, const Index* nbrs,
                            std::size_t count, const Lanes& lanes,
                            const PeriodicWrap<T>& wrap, GradientMode mode)
{
    constexpr std::size_t W = Lanes::width;
    const T hi = ps.h[i];
    const T h3 = hi * hi * hi;
    const T h4 = hi * hi * hi * hi;
    const T xi = ps.x[i], yi = ps.y[i], zi = ps.z[i];
    const T vxi = ps.vx[i], vyi = ps.vy[i], vzi = ps.vz[i];
    const bool iad = mode == GradientMode::IAD;
    // C(a), loop-invariant (IAD mode only; zeros otherwise)
    const T cxx = iad ? ps.c11[i] : T(0), cxy = iad ? ps.c12[i] : T(0);
    const T cxz = iad ? ps.c13[i] : T(0), cyy = iad ? ps.c22[i] : T(0);
    const T cyz = iad ? ps.c23[i] : T(0), czz = iad ? ps.c33[i] : T(0);

    T accDiv[W] = {}, accCx[W] = {}, accCy[W] = {}, accCz[W] = {};

    for (std::size_t base = 0; base < count; base += W)
    {
        std::size_t j[W];
        T valid[W], q[W];
        T s[W] = {}; // f(q) in IAD mode, f'(q) otherwise
        T dx[W], dy[W], dz[W], r[W];
        tileIndices<T>(nbrs, base, count, j, valid);
        for (std::size_t l = 0; l < W; ++l)
        {
            dx[l] = wrap.x(xi - ps.x[j[l]]);
            dy[l] = wrap.y(yi - ps.y[j[l]]);
            dz[l] = wrap.z(zi - ps.z[j[l]]);
            r[l]  = std::sqrt(dx[l] * dx[l] + dy[l] * dy[l] + dz[l] * dz[l]);
            q[l]  = r[l] / hi;
        }
        if (iad)
            lanes.f(q, s);
        else
            lanes.df(q, s);
        for (std::size_t l = 0; l < W; ++l)
        {
            T gwx, gwy, gwz, vm;
            if (iad)
            {
                // gw = (C(a) . rba) * W_ab(h_a), rba = -rab
                T bx = -dx[l], by = -dy[l], bz = -dz[l];
                T w  = s[l] / h3;
                gwx  = (cxx * bx + cxy * by + cxz * bz) * w;
                gwy  = (cxy * bx + cyy * by + cyz * bz) * w;
                gwz  = (cxz * bx + cyz * by + czz * bz) * w;
                vm   = valid[l];
            }
            else
            {
                // gw = rab * (dW/dr / r); the r = 0 skip becomes a mask
                T rsafe = r[l] > T(0) ? r[l] : T(1);
                T scale = (s[l] / h4) / rsafe;
                gwx     = dx[l] * scale;
                gwy     = dy[l] * scale;
                gwz     = dz[l] * scale;
                vm      = r[l] > T(0) ? valid[l] : T(0);
            }
            T vabx = vxi - ps.vx[j[l]];
            T vaby = vyi - ps.vy[j[l]];
            T vabz = vzi - ps.vz[j[l]];
            T Vb   = ps.vol[j[l]];
            // div v = -sum_b V_b v_ab . grad W ; curl v = +sum_b V_b v_ab x grad W
            accDiv[l] -= vm * (Vb * (vabx * gwx + vaby * gwy + vabz * gwz));
            accCx[l] += vm * ((vaby * gwz - vabz * gwy) * Vb);
            accCy[l] += vm * ((vabz * gwx - vabx * gwz) * Vb);
            accCz[l] += vm * ((vabx * gwy - vaby * gwx) * Vb);
        }
    }

    Vec3<T> curl{laneSum(accCx), laneSum(accCy), laneSum(accCz)};
    divCurlEpilogue(ps, i, laneSum(accDiv), curl);
}

} // namespace sphexa::backend
