#pragma once

/// \file momentum_kernel.hpp
/// The per-particle momentum/energy kernel (phase H of Algorithm 1) of both
/// backends, plus the artificial-viscosity parameter block it shares with
/// the configuration layer. The dispatch shell lives in
/// sph/momentum_energy.hpp, the neighbor-list symmetrization it relies on
/// in tree/neighbors.hpp.
///
/// The kernel returns the particle's own maximum signal velocity over its
/// pairs; the shell owns the per-worker max reduction into the phase stats.

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "backend/simd_tile.hpp"
#include "sph/iad.hpp"
#include "sph/particles.hpp"

namespace sphexa {

/// Artificial-viscosity parameters (Monaghan 1992 with the Balsara switch).
template<class T>
struct ArtificialViscosity
{
    T alpha = T(1);
    T beta  = T(2);
    T eps   = T(0.01);   ///< softening in mu denominator
    bool useBalsara = true;
};

/// Result accumulated per call for time-step control.
template<class T>
struct MomentumEnergyStats
{
    T maxVsignal = T(0); ///< max signal velocity (CFL input)
};

namespace backend {

/// Accelerations and du/dt of particle i in tiles of Lanes::width lanes.
/// Returns vsig_i, the particle's max pair signal velocity (also written to
/// ps.vsig[i]). The seed loop's r <= 0 skip becomes a validity mask with
/// safe divisors; the artificial-viscosity branch becomes a second mask
/// (its operands are finite for every lane, so masked lanes do the
/// arithmetic and contribute exact zeros). Surviving lanes run the seed's
/// per-pair expression sequence; kernel shapes come from the evaluator at
/// both h_a and h_b, f only in IAD mode and f' only otherwise.
template<class T, class Lanes, class Index>
inline T momentumEnergyParticle(ParticleSet<T>& ps, std::size_t i, const Index* nbrs,
                                std::size_t count, const Lanes& lanes,
                                const PeriodicWrap<T>& wrap, GradientMode mode,
                                const ArtificialViscosity<T>& av)
{
    constexpr std::size_t W = Lanes::width;
    const T hi  = ps.h[i];
    const T h3i = hi * hi * hi;
    const T h4i = hi * hi * hi * hi;
    const T xi = ps.x[i], yi = ps.y[i], zi = ps.z[i];
    const T vxi = ps.vx[i], vyi = ps.vy[i], vzi = ps.vz[i];
    const T rhoi  = ps.rho[i];
    const T prhoi = ps.p[i] / (ps.gradh[i] * rhoi * rhoi);
    const T ci    = ps.c[i];
    const T bali  = ps.balsara[i];
    const bool iad = mode == GradientMode::IAD;
    const T cxx = iad ? ps.c11[i] : T(0), cxy = iad ? ps.c12[i] : T(0);
    const T cxz = iad ? ps.c13[i] : T(0), cyy = iad ? ps.c22[i] : T(0);
    const T cyz = iad ? ps.c23[i] : T(0), czz = iad ? ps.c33[i] : T(0);

    T accX[W] = {}, accY[W] = {}, accZ[W] = {}, accDu[W] = {}, accVsig[W] = {};

    for (std::size_t base = 0; base < count; base += W)
    {
        std::size_t j[W];
        T valid[W], qi[W], qj[W];
        T si[W], sj[W]; // f(q) at h_a, h_b in IAD mode, f'(q) otherwise
        T dx[W], dy[W], dz[W], r[W], rsafe[W], hj[W];
        tileIndices<T>(nbrs, base, count, j, valid);
        for (std::size_t l = 0; l < W; ++l)
        {
            dx[l] = wrap.x(xi - ps.x[j[l]]);
            dy[l] = wrap.y(yi - ps.y[j[l]]);
            dz[l] = wrap.z(zi - ps.z[j[l]]);
            r[l]  = std::sqrt(dx[l] * dx[l] + dy[l] * dy[l] + dz[l] * dz[l]);
            // fold the r <= 0 skip into the mask; the safe divisor keeps
            // masked lanes finite
            valid[l] = r[l] > T(0) ? valid[l] : T(0);
            rsafe[l] = r[l] > T(0) ? r[l] : T(1);
            hj[l]    = ps.h[j[l]];
            qi[l]    = r[l] / hi;
            qj[l]    = r[l] / hj[l];
        }
        if (iad)
        {
            lanes.f(qi, si);
            lanes.f(qj, sj);
        }
        else
        {
            lanes.df(qi, si);
            lanes.df(qj, sj);
        }
        for (std::size_t l = 0; l < W; ++l)
        {
            std::size_t jj = j[l];
            T rhoj  = ps.rho[jj];
            T prhoj = ps.p[jj] / (ps.gradh[jj] * rhoj * rhoj);

            T gwax, gway, gwaz, gwbx, gwby, gwbz;
            if (iad)
            {
                T bx = -dx[l], by = -dy[l], bz = -dz[l];
                T wa = si[l] / h3i;
                gwax = (cxx * bx + cxy * by + cxz * bz) * wa;
                gway = (cxy * bx + cyy * by + cyz * bz) * wa;
                gwaz = (cxz * bx + cyz * by + czz * bz) * wa;
                T wb = sj[l] / (hj[l] * hj[l] * hj[l]);
                T tx = ps.c11[jj] * dx[l] + ps.c12[jj] * dy[l] + ps.c13[jj] * dz[l];
                T ty = ps.c12[jj] * dx[l] + ps.c22[jj] * dy[l] + ps.c23[jj] * dz[l];
                T tz = ps.c13[jj] * dx[l] + ps.c23[jj] * dy[l] + ps.c33[jj] * dz[l];
                gwbx = -tx * wb;
                gwby = -ty * wb;
                gwbz = -tz * wb;
            }
            else
            {
                T invR   = T(1) / rsafe[l];
                T scaleA = (si[l] / h4i) * invR;
                T scaleB = (sj[l] / (hj[l] * hj[l] * hj[l] * hj[l])) * invR;
                gwax = dx[l] * scaleA;
                gway = dy[l] * scaleA;
                gwaz = dz[l] * scaleA;
                gwbx = dx[l] * scaleB;
                gwby = dy[l] * scaleB;
                gwbz = dz[l] * scaleB;
            }

            T vabx = vxi - ps.vx[jj];
            T vaby = vyi - ps.vy[jj];
            T vabz = vzi - ps.vz[jj];
            T mj   = ps.m[jj];
            T vm   = valid[l];

            accX[l] -= vm * ((prhoi * gwax + prhoj * gwbx) * mj);
            accY[l] -= vm * ((prhoi * gway + prhoj * gwby) * mj);
            accZ[l] -= vm * ((prhoi * gwaz + prhoj * gwbz) * mj);
            accDu[l] += vm * (mj * prhoi *
                              (vabx * gwax + vaby * gway + vabz * gwaz));

            T cj    = ps.c[jj];
            T vdotr = vabx * dx[l] + vaby * dy[l] + vabz * dz[l];
            T cbar  = T(0.5) * (ci + cj);
            T vsig  = ci + cj - T(3) * std::min(T(0), vdotr / rsafe[l]);
            T vsigM = vm != T(0) ? vsig : T(0);
            accVsig[l] = accVsig[l] > vsigM ? accVsig[l] : vsigM;

            // AV branch -> mask: every operand below is finite on masked
            // lanes (hbar > 0 keeps mu's denominator positive even at r = 0).
            // A 1-lane tile branches instead: its masked term is an exact
            // zero, so skipping it leaves the sums bitwise unchanged.
            T am = vdotr < T(0) ? vm : T(0);
            if (W > 1 || am != T(0))
            {
                T hbar   = T(0.5) * (hi + hj[l]);
                T rhobar = T(0.5) * (rhoi + rhoj);
                T mu     = hbar * vdotr / (r[l] * r[l] + av.eps * hbar * hbar);
                T fb     = av.useBalsara ? T(0.5) * (bali + ps.balsara[jj]) : T(1);
                T piab   = fb * (-av.alpha * cbar * mu + av.beta * mu * mu) / rhobar;
                T gwbarx = T(0.5) * (gwax + gwbx);
                T gwbary = T(0.5) * (gway + gwby);
                T gwbarz = T(0.5) * (gwaz + gwbz);
                T mp     = mj * piab;
                accX[l] -= am * (gwbarx * mp);
                accY[l] -= am * (gwbary * mp);
                accZ[l] -= am * (gwbarz * mp);
                accDu[l] += am * (T(0.5) * mj * piab *
                                  (vabx * gwbarx + vaby * gwbary + vabz * gwbarz));
            }
        }
    }

    ps.ax[i] = laneSum(accX);
    ps.ay[i] = laneSum(accY);
    ps.az[i] = laneSum(accZ);
    ps.du[i] = laneSum(accDu);
    // per-particle CFL input (individual time-stepping reads this so a
    // quiet particle is not clamped by the loudest shock in the box)
    T vsigI  = laneMax(accVsig);
    ps.vsig[i] = vsigI;
    return vsigI;
}

} // namespace backend
} // namespace sphexa
