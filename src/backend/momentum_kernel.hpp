#pragma once

/// \file momentum_kernel.hpp
/// The per-particle momentum/energy kernel (phase H of Algorithm 1) of both
/// backends, the per-particle record it reads its neighbors' fields from,
/// and the artificial-viscosity parameter block it shares with the
/// configuration layer. The dispatch shell lives in
/// sph/momentum_energy.hpp, the missing-pair buckets it merges into the
/// rows in tree/neighbors.hpp.
///
/// The kernel reads x, y, z and h of each neighbor from the particle
/// arrays (the distance pass) and every other field from one 112-byte
/// MomentumRecord per particle, so a neighbor costs one or two cache lines
/// instead of gathers from 15 arrays. The shell refills the records of all
/// particles (MomentumRecordBuffer::pack) at the start of every call; this
/// header is the only place that knows their layout.
///
/// The kernel returns the particle's own maximum signal velocity over its
/// pairs; the shell owns the per-worker max reduction into the phase stats.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <memory>

#include "backend/simd_tile.hpp"
#include "parallel/parallel_for.hpp"
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

/// The fields of one particle that phase H reads after the distance pass,
/// together in one record: 14 values, no padding (112 bytes in double).
/// prho = p / (gradh rho rho) is the kernel's own per-pair expression, so
/// reading it from the record keeps every bit.
template<class T>
struct MomentumRecord
{
    T vx, vy, vz, m, rho, prho, c, balsara;
    T c11, c12, c13, c22, c23, c33;
};

} // namespace backend

/// Phase H's neighbor records, one per particle. Owned by a driver's
/// PhaseBuffers (PhaseBuffers::momentum, core/step_context.hpp), like
/// phase D's MissingPairs; a default-constructed buffer is valid and grows
/// on first use. It only grows, and it never copies: pack() rewrites
/// every record it returns, so growing frees the old allocation before it
/// takes the larger one and RSS never holds two buffers (a growing
/// std::vector would copy into a doubled allocation, and the dam break's
/// ghost count changes every step).
template<class T>
class MomentumRecordBuffer
{
public:
    using Record = backend::MomentumRecord<T>;
    static_assert(sizeof(Record) == 14 * sizeof(T), "MomentumRecord has padding");

    /// Rewrite the records of all ps.size() particles in one parallelFor
    /// under \p policy and return them. Ghosts, halo copies and the
    /// inactive particles of a binned step are packed too: any of them can
    /// be a neighbor.
    const Record* pack(const ParticleSet<T>& ps, const LoopPolicy& policy = {})
    {
        const std::size_t n = ps.size();
        if (n > capacity_)
        {
            records_.reset();
            records_  = std::make_unique_for_overwrite<Record[]>(n);
            capacity_ = n;
        }
        Record* rec = records_.get();
        parallelFor(
            n,
            [&](std::size_t i, std::size_t) {
                const T rho = ps.rho[i];
                rec[i] = {ps.vx[i],  ps.vy[i],  ps.vz[i],  ps.m[i],
                          rho,       ps.p[i] / (ps.gradh[i] * rho * rho),
                          ps.c[i],   ps.balsara[i],
                          ps.c11[i], ps.c12[i], ps.c13[i], ps.c22[i], ps.c23[i], ps.c33[i]};
            },
            policy);
        return rec;
    }

    /// Records held without growing (0 before the first pack).
    std::size_t capacity() const { return capacity_; }

private:
    std::unique_ptr<Record[]> records_;
    std::size_t capacity_ = 0;
};

namespace backend {

/// Accelerations and du/dt of particle i in tiles of Lanes::width lanes.
/// Returns vsig_i, the particle's max pair signal velocity (also written to
/// ps.vsig[i]). Positions and h come from \p ps, every other field of i
/// and of its neighbors from \p rec (MomentumRecordBuffer::pack of this
/// ps). The seed loop's r <= 0 skip becomes a validity mask with safe
/// divisors; the artificial-viscosity branch becomes a second mask (its
/// operands are finite for every lane, so masked lanes do the arithmetic
/// and contribute exact zeros). Surviving lanes run the seed's per-pair
/// expression sequence; kernel shapes come from the evaluator at both h_a
/// and h_b, f only in IAD mode and f' only otherwise.
template<class T, class Lanes, class Index>
inline T momentumEnergyParticle(ParticleSet<T>& ps, const MomentumRecord<T>* rec,
                                std::size_t i, const Index* nbrs, std::size_t count,
                                const Lanes& lanes, const PeriodicWrap<T>& wrap,
                                GradientMode mode, const ArtificialViscosity<T>& av)
{
    constexpr std::size_t W = Lanes::width;
    const T hi  = ps.h[i];
    const T h3i = hi * hi * hi;
    const T h4i = hi * hi * hi * hi;
    const T xi = ps.x[i], yi = ps.y[i], zi = ps.z[i];
    const MomentumRecord<T>& ri = rec[i];
    const T vxi = ri.vx, vyi = ri.vy, vzi = ri.vz;
    const T rhoi  = ri.rho;
    const T prhoi = ri.prho;
    const T ci    = ri.c;
    const T bali  = ri.balsara;
    const bool iad = mode == GradientMode::IAD;
    const T cxx = iad ? ri.c11 : T(0), cxy = iad ? ri.c12 : T(0);
    const T cxz = iad ? ri.c13 : T(0), cyy = iad ? ri.c22 : T(0);
    const T cyz = iad ? ri.c23 : T(0), czz = iad ? ri.c33 : T(0);

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
            const MomentumRecord<T>& rj = rec[j[l]];
            T rhoj  = rj.rho;
            T prhoj = rj.prho;

            T gwax, gway, gwaz, gwbx, gwby, gwbz;
            if (iad)
            {
                T bx = -dx[l], by = -dy[l], bz = -dz[l];
                T wa = si[l] / h3i;
                gwax = (cxx * bx + cxy * by + cxz * bz) * wa;
                gway = (cxy * bx + cyy * by + cyz * bz) * wa;
                gwaz = (cxz * bx + cyz * by + czz * bz) * wa;
                T wb = sj[l] / (hj[l] * hj[l] * hj[l]);
                T tx = rj.c11 * dx[l] + rj.c12 * dy[l] + rj.c13 * dz[l];
                T ty = rj.c12 * dx[l] + rj.c22 * dy[l] + rj.c23 * dz[l];
                T tz = rj.c13 * dx[l] + rj.c23 * dy[l] + rj.c33 * dz[l];
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

            T vabx = vxi - rj.vx;
            T vaby = vyi - rj.vy;
            T vabz = vzi - rj.vz;
            T mj   = rj.m;
            T vm   = valid[l];

            accX[l] -= vm * ((prhoi * gwax + prhoj * gwbx) * mj);
            accY[l] -= vm * ((prhoi * gway + prhoj * gwby) * mj);
            accZ[l] -= vm * ((prhoi * gwaz + prhoj * gwbz) * mj);
            accDu[l] += vm * (mj * prhoi *
                              (vabx * gwax + vaby * gway + vabz * gwaz));

            T cj    = rj.c;
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
                T fb     = av.useBalsara ? T(0.5) * (bali + rj.balsara) : T(1);
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
