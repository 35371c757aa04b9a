#pragma once

/// \file backend_oracle.hpp
/// Test oracle of the phase kernels: the seed solver's per-pair loops for
/// phases E-H, verbatim, plus a serial driver. The Scalar backend (the
/// 1-lane instance of backend/*_kernel.hpp) must reproduce them bitwise —
/// tests/test_backend.cpp, "ScalarOracle".

#include <algorithm>
#include <cstddef>
#include <span>

#include "backend/density_kernel.hpp"
#include "backend/divcurl_kernel.hpp"
#include "backend/iad_kernel.hpp"
#include "backend/momentum_kernel.hpp"
#include "domain/box.hpp"
#include "math/matrix3.hpp"
#include "math/vec.hpp"
#include "sph/iad.hpp"
#include "sph/particles.hpp"
#include "tree/neighbors.hpp"

namespace sphexa::oracle {

// the epilogues stay shared with the backend kernels
using backend::densityEpilogue;
using backend::divCurlEpilogue;
using backend::iadEpilogue;

/// Scalar reference: the seed's per-pair loop, verbatim.
template<class T, class KernelT, class Index>
inline void densityParticle(ParticleSet<T>& ps, std::size_t i, const Index* nbrs,
                            std::size_t count, const KernelT& kernel, const Box<T>& box)
{
    T hi = ps.h[i];
    Vec3<T> pi{ps.x[i], ps.y[i], ps.z[i]};

    // self contribution
    T kx   = ps.xmass[i] * kernel.value(T(0), hi);
    T dkxh = ps.xmass[i] * kernel.dh(T(0), hi);

    for (std::size_t k = 0; k < count; ++k)
    {
        Index j   = nbrs[k];
        Vec3<T> d = box.delta(pi, Vec3<T>{ps.x[j], ps.y[j], ps.z[j]});
        T r = norm(d);
        kx += ps.xmass[j] * kernel.value(r, hi);
        dkxh += ps.xmass[j] * kernel.dh(r, hi);
    }

    densityEpilogue(ps, i, hi, kx, dkxh);
}

/// Scalar reference: the seed's per-pair loop, verbatim.
template<class T, class KernelT, class Index>
inline void iadParticle(ParticleSet<T>& ps, std::size_t i, const Index* nbrs,
                        std::size_t count, const KernelT& kernel, const Box<T>& box)
{
    T hi = ps.h[i];
    Vec3<T> pi{ps.x[i], ps.y[i], ps.z[i]};
    SymMat3<T> tau;

    for (std::size_t k = 0; k < count; ++k)
    {
        Index j = nbrs[k];
        // r_b - r_a, minimum image
        Vec3<T> rba = -box.delta(pi, Vec3<T>{ps.x[j], ps.y[j], ps.z[j]});
        T r = norm(rba);
        T w = kernel.value(r, hi);
        tau.addOuter(rba, ps.vol[j] * w);
    }

    iadEpilogue(ps, i, tau);
}

/// Scalar reference: the seed's per-pair loop, verbatim.
template<class T, class KernelT, class Index>
inline void divCurlParticle(ParticleSet<T>& ps, std::size_t i, const Index* nbrs,
                            std::size_t count, const KernelT& kernel, const Box<T>& box,
                            GradientMode mode)
{
    Vec3<T> pi{ps.x[i], ps.y[i], ps.z[i]};
    Vec3<T> vi{ps.vx[i], ps.vy[i], ps.vz[i]};
    T div = T(0);
    Vec3<T> curl{};

    for (std::size_t k = 0; k < count; ++k)
    {
        Index j     = nbrs[k];
        Vec3<T> rab = box.delta(pi, Vec3<T>{ps.x[j], ps.y[j], ps.z[j]});
        T r = norm(rab);
        Vec3<T> gw;
        if (mode == GradientMode::IAD)
        {
            gw = iadGradient(ps, i, -rab, r, kernel);
        }
        else
        {
            if (r <= T(0)) continue;
            gw = rab * (kernel.derivative(r, ps.h[i]) / r);
        }
        Vec3<T> vab = vi - Vec3<T>{ps.vx[j], ps.vy[j], ps.vz[j]};
        T Vb = ps.vol[j];
        // div v = -sum_b V_b v_ab . grad W ; curl v = +sum_b V_b v_ab x grad W
        div -= Vb * dot(vab, gw);
        curl += Vb * cross(vab, gw);
    }

    divCurlEpilogue(ps, i, div, curl);
}

/// Scalar reference: the seed's per-pair loop, verbatim. Returns vsig_i,
/// the particle's max pair signal velocity (also written to ps.vsig[i]).
template<class T, class KernelT, class Index>
inline T momentumEnergyParticle(ParticleSet<T>& ps, std::size_t i, const Index* nbrs,
                                std::size_t count, const KernelT& kernel,
                                const Box<T>& box, GradientMode mode,
                                const ArtificialViscosity<T>& av)
{
    T vsigI = T(0); ///< this particle's own max over its pairs
    Vec3<T> pi{ps.x[i], ps.y[i], ps.z[i]};
    Vec3<T> vi{ps.vx[i], ps.vy[i], ps.vz[i]};
    T rhoi = ps.rho[i];
    T prhoi = ps.p[i] / (ps.gradh[i] * rhoi * rhoi);

    Vec3<T> acc{};
    T du = T(0);

    for (std::size_t k = 0; k < count; ++k)
    {
        Index j     = nbrs[k];
        Vec3<T> rab = box.delta(pi, Vec3<T>{ps.x[j], ps.y[j], ps.z[j]}); // r_a - r_b
        T r = norm(rab);
        if (r <= T(0)) continue;
        Vec3<T> vab = vi - Vec3<T>{ps.vx[j], ps.vy[j], ps.vz[j]};

        T rhoj  = ps.rho[j];
        T prhoj = ps.p[j] / (ps.gradh[j] * rhoj * rhoj);

        // gradient terms with h_a and h_b
        Vec3<T> gwa, gwb;
        if (mode == GradientMode::IAD)
        {
            // A_ab(h_a) = C(a) (r_b - r_a) W_ab(h_a) : "toward b" sense
            gwa = iadGradient(ps, i, -rab, r, kernel);
            // A_ba(h_b) = C(b) (r_a - r_b) W_ab(h_b); flip to a-centric
            SymMat3<T> cb{ps.c11[j], ps.c12[j], ps.c13[j],
                          ps.c22[j], ps.c23[j], ps.c33[j]};
            gwb = -(cb * rab) * kernel.value(r, ps.h[j]);
            // note: gwa points a->b (negative radial); gwb = -C(b) r_ab W(h_b)
            // also points a->b for isotropic C.
        }
        else
        {
            T invR = T(1) / r;
            gwa = rab * (kernel.derivative(r, ps.h[i]) * invR);
            gwb = rab * (kernel.derivative(r, ps.h[j]) * invR);
        }

        // pressure part: dv_a/dt -= m_b (Pa' gwa_(a->b, so sign below) ...)
        // Using the a-centric gradient (pointing a->b when dW/dr<0):
        //   dv_a/dt += -m_b [prhoi * gwa + prhoj * gwb]
        acc -= ps.m[j] * (prhoi * gwa + prhoj * gwb);

        // energy: du_a/dt = prhoi sum_b m_b v_ab . gwa
        du += ps.m[j] * prhoi * dot(vab, gwa);

        // artificial viscosity on the symmetrized gradient
        T vdotr = dot(vab, rab);
        T cbar  = T(0.5) * (ps.c[i] + ps.c[j]);
        T vsig  = ps.c[i] + ps.c[j] - T(3) * std::min(T(0), vdotr / r);
        vsigI   = std::max(vsigI, vsig);
        if (vdotr < T(0))
        {
            T hbar   = T(0.5) * (ps.h[i] + ps.h[j]);
            T rhobar = T(0.5) * (rhoi + rhoj);
            T mu     = hbar * vdotr / (r * r + av.eps * hbar * hbar);
            T f      = av.useBalsara ? T(0.5) * (ps.balsara[i] + ps.balsara[j]) : T(1);
            T piab   = f * (-av.alpha * cbar * mu + av.beta * mu * mu) / rhobar;
            Vec3<T> gwbar = T(0.5) * (gwa + gwb);
            acc -= ps.m[j] * piab * gwbar;
            du += T(0.5) * ps.m[j] * piab * dot(vab, gwbar);
        }
    }

    ps.ax[i] = acc.x;
    ps.ay[i] = acc.y;
    ps.az[i] = acc.z;
    ps.du[i] = du;
    // per-particle CFL input (individual time-stepping reads this so a
    // quiet particle is not clamped by the loudest shock in the box)
    ps.vsig[i] = vsigI;
    return vsigI;
}

/// Phases E-H through the seed loops, serially over every particle of
/// \p active (all when empty); returns the max signal velocity, the
/// oracle of MomentumEnergyStats::maxVsignal.
template<class T, class KernelT>
T computePhases(ParticleSet<T>& ps, const NeighborList<T>& nl, const KernelT& kernel,
                const Box<T>& box, GradientMode mode, std::span<const std::size_t> active)
{
    std::size_t n = active.empty() ? ps.size() : active.size();
    auto forEachRow = [&](auto&& fn) {
        for (std::size_t idx = 0; idx < n; ++idx)
        {
            std::size_t i = active.empty() ? idx : active[idx];
            auto row      = nl.row(i);
            fn(i, row.data, row.count);
        }
    };
    forEachRow([&](std::size_t i, const auto* nbrs, std::size_t count) {
        densityParticle(ps, i, nbrs, count, kernel, box);
    });
    forEachRow([&](std::size_t i, const auto* nbrs, std::size_t count) {
        iadParticle(ps, i, nbrs, count, kernel, box);
    });
    forEachRow([&](std::size_t i, const auto* nbrs, std::size_t count) {
        divCurlParticle(ps, i, nbrs, count, kernel, box, mode);
    });
    T maxVsig = T(0);
    forEachRow([&](std::size_t i, const auto* nbrs, std::size_t count) {
        maxVsig = std::max(maxVsig, momentumEnergyParticle(ps, i, nbrs, count, kernel, box,
                                                           mode, ArtificialViscosity<T>{}));
    });
    return maxVsig;
}

} // namespace sphexa::oracle
