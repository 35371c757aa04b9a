#pragma once

/// \file dam_break.hpp
/// Dam-break free-surface test: a water column held against the left wall
/// of a rectangular tank collapses under gravity and surges along the dry
/// bed. The classical WCSPH validation case beyond the paper's two
/// scenarios — the surge-front position has an analytic reference, the
/// Ritter (1892) shallow-water solution, whose front travels at
///
///     x_front(t) = x0 + 2 sqrt(g H) t
///
/// (H = initial column height). Published SPH results lag this inviscid
/// bound — typically reaching 55-80% of the Ritter displacement in the
/// early surge — so the golden test checks the measured front against a
/// band, not a point value.
///
/// Geometry: tank [0,L] x [0,Htank] x [0,D], periodic in Z (quasi-2D, like
/// the square patch's layering); solid walls on the x faces and the floor;
/// open top. The column [0,W] x [0,H] x [0,D] starts in hydrostatic
/// equilibrium: p = rho0 g (H - y), with the density lifted off rho0 by the
/// inverse Tait relation so EOS and initial pressure agree.

#include <cmath>

#include "core/config.hpp"
#include "domain/box.hpp"
#include "ic/lattice.hpp"
#include "parallel/parallel_for.hpp"
#include "sph/eos.hpp"
#include "sph/eos_wcsph.hpp"
#include "sph/particles.hpp"

namespace sphexa {

template<class T>
struct DamBreakConfig
{
    std::size_t nx = 20, ny = 20, nz = 4; ///< lattice of the water column
    T columnWidth  = T(0.5);  ///< W: initial dam position
    T columnHeight = T(1);    ///< H: the Ritter scale
    T depth        = T(0.2);  ///< D: z extent (periodic, quasi-2D)
    T tankLength   = T(2);    ///< L: dry bed ahead of the dam
    T tankHeight   = T(2);    ///< open headspace above the column
    T rho0 = T(1);
    T g    = T(1);            ///< gravity magnitude, acting along -y
    T soundSpeedFactor = T(10); ///< c0 = factor * sqrt(g H)
    T gamma = T(7);
};

template<class T>
struct DamBreakSetup
{
    Box<T> box;     ///< the tank (periodic in Z only)
    TaitEos<T> eos;
    T particleMass;
    T spacing;
    T surgeSpeed;   ///< Ritter front speed 2 sqrt(g H)
};

/// Generate the dam-break initial conditions into \p ps.
template<class T>
DamBreakSetup<T> makeDamBreak(ParticleSet<T>& ps, const DamBreakConfig<T>& cfg = {})
{
    T W = cfg.columnWidth, H = cfg.columnHeight, D = cfg.depth;
    Box<T> tank{{T(0), T(0), T(0)}, {cfg.tankLength, cfg.tankHeight, D},
                false, false, true};
    Box<T> column{{T(0), T(0), T(0)}, {W, H, D}};
    cubicLattice(ps, cfg.nx, cfg.ny, cfg.nz, column);

    std::size_t n = ps.size();
    T dx   = W / T(cfg.nx);
    T mass = cfg.rho0 * W * H * D / T(n);
    T c0   = cfg.soundSpeedFactor * std::sqrt(cfg.g * H);
    T B    = wcsphStiffness(cfg.rho0, c0 * c0, cfg.gamma);
    // free surface: spurious tension is unphysical here, floor p at zero
    TaitEos<T> eos(cfg.rho0, c0, cfg.gamma, T(0));

    parallelFor(n, [&](std::size_t i, std::size_t) {
        ps.m[i]  = mass;
        ps.vx[i] = ps.vy[i] = ps.vz[i] = T(0);
        // hydrostatic column: p = rho0 g (H - y), rho from the inverse Tait
        // relation rho = rho0 (1 + p/B)^(1/gamma) so the EOS reproduces the
        // initial pressure exactly
        T p       = cfg.rho0 * cfg.g * (H - ps.y[i]);
        ps.p[i]   = p;
        ps.rho[i] = cfg.rho0 * std::pow(T(1) + p / B, T(1) / cfg.gamma);
        ps.u[i]   = T(0); // Tait: internal energy is passive
        ps.h[i]   = T(2) * dx; // refined by the h iteration
        ps.c[i]   = c0;
    });

    return {tank, eos, mass, dx, T(2) * std::sqrt(cfg.g * H)};
}

/// The SimulationConfig the dam break runs under: the setup's Tait
/// closure, solid walls on both x faces and the floor (free-slip), gravity
/// as the constant body force.
template<class T>
SimulationConfig<T> damBreakConfig(const DamBreakConfig<T>& cfg,
                                   const DamBreakSetup<T>& setup)
{
    SimulationConfig<T> sc;
    sc.taitEos                = setup.eos;
    sc.boundaries.wallLo      = {{true, true, false}}; // x=0 wall, floor
    sc.boundaries.wallHi      = {{true, false, false}}; // far x wall; open top
    sc.boundaries.condition   = WallCondition::FreeSlip;
    sc.constantAccel          = {T(0), -cfg.g, T(0)};
    return sc;
}

/// Ritter dry-bed surge front x(t) = x0 + 2 sqrt(g H) t.
template<class T>
T ritterFrontPosition(T t, T x0, T H, T g)
{
    return x0 + T(2) * std::sqrt(g * H) * t;
}

/// Measured surge front: the largest x among particles near the bed (below
/// \p bedBand), where the Ritter solution describes the flow.
template<class T>
T damBreakFront(const ParticleSet<T>& ps, T bedBand)
{
    T front = T(0);
    for (std::size_t i = 0; i < ps.size(); ++i)
    {
        if (ps.y[i] < bedBand && ps.x[i] > front) front = ps.x[i];
    }
    return front;
}

} // namespace sphexa
