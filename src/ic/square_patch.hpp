#pragma once

/// \file square_patch.hpp
/// Rotating square patch test (Colagrossi 2005), exactly as set up in
/// Sec. 5.1 of the paper:
///
///  - the original 2D test, [nx x ny] particles over a square of side L,
///    copied nz times along Z with periodic boundary conditions in Z;
///  - rigid-rotation velocity field  vx = w y, vy = -w x  (w = 5 rad/s);
///  - initial pressure from the incompressible-Poisson double sine series
///    (math/series.hpp);
///  - weakly-compressible Tait EOS (the CFD closure; c0 ~ 10 v_max).
///
/// The paper's full-size configuration is nx = ny = 100, nz = 100
/// (10^6 particles, Table 5); any size reproduces the same physics.

#include <cmath>
#include <numbers>

#include "core/config.hpp"
#include "domain/box.hpp"
#include "ic/lattice.hpp"
#include "math/series.hpp"
#include "parallel/parallel_for.hpp"
#include "sph/eos.hpp"
#include "sph/particles.hpp"

namespace sphexa {

template<class T>
struct SquarePatchConfig
{
    std::size_t nx = 100, ny = 100, nz = 100; ///< paper: 100x100x100 = 10^6
    T L     = T(1);    ///< side length of the square
    T omega = T(5);    ///< angular velocity [rad/s] (paper Sec. 5.1)
    T rho0  = T(1);    ///< fluid density
    int pressureTerms = 32; ///< series truncation
    T soundSpeedFactor = T(10); ///< c0 = factor * v_max (weak compressibility)
    /// Tensile stability control (paper Sec. 5.1): the EOS pressure floor is
    /// this factor times the most negative pressure of the analytic field,
    /// leaving the physical negative-pressure interior untouched while
    /// capping the spurious free-surface response.
    T tensileFloorFactor = T(1.5);
};

template<class T>
struct SquarePatchSetup
{
    Box<T> box;        ///< z-periodic domain
    TaitEos<T> eos;    ///< weakly-compressible closure
    T particleMass;
    T spacing;
};

/// Generate the rotating square patch initial conditions into \p ps.
template<class T>
SquarePatchSetup<T> makeSquarePatch(ParticleSet<T>& ps, const SquarePatchConfig<T>& cfg = {})
{
    T L  = cfg.L;
    T dx = L / T(cfg.nx);
    T lz = dx * T(cfg.nz);

    // centered square in x/y; z column of nz layers, periodic
    Box<T> box{{-L / 2, -L / 2, T(0)}, {L / 2, L / 2, lz}, false, false, true};
    cubicLattice(ps, cfg.nx, cfg.ny, cfg.nz, box);

    std::size_t n = ps.size();
    T mass = cfg.rho0 * L * L * lz / T(n);

    SquarePatchPressure<T> pressure(cfg.rho0, cfg.omega, L, cfg.pressureTerms);
    T vmax = cfg.omega * L * std::numbers::sqrt2_v<T> / T(2); // corner speed
    T c0 = cfg.soundSpeedFactor * vmax;
    // pressure floor = factor x the analytic minimum (at the patch center)
    T pFloor = cfg.tensileFloorFactor * pressure.centerValue();
    TaitEos<T> eos(cfg.rho0, c0, T(7), pFloor);

    parallelFor(n, [&](std::size_t i, std::size_t) {
        ps.m[i] = mass;
        // rigid rotation (paper eq. 1)
        ps.vx[i] = cfg.omega * ps.y[i];
        ps.vy[i] = -cfg.omega * ps.x[i];
        ps.vz[i] = T(0);
        // pressure series wants coordinates in [0, L]
        ps.p[i]   = pressure(ps.x[i] + L / 2, ps.y[i] + L / 2);
        ps.rho[i] = cfg.rho0;
        ps.u[i]   = T(0); // Tait EOS: internal energy is passive
        ps.h[i]   = T(2) * dx; // refined by the h iteration
        ps.c[i]   = c0;
    });

    return {box, eos, mass, dx};
}

/// The SimulationConfig the validated free-surface square patch runs
/// under: the setup's Tait closure. The patch is all free surface (no
/// solid walls, no body force), so only the closure differs from the
/// default configuration.
template<class T>
SimulationConfig<T> squarePatchConfig(const SquarePatchSetup<T>& setup)
{
    SimulationConfig<T> cfg;
    cfg.taitEos = setup.eos;
    return cfg;
}

} // namespace sphexa
