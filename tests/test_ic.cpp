/// Initial-condition generator tests: lattice geometry, square-patch
/// velocity/pressure fields (paper Sec. 5.1), Evrard 1/r density profile
/// (paper eq. 2), and the Sedov energy injection.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <numeric>
#include <vector>

#include "core/simulation.hpp"
#include "ic/dam_break.hpp"
#include "ic/evrard.hpp"
#include "ic/lattice.hpp"
#include "ic/sedov.hpp"
#include "ic/square_patch.hpp"

using namespace sphexa;

// --- lattice -----------------------------------------------------------------

TEST(Lattice, CountAndBounds)
{
    ParticleSetD ps;
    Box<double> box{{-1, 0, 2}, {1, 3, 4}};
    auto n = cubicLattice(ps, 4, 5, 6, box);
    EXPECT_EQ(n, 120u);
    EXPECT_EQ(ps.size(), 120u);
    for (std::size_t i = 0; i < n; ++i)
    {
        EXPECT_TRUE(box.contains({ps.x[i], ps.y[i], ps.z[i]})) << i;
    }
}

TEST(Lattice, UniformSpacing)
{
    ParticleSetD ps;
    Box<double> box{{0, 0, 0}, {1, 1, 1}};
    cubicLattice(ps, 10, 10, 10, box);
    // first two points along x differ by exactly 1/10
    EXPECT_NEAR(ps.x[1] - ps.x[0], 0.1, 1e-14);
    // cell-centered: first point at 0.05
    EXPECT_NEAR(ps.x[0], 0.05, 1e-14);
}

TEST(Lattice, IdsAreSequential)
{
    ParticleSetD ps;
    Box<double> box{{0, 0, 0}, {1, 1, 1}};
    cubicLattice(ps, 3, 3, 3, box);
    for (std::size_t i = 0; i < ps.size(); ++i)
    {
        EXPECT_EQ(ps.id[i], i);
    }
}

TEST(Lattice, JitterStaysInBoxAndIsDeterministic)
{
    ParticleSetD a, b;
    Box<double> box{{0, 0, 0}, {1, 1, 1}, true, true, false};
    cubicLattice(a, 8, 8, 8, box);
    cubicLattice(b, 8, 8, 8, box);
    jitterPositions(a, box, 1.0 / 8, 0.3, 42);
    jitterPositions(b, box, 1.0 / 8, 0.3, 42);
    for (std::size_t i = 0; i < a.size(); ++i)
    {
        EXPECT_TRUE(box.contains({a.x[i], a.y[i], a.z[i]}) ||
                    (a.z[i] >= box.lo.z && a.z[i] < box.hi.z));
        EXPECT_DOUBLE_EQ(a.x[i], b.x[i]); // determinism
    }
}

// --- square patch --------------------------------------------------------------

TEST(SquarePatch, PaperConfiguration)
{
    // scaled-down version of the paper's [100 x 100] x 100 layout
    ParticleSetD ps;
    SquarePatchConfig<double> cfg;
    cfg.nx = 20;
    cfg.ny = 20;
    cfg.nz = 10;
    auto setup = makeSquarePatch(ps, cfg);

    EXPECT_EQ(ps.size(), 4000u);
    EXPECT_TRUE(setup.box.pbc[2]);  // periodic in Z (paper Sec. 5.1)
    EXPECT_FALSE(setup.box.pbc[0]);
    EXPECT_FALSE(setup.box.pbc[1]);
    // total mass = rho0 * volume
    double mtot = 0;
    for (auto m : ps.m)
        mtot += m;
    EXPECT_NEAR(mtot, 1.0 * 1.0 * 1.0 * (10.0 / 20.0), 1e-12);
}

TEST(SquarePatch, RigidRotationField)
{
    ParticleSetD ps;
    SquarePatchConfig<double> cfg;
    cfg.nx = cfg.ny = 16;
    cfg.nz = 4;
    makeSquarePatch(ps, cfg);

    // paper eq. 1: vx = w y, vy = -w x
    for (std::size_t i = 0; i < ps.size(); i += 7)
    {
        EXPECT_DOUBLE_EQ(ps.vx[i], 5.0 * ps.y[i]);
        EXPECT_DOUBLE_EQ(ps.vy[i], -5.0 * ps.x[i]);
        EXPECT_DOUBLE_EQ(ps.vz[i], 0.0);
    }
    // the field is a rigid rotation: |v| = w r
    for (std::size_t i = 0; i < ps.size(); i += 11)
    {
        double r = std::hypot(ps.x[i], ps.y[i]);
        double v = std::hypot(ps.vx[i], ps.vy[i]);
        EXPECT_NEAR(v, 5.0 * r, 1e-12);
    }
}

TEST(SquarePatch, InitialPressureNegativeInside)
{
    ParticleSetD ps;
    SquarePatchConfig<double> cfg;
    cfg.nx = cfg.ny = 16;
    cfg.nz = 4;
    makeSquarePatch(ps, cfg);

    // center particle has the most negative pressure; boundary near zero
    double pMin = 1e30, pMax = -1e30;
    for (std::size_t i = 0; i < ps.size(); ++i)
    {
        pMin = std::min(pMin, ps.p[i]);
        pMax = std::max(pMax, ps.p[i]);
    }
    EXPECT_LT(pMin, 0.0);
    EXPECT_LT(pMax, 0.05 * std::abs(pMin)); // nothing strongly positive
}

TEST(SquarePatch, IndependentOfZ)
{
    // "The initial conditions are the same for all layers" (paper Sec. 5.1)
    ParticleSetD ps;
    SquarePatchConfig<double> cfg;
    cfg.nx = cfg.ny = 8;
    cfg.nz = 4;
    makeSquarePatch(ps, cfg);
    std::size_t perLayer = 64;
    for (std::size_t i = 0; i < perLayer; ++i)
    {
        for (std::size_t layer = 1; layer < 4; ++layer)
        {
            std::size_t j = layer * perLayer + i;
            EXPECT_DOUBLE_EQ(ps.x[i], ps.x[j]);
            EXPECT_DOUBLE_EQ(ps.y[i], ps.y[j]);
            EXPECT_DOUBLE_EQ(ps.vx[i], ps.vx[j]);
            EXPECT_DOUBLE_EQ(ps.p[i], ps.p[j]);
        }
    }
}

TEST(SquarePatch, WeaklyCompressibleSoundSpeed)
{
    ParticleSetD ps;
    SquarePatchConfig<double> cfg;
    cfg.nx = cfg.ny = 8;
    cfg.nz = 2;
    auto setup = makeSquarePatch(ps, cfg);
    double vmax = 5.0 * std::numbers::sqrt2 / 2.0;
    EXPECT_NEAR(setup.eos.referenceSoundSpeed(), 10 * vmax, 1e-12);
}

// --- Evrard --------------------------------------------------------------------

TEST(Evrard, DensityProfileIsOneOverR)
{
    ParticleSetD ps;
    EvrardConfig<double> cfg;
    cfg.nSide = 30;
    auto setup = makeEvrard(ps, cfg);
    ASSERT_GT(setup.nParticles, 10000u);

    // radial mass profile: M(<r) = M r^2 / R^2 for rho ~ 1/r
    for (double r : {0.3, 0.5, 0.7, 0.9})
    {
        double enclosed = 0;
        for (std::size_t i = 0; i < ps.size(); ++i)
        {
            double ri = std::sqrt(ps.x[i] * ps.x[i] + ps.y[i] * ps.y[i] +
                                  ps.z[i] * ps.z[i]);
            if (ri < r) enclosed += ps.m[i];
        }
        EXPECT_NEAR(enclosed, r * r, 0.05) << "r=" << r;
    }
}

TEST(Evrard, TotalMassAndStaticStart)
{
    ParticleSetD ps;
    EvrardConfig<double> cfg;
    cfg.nSide = 20;
    makeEvrard(ps, cfg);
    double mtot = 0;
    for (std::size_t i = 0; i < ps.size(); ++i)
    {
        mtot += ps.m[i];
        EXPECT_DOUBLE_EQ(ps.vx[i], 0.0);
        EXPECT_DOUBLE_EQ(ps.vy[i], 0.0);
        EXPECT_DOUBLE_EQ(ps.vz[i], 0.0);
        EXPECT_DOUBLE_EQ(ps.u[i], 0.05); // paper: u0 = 0.05
    }
    EXPECT_NEAR(mtot, 1.0, 1e-12);
}

TEST(Evrard, AllInsideUnitSphere)
{
    ParticleSetD ps;
    EvrardConfig<double> cfg;
    cfg.nSide = 20;
    makeEvrard(ps, cfg);
    for (std::size_t i = 0; i < ps.size(); ++i)
    {
        double r = std::sqrt(ps.x[i] * ps.x[i] + ps.y[i] * ps.y[i] + ps.z[i] * ps.z[i]);
        EXPECT_LT(r, 1.0 + 1e-12);
    }
}

TEST(Evrard, GravitationalEnergyDominates)
{
    // the paper: "the gravitational energy is much larger than the internal
    // energy and the system collapses naturally":
    // |U| = 2/3 G M^2/R = 0.667 vs Eint = M u0 = 0.05.
    double U = evrardAnalyticPotentialEnergy<double>(1, 1, 1);
    EXPECT_NEAR(U, -2.0 / 3.0, 1e-12);
    EXPECT_GT(std::abs(U), 10 * 0.05);
}

// --- Sedov ----------------------------------------------------------------------

TEST(Sedov, EnergyInjectionConservesTotal)
{
    ParticleSetD ps;
    SedovConfig<double> cfg;
    cfg.nSide = 20;
    makeSedov(ps, cfg);
    double etot = 0;
    for (std::size_t i = 0; i < ps.size(); ++i)
        etot += ps.m[i] * ps.u[i];
    // background energy is negligible; injected energy ~ cfg.energy
    EXPECT_NEAR(etot, 1.0, 0.01);
}

TEST(Sedov, EnergyConcentratedAtCenter)
{
    ParticleSetD ps;
    SedovConfig<double> cfg;
    cfg.nSide = 20;
    makeSedov(ps, cfg);
    double uCenterMax = 0, uEdgeMax = 0;
    for (std::size_t i = 0; i < ps.size(); ++i)
    {
        double r = std::sqrt(ps.x[i] * ps.x[i] + ps.y[i] * ps.y[i] + ps.z[i] * ps.z[i]);
        if (r < 0.1) uCenterMax = std::max(uCenterMax, ps.u[i]);
        if (r > 0.3) uEdgeMax = std::max(uEdgeMax, ps.u[i]);
    }
    EXPECT_GT(uCenterMax, 1e3 * uEdgeMax);
}

TEST(Sedov, ShockRadiusScaling)
{
    // R(t) ~ t^{2/5}
    double r1 = sedovShockRadius<double>(0.01, 1.0, 1.0);
    double r2 = sedovShockRadius<double>(0.02, 1.0, 1.0);
    EXPECT_NEAR(r2 / r1, std::pow(2.0, 0.4), 1e-12);
}

TEST(Sedov, IntegratedRunTracksSimilaritySolution)
{
    // End-to-end regression: evolve the blast and compare the measured
    // shock shell (mean radius of the densest 2% of particles) against the
    // analytic R(t). Coarser than the golden gallery's gate (small N), so
    // the band is wider; the growth between probes must still be monotone.
    ParticleSetD ps;
    SedovConfig<double> cfg;
    cfg.nSide = 16;
    auto setup = makeSedov(ps, cfg);

    SimulationConfig<double> sc;
    sc.targetNeighbors    = 50;
    sc.neighborTolerance  = 10;
    sc.timestep.initialDt = 1e-6;
    Simulation<double> sim(std::move(ps), setup.box, Eos<double>(setup.eos), sc);
    sim.computeForces();

    auto shellRadius = [](const ParticleSetD& p) {
        std::vector<std::size_t> idx(p.size());
        std::iota(idx.begin(), idx.end(), std::size_t{0});
        std::size_t k = std::max<std::size_t>(32, p.size() / 50);
        std::partial_sort(idx.begin(), idx.begin() + k, idx.end(),
                          [&](auto a, auto b) { return p.rho[a] > p.rho[b]; });
        double sum = 0;
        for (std::size_t j = 0; j < k; ++j)
        {
            auto i = idx[j];
            sum += std::sqrt(p.x[i] * p.x[i] + p.y[i] * p.y[i] + p.z[i] * p.z[i]);
        }
        return sum / double(k);
    };

    double prev = 0;
    for (double tProbe : {0.01, 0.02})
    {
        int guard = 0;
        while (sim.time() < tProbe && guard++ < 500)
            sim.advance();
        double measured = shellRadius(sim.particles());
        double analytic = sedovShockRadius(sim.time(), cfg.energy, cfg.rho0);
        EXPECT_NEAR(measured, analytic, 0.35 * analytic) << "t=" << sim.time();
        EXPECT_GT(measured, prev);
        prev = measured;
    }
}

// --- dam break ------------------------------------------------------------------

TEST(DamBreak, HydrostaticColumnMatchesInverseTait)
{
    ParticleSetD ps;
    DamBreakConfig<double> cfg;
    cfg.nx = cfg.ny = 12;
    cfg.nz = 4;
    auto setup = makeDamBreak(ps, cfg);

    EXPECT_TRUE(setup.box.pbc[2]); // quasi-2D: periodic in z only
    EXPECT_FALSE(setup.box.pbc[0]);
    EXPECT_NEAR(setup.surgeSpeed, 2.0 * std::sqrt(cfg.g * cfg.columnHeight), 1e-12);

    double mtot = 0;
    for (std::size_t i = 0; i < ps.size(); ++i)
    {
        mtot += ps.m[i];
        // hydrostatic pressure, and the EOS must reproduce it exactly from
        // the planted density (the inverse-Tait construction)
        EXPECT_NEAR(ps.p[i], cfg.rho0 * cfg.g * (cfg.columnHeight - ps.y[i]), 1e-12);
        EXPECT_NEAR(setup.eos(ps.rho[i], 0.0).pressure, ps.p[i], 1e-9) << i;
        EXPECT_LE(ps.x[i], cfg.columnWidth); // column, not the whole tank
    }
    EXPECT_NEAR(mtot, cfg.rho0 * cfg.columnWidth * cfg.columnHeight * cfg.depth, 1e-12);
}

TEST(DamBreak, ConfigSelectsWcsphPipelineWallsAndGravity)
{
    ParticleSetD ps;
    DamBreakConfig<double> cfg;
    auto setup = makeDamBreak(ps, cfg);
    auto sc    = damBreakConfig(cfg, setup);

    ASSERT_TRUE(sc.taitEos.has_value());
    EXPECT_TRUE(sc.boundaries.wallLo[0]);  // dam-side wall
    EXPECT_TRUE(sc.boundaries.wallLo[1]);  // floor
    EXPECT_TRUE(sc.boundaries.wallHi[0]);  // far wall
    EXPECT_FALSE(sc.boundaries.wallHi[1]); // open top
    EXPECT_FALSE(sc.boundaries.wallLo[2]); // periodic z: no wall
    EXPECT_DOUBLE_EQ(sc.constantAccel.y, -cfg.g);
    EXPECT_DOUBLE_EQ(sc.taitEos->referenceSoundSpeed(), setup.eos.referenceSoundSpeed());
    EXPECT_DOUBLE_EQ(sc.taitEos->pressureFloor(), 0.0); // free surface: no tension
}

TEST(DamBreak, RitterFrontIsLinearInTime)
{
    double x1 = ritterFrontPosition(0.1, 0.5, 1.0, 1.0);
    double x2 = ritterFrontPosition(0.2, 0.5, 1.0, 1.0);
    EXPECT_NEAR(x1, 0.5 + 2.0 * 0.1, 1e-12);
    EXPECT_NEAR(x2 - x1, x1 - 0.5, 1e-12); // constant front speed
}
