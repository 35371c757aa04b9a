/// End-to-end integration tests of the Simulation driver on the paper's two
/// test cases (scaled down): the rotating square patch and the Evrard
/// collapse, plus time-step control, integrator behaviour and the
/// parent-code profiles.

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "core/code_profiles.hpp"
#include "core/simulation.hpp"
#include "ic/evrard.hpp"
#include "ic/sedov.hpp"
#include "ic/square_patch.hpp"
#include "math/rng.hpp"

using namespace sphexa;

namespace {

Simulation<double> makeSquarePatchSim(std::size_t nxy = 16, std::size_t nz = 8,
                                      SimulationConfig<double> cfg = {})
{
    ParticleSetD ps;
    SquarePatchConfig<double> pc;
    pc.nx = pc.ny = nxy;
    pc.nz = nz;
    auto setup = makeSquarePatch(ps, pc);
    cfg.targetNeighbors = 60;
    cfg.neighborTolerance = 10;
    return Simulation<double>(std::move(ps), setup.box, Eos<double>(setup.eos), cfg);
}

Simulation<double> makeEvrardSim(std::size_t nSide = 16, SimulationConfig<double> cfg = {})
{
    ParticleSetD ps;
    EvrardConfig<double> ec;
    ec.nSide = nSide;
    auto setup = makeEvrard(ps, ec);
    cfg.selfGravity = true;
    cfg.gravity.G = 1.0;
    cfg.gravity.theta = 0.5;
    cfg.gravity.softening = 0.02;
    cfg.targetNeighbors = 60;
    cfg.neighborTolerance = 10;
    return Simulation<double>(std::move(ps), setup.box, Eos<double>(setup.eos), cfg);
}

} // namespace

TEST(Simulation, RejectsEmptyParticleSet)
{
    ParticleSetD ps;
    Box<double> box{{0, 0, 0}, {1, 1, 1}};
    EXPECT_THROW(Simulation<double>(std::move(ps), box, {}, {}),
                 std::invalid_argument);
}

TEST(Simulation, SquarePatchConservation)
{
    auto sim = makeSquarePatchSim();
    auto c0 = [&] {
        sim.computeForces();
        return sim.conservation();
    }();

    sim.run(10);
    auto c1 = sim.conservation();

    // mass exactly conserved
    EXPECT_DOUBLE_EQ(c1.mass, c0.mass);
    // momentum conserved (starts at ~0 by symmetry): bounded drift relative
    // to the angular-momentum scale
    double scale = std::abs(c0.angularMomentum.z);
    EXPECT_LT(norm(c1.momentum), 1e-6 * scale);
    // angular momentum about z: conserved to integration accuracy
    EXPECT_NEAR(c1.angularMomentum.z, c0.angularMomentum.z, 2e-3 * scale);
}

TEST(Simulation, SquarePatchKeepsRotating)
{
    auto sim = makeSquarePatchSim();
    sim.computeForces();
    auto c0 = sim.conservation();
    sim.run(10);
    const auto& ps = sim.particles();
    auto c = sim.conservation();
    // total energy (kinetic + compression work tracked in u) conserved
    EXPECT_NEAR(c.totalEnergy(), c0.totalEnergy(), 0.05 * c0.totalEnergy());
    // the bulk (interior, away from the free surface) still rotates rigidly
    double w = 5.0;
    std::size_t ok = 0, total = 0;
    for (std::size_t i = 0; i < ps.size(); i += 13)
    {
        double r = std::hypot(ps.x[i], ps.y[i]);
        if (r < 0.1 || r > 0.3) continue;
        double v = std::hypot(ps.vx[i], ps.vy[i]);
        if (std::abs(v - w * r) < 0.35 * w * r) ++ok;
        ++total;
    }
    ASSERT_GT(total, 10u);
    EXPECT_GT(double(ok) / double(total), 0.8);
}

TEST(Simulation, SquarePatchStepReportPhases)
{
    auto sim = makeSquarePatchSim();
    auto rep = sim.advance();
    EXPECT_GT(rep.dt, 0.0);
    EXPECT_EQ(rep.step, 1u);
    EXPECT_GT(rep.neighborInteractions, 0u);
    // all compute phases took measurable (>= 0) time; tree build & density &
    // momentum strictly positive
    EXPECT_GT(rep.phaseSeconds[int(Phase::A_TreeBuild)], 0.0);
    EXPECT_GT(rep.phaseSeconds[int(Phase::E_Density)], 0.0);
    EXPECT_GT(rep.phaseSeconds[int(Phase::H_MomentumEnergy)], 0.0);
    // no gravity for the square patch
    EXPECT_EQ(rep.gravityStats.p2pInteractions, 0u);
}

TEST(Simulation, EvrardCollapseStarts)
{
    auto sim = makeEvrardSim();
    sim.computeForces();
    auto c0 = sim.conservation();
    // potential energy near the analytic -2/3 (SPH softening shifts it a bit)
    EXPECT_NEAR(c0.potentialEnergy, -2.0 / 3.0, 0.08);
    EXPECT_NEAR(c0.internalEnergy, 0.05, 1e-10);
    EXPECT_NEAR(c0.kineticEnergy, 0.0, 1e-20);

    sim.run(10);
    auto c1 = sim.conservation();
    // collapse: kinetic energy grows, potential decreases (more bound)
    EXPECT_GT(c1.kineticEnergy, 1e-6);
    EXPECT_LT(c1.potentialEnergy, c0.potentialEnergy);
    // total energy conserved within integration error
    EXPECT_NEAR(c1.totalEnergy(), c0.totalEnergy(), 0.01 * std::abs(c0.totalEnergy()));
    // momentum stays ~0 (spherical symmetry)
    EXPECT_LT(norm(c1.momentum), 1e-4);
}

TEST(Simulation, EvrardInfall)
{
    auto sim = makeEvrardSim();
    // mean radius decreases as the sphere collapses
    auto meanR = [&] {
        const auto& ps = sim.particles();
        double s = 0;
        for (std::size_t i = 0; i < ps.size(); ++i)
            s += std::sqrt(ps.x[i] * ps.x[i] + ps.y[i] * ps.y[i] + ps.z[i] * ps.z[i]);
        return s / double(ps.size());
    };
    double r0 = meanR();
    sim.run(15);
    EXPECT_LT(meanR(), r0);
}

TEST(Simulation, GravityPhasePresentOnlyWithSelfGravity)
{
    auto noGrav = makeSquarePatchSim();
    auto rep1 = noGrav.advance();
    EXPECT_EQ(rep1.gravityStats.m2pInteractions, 0u);

    auto withGrav = makeEvrardSim();
    auto rep2 = withGrav.advance();
    EXPECT_GT(rep2.gravityStats.m2pInteractions, 0u);
}

// --- time-stepping modes ---------------------------------------------------------

TEST(Timestepping, GlobalDtIsMinimum)
{
    SimulationConfig<double> cfg;
    cfg.timestep.mode = TimesteppingMode::Global;
    auto sim = makeSquarePatchSim(12, 6, cfg);
    auto rep = sim.advance();
    const auto& ps = sim.particles();
    for (std::size_t i = 0; i < ps.size(); ++i)
    {
        EXPECT_GE(ps.dt[i], rep.dt * 0.999);
    }
}

TEST(Timestepping, AdaptiveGrowthLimited)
{
    SimulationConfig<double> cfg;
    cfg.timestep.mode = TimesteppingMode::Adaptive;
    cfg.timestep.maxGrowth = 1.1;
    cfg.timestep.initialDt = 1e-9; // tiny start; growth must be bounded
    auto sim = makeSquarePatchSim(12, 6, cfg);
    double prev = 0;
    for (int s = 0; s < 5; ++s)
    {
        auto rep = sim.advance();
        if (prev > 0)
        {
            EXPECT_LE(rep.dt, prev * 1.1 * 1.0001) << "step " << s;
        }
        prev = rep.dt;
    }
}

TEST(Timestepping, IndividualBinsReduceActiveSet)
{
    SimulationConfig<double> cfg;
    cfg.timestep.mode = TimesteppingMode::Individual;
    cfg.neighborMode = NeighborMode::IndividualTreeWalk;
    auto sim = makeEvrardSim(14, cfg);
    // run a few steps; after binning, later steps should have fewer active
    // particles than the total (the Evrard profile has a wide dt range)
    sim.advance();
    std::size_t minActive = sim.particles().size();
    for (int s = 0; s < 6; ++s)
    {
        auto rep = sim.advance();
        minActive = std::min(minActive, rep.activeParticles);
    }
    EXPECT_LT(minActive, sim.particles().size());
}

TEST(Timestepping, BinsArePowersOfTwo)
{
    TimestepParams<double> par;
    par.mode = TimesteppingMode::Individual;
    par.maxBins = 4;
    TimestepController<double> ctl(par);
    ParticleSetD ps(6);
    // synthetic per-particle dt via c/h: set fields the controller reads
    for (std::size_t i = 0; i < 6; ++i)
    {
        ps.h[i] = 0.1 * double(1 << i); // dt ~ h
        ps.c[i] = 1.0;
    }
    // the first advance is the flat initial-dt ramp (every bin 0); the
    // second is a full synchronization that derives the real hierarchy
    ctl.advance(ps, 1.0);
    for (std::size_t i = 0; i < 6; ++i)
    {
        EXPECT_EQ(ps.bin[i], 0) << "first step must be flat";
    }
    ctl.advance(ps, 1.0);
    for (std::size_t i = 0; i < 6; ++i)
    {
        EXPECT_GE(ps.bin[i], 0);
        EXPECT_LE(ps.bin[i], 4);
        // snapped per-particle step: exactly baseDt * 2^bin
        EXPECT_DOUBLE_EQ(ps.dt[i], ctl.baseDt() * double(1 << ps.bin[i]));
    }
    // larger h -> larger dt -> larger or equal bin, and the factor-32 h
    // spread must actually populate distinct bins
    for (std::size_t i = 1; i < 6; ++i)
    {
        EXPECT_GE(ps.bin[i], ps.bin[i - 1]);
    }
    EXPECT_GT(ps.bin[5], ps.bin[0]);
    EXPECT_EQ(ctl.maxUsedBin(), ps.bin[5]);
}

TEST(Timestepping, CommittedMinOfTwoHalvesIsTheWholeSetsStep)
{
    // the distributed driver's dt: candidateMin over each part of a split
    // set, then one commit of their min, must be advance() over the whole
    // set bit for bit, every step and every ps.dt[i], in both global modes.
    // h is rescaled each step so the initialDt clamp (step 0), the Adaptive
    // growth cap and the candidate minimum all set some step
    const std::size_t n = 40, half = 17;
    const double hScale[] = {1.0, 0.6, 1.5, 0.5, 2.0};
    std::vector<std::size_t> first(half), second(n - half);
    std::iota(first.begin(), first.end(), std::size_t(0));
    std::iota(second.begin(), second.end(), half);
    for (auto mode : {TimesteppingMode::Global, TimesteppingMode::Adaptive})
    {
        SCOPED_TRACE(timesteppingName(mode));
        TimestepParams<double> par;
        par.mode      = mode;
        par.initialDt = 0.005;
        TimestepController<double> whole(par), split(par);
        ParticleSetD ps(n);
        std::size_t capped = 0, minSet = 0;
        for (int s = 0; s < 5; ++s)
        {
            Xoshiro256pp rng(11);
            for (std::size_t i = 0; i < n; ++i)
            {
                ps.h[i]  = hScale[s] * (0.05 + 0.1 * rng.uniform());
                ps.c[i]  = 0.5 + rng.uniform();
                ps.ax[i] = rng.uniform() - 0.5;
                ps.ay[i] = rng.uniform() - 0.5;
                ps.az[i] = rng.uniform() - 0.5;
            }
            auto a = ps.gather(first), b = ps.gather(second);
            double prev = whole.currentDt();
            double dt   = whole.advance(ps, 1.0);
            double dtSplit =
                split.commit(std::min(split.candidateMin(a, 1.0, a.dt),
                                      split.candidateMin(b, 1.0, b.dt)));
            ASSERT_EQ(dtSplit, dt) << "step " << s;
            EXPECT_EQ(split.stepCount(), whole.stepCount());
            for (std::size_t i = 0; i < n; ++i)
                ASSERT_EQ(i < half ? a.dt[i] : b.dt[i - half], ps.dt[i]) << "particle " << i;
            if (s == 0)
                EXPECT_EQ(dt, par.initialDt);
            else
                ++(dt == prev * par.maxGrowth ? capped : minSet);
        }
        EXPECT_EQ(capped > 0, mode == TimesteppingMode::Adaptive);
        EXPECT_GT(minSet, 0u);
    }

    TimestepParams<double> individual;
    individual.mode = TimesteppingMode::Individual;
    TimestepController<double> binned(individual);
    EXPECT_THROW(binned.commit(1.0), std::logic_error);
}

// --- parent-code profiles ----------------------------------------------------------

TEST(CodeProfiles, MatchTable1)
{
    auto sphynx = sphynxProfile<double>();
    EXPECT_EQ(sphynx.config.kernel, KernelType::Sinc);
    EXPECT_EQ(sphynx.config.gradients, GradientMode::IAD);
    EXPECT_EQ(sphynx.config.volumeElements, VolumeElements::Generalized);
    EXPECT_EQ(sphynx.config.timestep.mode, TimesteppingMode::Global);
    EXPECT_EQ(sphynx.config.gravity.order, MultipoleOrder::Quadrupole);
    EXPECT_EQ(sphynx.linesOfCode, 25000u);

    auto changa = changaProfile<double>();
    EXPECT_EQ(changa.config.gradients, GradientMode::KernelDerivative);
    EXPECT_EQ(changa.config.timestep.mode, TimesteppingMode::Individual);
    EXPECT_EQ(changa.config.gravity.order, MultipoleOrder::Hexadecapole);
    EXPECT_EQ(changa.linesOfCode, 110000u);

    auto sphflow = sphflowProfile<double>();
    EXPECT_FALSE(sphflow.config.selfGravity);
    EXPECT_EQ(sphflow.config.timestep.mode, TimesteppingMode::Adaptive);
    EXPECT_EQ(sphflow.config.decomposition,
              DecompositionMethod::OrthogonalRecursiveBisection);
    EXPECT_EQ(sphflow.linesOfCode, 37000u);
}

TEST(CodeProfiles, AllProfilesRunTheSquarePatch)
{
    for (auto& profile : parentProfiles<double>())
    {
        SimulationConfig<double> cfg = profile.config;
        cfg.selfGravity = false; // square patch has no gravity
        auto sim = makeSquarePatchSim(10, 4, cfg);
        auto rep = sim.advance();
        EXPECT_GT(rep.dt, 0.0) << profile.name;
        auto c = sim.conservation();
        EXPECT_TRUE(std::isfinite(c.kineticEnergy)) << profile.name;
    }
}

TEST(CodeProfiles, SphexaProfileUnionFeatures)
{
    auto p = sphexaProfile<double>();
    EXPECT_EQ(p.kernelDesc, "Sinc, M4 spline, Wendland");
    EXPECT_EQ(p.gradientsDesc, "IAD, Kernel derivatives");
    EXPECT_EQ(p.loadBalancing, LoadBalancingStrategy::DlbSelfScheduling);
}

// --- integrator ------------------------------------------------------------------

TEST(Integrator, ConstantAccelerationParabola)
{
    ParticleSetD ps(1);
    ps.x[0] = 0;
    ps.vx[0] = 1.0;
    ps.ax[0] = 2.0;
    Box<double> box{{-100, -100, -100}, {100, 100, 100}};

    double dtStep = 0.1;
    // leapfrog with constant a: exact for quadratic trajectories
    for (int s = 0; s < 10; ++s)
    {
        kickDrift(ps, dtStep, box);
        kickEnergy(ps, dtStep); // a stays 2.0 (no force recompute)
    }
    double t = 1.0;
    EXPECT_NEAR(ps.x[0], 1.0 * t + 0.5 * 2.0 * t * t, 1e-12);
    EXPECT_NEAR(ps.vx[0], 1.0 + 2.0 * t, 1e-12);
}

TEST(Integrator, PeriodicWrap)
{
    ParticleSetD ps(1);
    ps.x[0] = 0.95;
    ps.vx[0] = 1.0;
    Box<double> box{{0, 0, 0}, {1, 1, 1}, true, false, false};
    kickDrift(ps, 0.2, box);
    EXPECT_GE(ps.x[0], 0.0);
    EXPECT_LT(ps.x[0], 1.0);
    EXPECT_NEAR(ps.x[0], 0.15, 1e-12);
}

TEST(Integrator, EnergyFloor)
{
    ParticleSetD ps(1);
    ps.u[0] = 0.01;
    ps.du[0] = -10.0;
    ps.du_m1[0] = -10.0;
    kickEnergy(ps, 1.0);
    EXPECT_GT(ps.u[0], 0.0); // floored, not negative
}
