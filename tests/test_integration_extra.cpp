/// Cross-substrate integration tests:
///  - checkpoint/restart continuation: a restarted simulation continues
///    bit-identically to an uninterrupted one (the property production
///    checkpoint/restart must guarantee);
///  - distributed Evrard (with replicated-tree gravity) matches the
///    shared-memory driver and conserves energy;
///  - conservation property sweep across all kernel families and both
///    gradient modes on the square patch;
///  - Sedov blast end-to-end: energy conservation and outward shock motion;
///  - SDC detectors wired to a live simulation catch injected corruption.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

#include "core/code_profiles.hpp"
#include "core/simulation.hpp"
#include "domain/distributed.hpp"
#include "ft/checkpoint.hpp"
#include "ft/sdc.hpp"
#include "ic/evrard.hpp"
#include "ic/sedov.hpp"
#include "ic/square_patch.hpp"
#include "step_variants.hpp"

using namespace sphexa;

namespace {

struct PatchSetup
{
    ParticleSetD ps;
    Box<double> box;
    Eos<double> eos;
    SimulationConfig<double> cfg;
};

PatchSetup makePatch(std::size_t nxy = 14, std::size_t nz = 6)
{
    PatchSetup s;
    SquarePatchConfig<double> ic;
    ic.nx = ic.ny = nxy;
    ic.nz = nz;
    auto setup = makeSquarePatch(s.ps, ic);
    s.box = setup.box;
    s.eos = Eos<double>(setup.eos);
    s.cfg.targetNeighbors = 50;
    s.cfg.neighborTolerance = 10;
    return s;
}

} // namespace

// --- checkpoint/restart continuation -----------------------------------------

TEST(RestartContinuation, RestartedRunMatchesUninterrupted)
{
    auto s = makePatch();

    // reference: run 6 steps straight
    Simulation<double> ref(s.ps, s.box, s.eos, s.cfg);
    ref.computeForces();
    for (int i = 0; i < 6; ++i)
        ref.advance();

    // checkpointed: run 3 steps, checkpoint, restart into a NEW simulation,
    // run 3 more
    Simulation<double> first(s.ps, s.box, s.eos, s.cfg);
    first.computeForces();
    for (int i = 0; i < 3; ++i)
        first.advance();

    auto dir = std::filesystem::temp_directory_path() / "sphexa_restart_test";
    std::filesystem::remove_all(dir);
    Checkpointer<double> ck(dir);
    ck.write(CheckpointLevel::Disk, first.particles(), first.time(), first.step());
    double vsig = first.maxVsignal(); // checkpoint metadata

    auto restored = ck.restore();
    ASSERT_TRUE(restored.has_value());
    EXPECT_EQ(restored->step, 3u);

    Simulation<double> resumed(restored->particles, s.box, s.eos, s.cfg);
    resumed.restoreFromCheckpoint(restored->time, restored->step, 0.0, vsig);
    for (int i = 0; i < 3; ++i)
        resumed.advance();
    EXPECT_EQ(resumed.step(), 6u);
    EXPECT_DOUBLE_EQ(resumed.time(), ref.time());

    // the restored state is bit-identical, so the continuation matches the
    // uninterrupted run exactly (deterministic kernels, same thread-safe
    // accumulation order per particle)
    const auto& a = ref.particles();
    const auto& b = resumed.particles();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); i += 7)
    {
        EXPECT_DOUBLE_EQ(a.x[i], b.x[i]) << i;
        EXPECT_DOUBLE_EQ(a.vx[i], b.vx[i]) << i;
        EXPECT_DOUBLE_EQ(a.u[i], b.u[i]) << i;
    }
}

// --- distributed Evrard with gravity -------------------------------------------

TEST(DistributedGravity, MatchesSharedMemoryDriver)
{
    ParticleSetD ps;
    EvrardConfig<double> ic;
    ic.nSide = 14;
    auto setup = makeEvrard(ps, ic);

    SimulationConfig<double> cfg;
    cfg.selfGravity       = true;
    cfg.gravity.G         = 1;
    cfg.gravity.theta     = 0.5;
    cfg.gravity.softening = 0.02;
    cfg.targetNeighbors   = 50;
    cfg.neighborTolerance = 10;

    // phase D off, as on the distributed driver's Subset walks
    Simulation<double> shared(ps, setup.box, Eos<double>(setup.eos), cfg);
    shared.setPipeline(withoutMissingPairs(shared.pipeline()));
    DistributedSimulation<double> dist(ps, setup.box, Eos<double>(setup.eos), cfg, 4);

    shared.computeForces();
    for (int sStep = 0; sStep < 3; ++sStep)
    {
        shared.advance();
        dist.advance();
    }

    auto g = dist.gather(); // id order
    const auto& ref = shared.particles();
    ASSERT_EQ(g.size(), ref.size());
    // join on id: the shared-memory driver stores its set in curve order,
    // so the gather's i-th particle is ref's i-th in id order
    auto refById = ref.idOrder();
    double maxDv = 0;
    for (std::size_t i = 0; i < g.size(); ++i)
    {
        std::size_t j = refById[i];
        ASSERT_EQ(g.id[i], ref.id[j]);
        maxDv = std::max({maxDv, std::abs(g.vx[i] - ref.vx[j]),
                          std::abs(g.vy[i] - ref.vy[j]), std::abs(g.vz[i] - ref.vz[j])});
    }
    // gravity tree differs (replicated global tree vs per-rank local tree
    // in the shared driver they are the same tree here) — tolerance-based
    EXPECT_LT(maxDv, 1e-8);
}

TEST(DistributedGravity, EnergyConserved)
{
    ParticleSetD ps;
    EvrardConfig<double> ic;
    ic.nSide = 14;
    auto setup = makeEvrard(ps, ic);

    SimulationConfig<double> cfg;
    cfg.selfGravity       = true;
    cfg.gravity.G         = 1;
    cfg.gravity.theta     = 0.5;
    cfg.gravity.softening = 0.02;
    cfg.targetNeighbors   = 50;

    DistributedSimulation<double> dist(ps, setup.box, Eos<double>(setup.eos), cfg, 3);
    auto c0 = dist.conservation();
    for (int s = 0; s < 8; ++s)
        dist.advance();
    auto c1 = dist.conservation();
    EXPECT_NEAR(c1.totalEnergy(), c0.totalEnergy(),
                0.02 * std::abs(c0.potentialEnergy));
    EXPECT_GT(c1.kineticEnergy, 0.0); // collapsing
}

// --- conservation across kernels x gradients -------------------------------------

class KernelGradientSweep
    : public ::testing::TestWithParam<std::tuple<KernelType, GradientMode>>
{
};

TEST_P(KernelGradientSweep, SquarePatchConservesMomentumAndEnergy)
{
    auto [kernel, gradients] = GetParam();
    auto s = makePatch(12, 6);
    s.cfg.kernel    = kernel;
    s.cfg.gradients = gradients;

    Simulation<double> sim(s.ps, s.box, s.eos, s.cfg);
    sim.computeForces();
    auto c0 = sim.conservation();
    sim.run(5);
    auto c1 = sim.conservation();

    double scale = std::abs(c0.angularMomentum.z);
    EXPECT_LT(norm(c1.momentum - c0.momentum), 1e-6 * scale)
        << kernelName(kernel) << "/" << gradientModeName(gradients);
    EXPECT_NEAR(c1.totalEnergy(), c0.totalEnergy(), 0.05 * c0.totalEnergy());
    EXPECT_NEAR(c1.angularMomentum.z, c0.angularMomentum.z, 2e-3 * scale);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, KernelGradientSweep,
    ::testing::Combine(::testing::Values(KernelType::Sinc, KernelType::CubicSpline,
                                         KernelType::WendlandC2),
                       ::testing::Values(GradientMode::KernelDerivative,
                                         GradientMode::IAD)));

// --- Sedov blast end-to-end ---------------------------------------------------------

TEST(SedovIntegration, ShockExpandsAndEnergyConserved)
{
    ParticleSetD ps;
    SedovConfig<double> ic;
    ic.nSide = 16;
    auto setup = makeSedov(ps, ic);

    SimulationConfig<double> cfg = sphexaProfile<double>().config;
    cfg.selfGravity         = false;
    cfg.targetNeighbors     = 50;
    cfg.neighborTolerance   = 10;
    cfg.timestep.cflCourant = 0.2;

    Simulation<double> sim(std::move(ps), setup.box, Eos<double>(setup.eos), cfg);
    sim.computeForces();
    auto c0 = sim.conservation();
    EXPECT_NEAR(c0.internalEnergy, 1.0, 0.02); // injected energy

    sim.run(15);
    auto c1 = sim.conservation();
    // energy converts from internal to kinetic but the total is conserved
    EXPECT_GT(c1.kineticEnergy, 1e-4);
    EXPECT_NEAR(c1.totalEnergy(), c0.totalEnergy(), 0.02 * c0.totalEnergy());

    // material moves outward near the blast
    const auto& fin = sim.particles();
    double outward = 0;
    for (std::size_t i = 0; i < fin.size(); ++i)
    {
        outward += fin.x[i] * fin.vx[i] + fin.y[i] * fin.vy[i] + fin.z[i] * fin.vz[i];
    }
    EXPECT_GT(outward, 0.0);
}

// --- SDC detection on a live simulation -----------------------------------------------

TEST(SdcLive, InjectedCorruptionCaughtMidRun)
{
    auto s = makePatch(12, 6);
    Simulation<double> sim(s.ps, s.box, s.eos, s.cfg);
    sim.computeForces();
    sim.run(2);

    TemporalDetector<double> temporal({"x", "y", "z", "rho", "h"}, 0.5);
    temporal.snapshot(sim.particles());
    RangeDetector<double> range;

    // clean step: smooth evolution stays under the temporal threshold
    sim.advance();
    EXPECT_TRUE(range.scan(sim.particles()).empty());
    EXPECT_TRUE(temporal.scan(sim.particles()).empty());

    // corrupt a position exponent bit, as a DRAM flip would
    temporal.snapshot(sim.particles());
    SdcInjector<double> inj{"x", 77, 60};
    inj.inject(sim.particles());
    bool caught = !range.scan(sim.particles()).empty() ||
                  !temporal.scan(sim.particles()).empty();
    EXPECT_TRUE(caught);
}

// --- float instantiation of the full pipeline ------------------------------------------

TEST(FloatPipeline, RunsAndStaysFinite)
{
    // the library is templated on Real; the mini-app mandates 64-bit, but
    // the 32-bit instantiation must compile and run (GPU-readiness)
    ParticleSet<float> ps;
    SquarePatchConfig<float> ic;
    ic.nx = ic.ny = 10;
    ic.nz = 4;
    auto setup = makeSquarePatch(ps, ic);
    SimulationConfig<float> cfg;
    cfg.targetNeighbors = 40;
    cfg.neighborTolerance = 10;

    Simulation<float> sim(std::move(ps), setup.box, Eos<float>(setup.eos), cfg);
    sim.computeForces();
    auto rep = sim.advance();
    EXPECT_GT(rep.dt, 0.f);
    auto c = sim.conservation();
    EXPECT_TRUE(std::isfinite(c.kineticEnergy));
    EXPECT_TRUE(std::isfinite(c.totalEnergy()));
}
