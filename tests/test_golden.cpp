/// Golden-value validation gallery (ctest label `golden`): every scenario
/// checked against an analytic or published reference, under BOTH phase
/// pipelines (the compressible hydro assembly and the WCSPH assembly with
/// its ghost/body-force brackets), at worker-pool sizes {1, 4} and under
/// both compute backends (Scalar and the Simd lane kernels).
///
/// References:
///  - Sedov-Taylor: R(t) = xi0 (E t^2 / rho0)^{1/5}  (ic/sedov.hpp)
///  - Evrard collapse: U = -2/3 G M^2 / R and total-energy conservation
///  - Square patch: Colagrossi double-sine pressure series (math/series.hpp)
///  - Dam break: Ritter dry-bed surge x(t) = x0 + 2 sqrt(gH) t
///  - Tait/Cole EOS: P = B[(rho/rho0)^gamma - 1], B = c0^2 rho0 / gamma
///
/// The two pipeline legs are physically equivalent for the wall-free,
/// force-free scenarios (the WCSPH assembly's extra phases are no-ops
/// there) — PipelineEquivalence pins that down bitwise. The dam break
/// needs walls to be well-posed, so both its legs run the WCSPH assembly;
/// the compressible/WCSPH contrast is exercised by the other scenarios.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <tuple>
#include <vector>

#include "backend/kernel_backend.hpp"
#include "core/simulation.hpp"
#include "ic/dam_break.hpp"
#include "ic/evrard.hpp"
#include "ic/sedov.hpp"
#include "ic/square_patch.hpp"
#include "math/series.hpp"
#include "parallel/parallel_for.hpp"
#include "sph/eos_wcsph.hpp"
#include "step_variants.hpp"

using namespace sphexa;

namespace {

enum class Leg
{
    Compressible, ///< PipelineFactory::hydro()/hydroGravity() phase list
    Wcsph         ///< PipelineFactory::wcsph(): ghost + body-force brackets
};

const char* legName(Leg leg)
{
    return leg == Leg::Compressible ? "Compressible" : "Wcsph";
}

/// Gallery axis: (worker-pool size, pipeline assembly, compute backend).
class GoldenGallery
    : public ::testing::TestWithParam<std::tuple<std::size_t, Leg, KernelBackend>>
{
protected:
    void SetUp() override
    {
        saved_ = WorkerPool::instance().size();
        WorkerPool::instance().resize(pool());
    }
    void TearDown() override { WorkerPool::instance().resize(saved_); }

    std::size_t pool() const { return std::get<0>(GetParam()); }
    Leg leg() const { return std::get<1>(GetParam()); }
    KernelBackend backend() const { return std::get<2>(GetParam()); }

    /// Route a scenario config through the requested pipeline assembly and
    /// compute backend. The scenario's EOS is passed explicitly, so
    /// switching the mode only switches the phase list — never the physics
    /// closure.
    template<class T>
    SimulationConfig<T> withLeg(SimulationConfig<T> cfg) const
    {
        cfg.hydroMode = leg() == Leg::Wcsph ? HydroMode::WeaklyCompressible
                                            : HydroMode::Compressible;
        cfg.kernelBackend = backend();
        return cfg;
    }

private:
    std::size_t saved_{0};
};

/// Shock-shell radius estimate: mean radius of the densest 2% of particles.
double shockShellRadius(const ParticleSetD& ps)
{
    std::size_t n = ps.size();
    std::vector<std::size_t> idx(n);
    std::iota(idx.begin(), idx.end(), std::size_t{0});
    std::size_t k = std::max<std::size_t>(32, n / 50);
    std::partial_sort(idx.begin(), idx.begin() + k, idx.end(),
                      [&](auto a, auto b) { return ps.rho[a] > ps.rho[b]; });
    double sum = 0;
    for (std::size_t j = 0; j < k; ++j)
    {
        std::size_t i = idx[j];
        sum += std::sqrt(ps.x[i] * ps.x[i] + ps.y[i] * ps.y[i] + ps.z[i] * ps.z[i]);
    }
    return sum / double(k);
}

void advanceTo(Simulation<double>& sim, double tTarget, int maxSteps)
{
    int steps = 0;
    while (sim.time() < tTarget && steps++ < maxSteps)
        sim.advance();
    ASSERT_LT(steps, maxSteps) << "did not reach t=" << tTarget;
}

} // namespace

// --- scenario 1: Sedov-Taylor blast ----------------------------------------

TEST_P(GoldenGallery, SedovShockRadiusMatchesSimilaritySolution)
{
    ParticleSetD ps;
    SedovConfig<double> ic;
    ic.nSide = 20;
    auto setup = makeSedov(ps, ic);

    SimulationConfig<double> cfg;
    cfg.targetNeighbors    = 50;
    cfg.neighborTolerance  = 10;
    cfg.timestep.initialDt = 1e-6; // skip the 1e-7 ramp; CFL takes over
    Simulation<double> sim(std::move(ps), setup.box, Eos<double>(setup.eos),
                           withLeg(cfg));
    sim.computeForces();

    // R(t) = xi0 (E t^2 / rho0)^{1/5}; at this resolution the measured
    // shell tracks the similarity solution within ~10% (calibrated), so a
    // +-25% band is a real physics gate, not a smoke test.
    double prev = 0;
    for (double tProbe : {0.01, 0.02})
    {
        advanceTo(sim, tProbe, 500);
        double measured = shockShellRadius(sim.particles());
        double analytic = sedovShockRadius(sim.time(), ic.energy, ic.rho0);
        EXPECT_NEAR(measured, analytic, 0.25 * analytic)
            << legName(leg()) << " pool=" << pool() << " t=" << sim.time();
        EXPECT_GT(measured, prev); // the shock front must expand
        prev = measured;
    }
}

// --- scenario 2: Evrard collapse -------------------------------------------

TEST_P(GoldenGallery, EvrardEnergyCurvesMatchAnalyticPotential)
{
    ParticleSetD ps;
    EvrardConfig<double> ic;
    ic.nSide = 16;
    auto setup = makeEvrard(ps, ic);

    SimulationConfig<double> cfg;
    cfg.selfGravity       = true;
    cfg.gravity.G         = 1.0;
    cfg.gravity.theta     = 0.5;
    cfg.gravity.softening = 0.02;
    cfg.targetNeighbors   = 60;
    cfg.neighborTolerance = 10;
    Simulation<double> sim(std::move(ps), setup.box, Eos<double>(setup.eos),
                           withLeg(cfg));
    sim.computeForces();

    // initial potential energy vs the analytic -2/3 G M^2 / R of the 1/r
    // sphere (measured: within ~2% at this resolution)
    auto c0 = sim.conservation();
    double analyticU = evrardAnalyticPotentialEnergy<double>(1, 1, 1);
    EXPECT_NEAR(c0.potentialEnergy, analyticU, 0.10 * std::abs(analyticU));
    EXPECT_NEAR(c0.kineticEnergy, 0.0, 1e-12); // static start

    sim.run(10);

    // the cloud collapses: kinetic energy rises, potential deepens, and the
    // total is conserved (measured drift ~4e-5 over this window)
    auto c1 = sim.conservation();
    EXPECT_GT(c1.kineticEnergy, 1e-3);
    EXPECT_LT(c1.potentialEnergy, c0.potentialEnergy);
    EXPECT_NEAR(c1.totalEnergy(), c0.totalEnergy(),
                1e-3 * std::abs(c0.totalEnergy()));
}

// --- scenario 2b: Evrard collapse under binned time-stepping -----------------

TEST_P(GoldenGallery, EvrardIndividualTimesteppingConservesEnergy)
{
    // The Individual (2^k-binned) mode on the dynamic-range scenario it
    // exists for. The Compressible leg runs the binned pipeline proper
    // (active-subset forces + per-particle kicks); the WCSPH leg exercises
    // the documented fallback — Individual bins with a ghost-bracket
    // assembly degenerate to global stepping at the base dt. Both must
    // conserve energy; the pool axis {1, 4} of the gallery doubles as a
    // pool-invariance run of the binned code path.
    ParticleSetD ps;
    EvrardConfig<double> ic;
    ic.nSide = 14;
    auto setup = makeEvrard(ps, ic);

    SimulationConfig<double> cfg;
    cfg.timestep.mode     = TimesteppingMode::Individual;
    cfg.neighborMode      = NeighborMode::IndividualTreeWalk;
    cfg.selfGravity       = true;
    cfg.gravity.G         = 1.0;
    cfg.gravity.theta     = 0.5;
    cfg.gravity.softening = 0.02;
    cfg.targetNeighbors   = 60;
    cfg.neighborTolerance = 10;
    // tighter Courant factor than the 10-step Evrard gate above: this run
    // integrates 24+ steps (and past that, to a full bin synchronization),
    // so secular leapfrog drift needs the extra margin to stay inside the
    // same 1e-3 budget
    cfg.timestep.cflCourant = 0.25;
    Simulation<double> sim(std::move(ps), setup.box, Eos<double>(setup.eos),
                           withLeg(cfg));
    sim.computeForces();
    auto c0 = sim.conservation();

    // run to a full synchronization so the conservation snapshot (which
    // needs the full-set potential) is well-defined in the binned mode
    std::size_t n = sim.particles().size(), updates = 0;
    int steps = 0;
    do
    {
        auto rep = sim.advance();
        updates += rep.activeParticles;
        ++steps;
    } while ((steps < 24 || !sim.timestepController().atFullSync()) && steps < 200);
    ASSERT_TRUE(sim.timestepController().atFullSync());

    auto c1 = sim.conservation();
    EXPECT_NEAR(c1.totalEnergy(), c0.totalEnergy(),
                1e-3 * std::abs(c0.totalEnergy()))
        << legName(leg()) << " pool=" << pool();
    if (leg() == Leg::Compressible)
    {
        // the binned pipeline must actually save particle-updates
        EXPECT_LT(updates, std::size_t(steps) * n)
            << "active-subset walk did no better than stepping everyone";
    }
}

// --- scenario 3: rotating square patch -------------------------------------

TEST_P(GoldenGallery, SquarePatchPressureFieldMatchesGoldenSeries)
{
    // golden values of the Colagrossi series P0(x, y) for rho0 = 1,
    // omega = 5, L = 1, 32 terms — locked from the reference evaluation
    SquarePatchPressure<double> series(1.0, 5.0, 1.0, 32);
    EXPECT_NEAR(series.centerValue(), -3.683543155157608, 1e-12);
    EXPECT_NEAR(series(0.25, 0.25), -2.264273380500300, 1e-12);
    EXPECT_NEAR(series(0.75, 0.25), -2.264273380500300, 1e-12); // symmetry
    EXPECT_NEAR(series(0.50, 0.25), -2.866715801585090, 1e-12);

    // the IC generator must plant exactly this field
    ParticleSetD ps;
    SquarePatchConfig<double> ic;
    ic.nx = ic.ny = 16;
    ic.nz         = 8;
    auto setup    = makeSquarePatch(ps, ic);
    for (std::size_t i = 0; i < ps.size(); i += 13)
    {
        EXPECT_DOUBLE_EQ(ps.p[i], series(ps.x[i] + 0.5, ps.y[i] + 0.5)) << i;
    }

    // evolved under the Tait closure on the requested pipeline leg, the
    // rigid rotation conserves mass, momentum and angular momentum
    auto cfg              = withLeg(squarePatchConfig(setup));
    cfg.targetNeighbors   = 60;
    cfg.neighborTolerance = 10;
    Simulation<double> sim(std::move(ps), setup.box, cfg);
    sim.computeForces();
    auto c0 = sim.conservation();
    sim.run(10);
    auto c1 = sim.conservation();

    double scale = std::abs(c0.angularMomentum.z);
    EXPECT_DOUBLE_EQ(c1.mass, c0.mass);
    EXPECT_LT(norm(c1.momentum - c0.momentum), 1e-10 * scale);
    EXPECT_NEAR(c1.angularMomentum.z, c0.angularMomentum.z, 1e-4 * scale);
}

// --- scenario 4: pipeline & pool equivalence --------------------------------

TEST_P(GoldenGallery, PipelinesBitwiseEquivalentOnWallFreeScenario)
{
    // With no walls and no body force, the WCSPH assembly's extra phases
    // are exact no-ops: both assemblies must produce bit-identical state.
    // Combined with the pool axis of this gallery, a green run of this test
    // at pools {1, 4} also proves pool-size invariance of both assemblies.
    auto runPatch = [&](HydroMode mode) {
        ParticleSetD ps;
        SquarePatchConfig<double> ic;
        ic.nx = ic.ny = 12;
        ic.nz         = 4;
        auto setup    = makeSquarePatch(ps, ic);
        auto cfg      = squarePatchConfig(setup);
        cfg.hydroMode         = mode;
        cfg.targetNeighbors   = 60;
        cfg.neighborTolerance = 10;
        cfg.kernelBackend     = backend();
        // explicit EOS: the mode must switch ONLY the phase list, never the
        // closure (the 3-arg ctor would derive an ideal gas in Compressible)
        Simulation<double> sim(std::move(ps), setup.box, Eos<double>(setup.eos), cfg);
        sim.computeForces();
        sim.run(5);
        return sim;
    };

    auto a = runPatch(HydroMode::Compressible);
    auto b = runPatch(HydroMode::WeaklyCompressible);
    const auto& pa = a.particles();
    const auto& pb = b.particles();
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t i = 0; i < pa.size(); ++i)
    {
        ASSERT_EQ(pa.x[i], pb.x[i]) << i;
        ASSERT_EQ(pa.y[i], pb.y[i]) << i;
        ASSERT_EQ(pa.vx[i], pb.vx[i]) << i;
        ASSERT_EQ(pa.rho[i], pb.rho[i]) << i;
        ASSERT_EQ(pa.p[i], pb.p[i]) << i;
    }
}

// --- scenario 4b: one Global search, physics of the per-particle walk --------

TEST_P(GoldenGallery, ClusterSearchModePhysicsBitwiseMatchesTreeWalk)
{
    // The cluster search (tree/cluster_list.hpp) must not change physics at
    // all: after un-permuting the SFC reorder, every field is bit-identical
    // to a run whose phase B walks the tree per particle. The compressible
    // leg runs Sedov CROSS-frame (the per-particle reference drops phase L
    // and stays in lattice order, the shipped run is SFC-sorted every step)
    // and adds a third run, the shipped op list without phase L, which must
    // match too: phase L only changes where particles are stored. The WCSPH
    // leg runs the dam break — walls, ghosts, body force — same-frame (both
    // runs reorder, so the comparison isolates the search under the ghost
    // bracket; under walls a run without phase L is not bitwise, as mirror
    // ghosts take their source's id and clamp onto boundary keys).
    auto runScenario = [&](bool reorder, bool perParticleWalk) {
        auto vary = [&](Simulation<double>& sim) {
            if (!reorder || perParticleWalk)
            {
                sim.setPipeline(variantOf(sim.pipeline(), reorder, perParticleWalk));
            }
        };
        if (leg() == Leg::Compressible)
        {
            ParticleSetD ps;
            SedovConfig<double> ic;
            ic.nSide   = 12;
            auto setup = makeSedov(ps, ic);
            SimulationConfig<double> cfg;
            cfg.targetNeighbors    = 50;
            cfg.neighborTolerance  = 10;
            cfg.timestep.initialDt = 1e-6;
            cfg.kernelBackend      = backend();
            Simulation<double> sim(std::move(ps), setup.box, Eos<double>(setup.eos),
                                   cfg);
            vary(sim);
            sim.computeForces();
            sim.run(4);
            return sim;
        }
        ParticleSetD ps;
        DamBreakConfig<double> ic;
        ic.nx = ic.ny = 12;
        ic.nz         = 4;
        auto setup    = makeDamBreak(ps, ic);
        auto cfg      = damBreakConfig(ic, setup);
        cfg.targetNeighbors    = 60;
        cfg.neighborTolerance  = 10;
        cfg.timestep.initialDt = 1e-4;
        cfg.kernelBackend      = backend();
        Simulation<double> sim(std::move(ps), setup.box, cfg);
        vary(sim);
        sim.computeForces();
        sim.run(4);
        return sim;
    };

    auto shipped = runScenario(true, false);
    if (leg() == Leg::Wcsph)
    {
        expectSamePhysicsById(runScenario(true, true), shipped);
        return;
    }
    expectSamePhysicsById(runScenario(false, true), shipped);

    auto unsorted = runScenario(false, false);
    const auto& ids = shipped.particles().id;
    std::size_t permuted = 0;
    for (std::size_t k = 0; k < ids.size(); ++k)
        permuted += ids[k] != unsorted.particles().id[k];
    EXPECT_GT(permuted, ids.size() / 2) << "phase L did not permute the set";
    expectSamePhysicsById(unsorted, shipped);
}

// --- scenario 5: dam break --------------------------------------------------

TEST_P(GoldenGallery, DamBreakFrontWithinRitterBand)
{
    // Walls make the problem well-posed, so both legs run the WCSPH
    // assembly here (see the header comment); the pool axis still applies.
    ParticleSetD ps;
    DamBreakConfig<double> ic;
    ic.nx = ic.ny = 16;
    ic.nz         = 4;
    auto setup    = makeDamBreak(ps, ic);
    auto cfg      = damBreakConfig(ic, setup);
    cfg.targetNeighbors    = 60;
    cfg.neighborTolerance  = 10;
    cfg.timestep.initialDt = 1e-4;
    cfg.kernelBackend      = backend();
    Simulation<double> sim(std::move(ps), setup.box, cfg);
    std::size_t nReal = sim.particles().size();
    sim.computeForces();
    // ghosts are a per-step bracket: never visible between steps
    EXPECT_EQ(sim.particles().size(), nReal);

    advanceTo(sim, 0.15, 1000);

    // Ritter dry-bed solution: x(t) = W + 2 sqrt(gH) t. The SPH front
    // (leading bed particle, which carries its own radius ~h) brackets it:
    // measured displacement fraction ~1.2-1.3x at this resolution.
    double bedBand = 2.0 * sim.particles().h[0];
    double front   = damBreakFront(sim.particles(), bedBand);
    double ritter  = ritterFrontPosition(sim.time(), ic.columnWidth,
                                         ic.columnHeight, ic.g);
    double frac = (front - ic.columnWidth) / (ritter - ic.columnWidth);
    EXPECT_GT(frac, 0.6) << "surge stalled: front=" << front;
    EXPECT_LT(frac, 1.6) << "surge unphysically fast: front=" << front;

    // the walls must contain the flow: no particle through the x faces or
    // the floor (the top is open; splash above the column is physical)
    const auto& p = sim.particles();
    double slack  = 0.5 * setup.spacing;
    for (std::size_t i = 0; i < p.size(); ++i)
    {
        ASSERT_GT(p.x[i], -slack) << i;
        ASSERT_LT(p.x[i], ic.tankLength + slack) << i;
        ASSERT_GT(p.y[i], -slack) << i;
    }
    EXPECT_EQ(p.size(), nReal); // no ghost leakage into the real set
}

// --- scenario 6: Tait/Cole EOS reference formulas ---------------------------

TEST_P(GoldenGallery, TaitEosMatchesPublishedReferenceFormula)
{
    // the water-column reference case: rho0 = 1000, c0^2 = 1500, gamma = 7
    double rho0 = 1000.0, c2 = 1500.0, gamma = 7.0;
    double B = wcsphStiffness(rho0, c2, gamma);
    EXPECT_NEAR(B, c2 * rho0 / gamma, 1e-12);

    // 10% compression through the reference formula and the TaitEos object
    double rho = 1100.0;
    double ref = B * (std::pow(rho / rho0, gamma) - 1.0);
    EXPECT_NEAR(calPressureWcsph(rho, rho0, c2, gamma), ref, 1e-9 * ref);

    WcsphEosParams<double> params;
    params.rho0  = rho0;
    params.c0    = std::sqrt(c2);
    params.gamma = gamma;
    TaitEos<double> eos = makeTaitEos(params);
    EXPECT_NEAR(eos(rho, 0.0).pressure, ref, 1e-9 * ref);
    // c^2 = c0^2 (rho/rho0)^{gamma-1}
    EXPECT_NEAR(eos(rho, 0.0).soundSpeed, calSoundSpeedWcsph(rho, rho0, c2, gamma),
                1e-12);
    // zero pressure at the reference density, tension below it
    EXPECT_NEAR(eos(rho0, 0.0).pressure, 0.0, 1e-9);
    EXPECT_LT(eos(0.95 * rho0, 0.0).pressure, 0.0);
}

// Scalar instances carry no backend suffix: Pool1Compressible,
// Pool1CompressibleSimd, ...
INSTANTIATE_TEST_SUITE_P(
    Gallery, GoldenGallery,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{4}),
                       ::testing::Values(Leg::Compressible, Leg::Wcsph),
                       ::testing::Values(KernelBackend::Scalar, KernelBackend::Simd)),
    [](const auto& info) {
        return std::string("Pool") + std::to_string(std::get<0>(info.param)) +
               legName(std::get<1>(info.param)) +
               (std::get<2>(info.param) == KernelBackend::Simd ? "Simd" : "");
    });
