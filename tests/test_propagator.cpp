/// Tests of the phase-pipeline ("Propagator") layer: factory-assembled
/// phase ordering against the Fig. 4 A..J sequence, declarative gravity
/// selection, runner-emitted timing accounting, custom pipelines, and the
/// strongest equivalence guarantee the shared phase units give us — the
/// single-rank and 1-rank-distributed drivers producing bitwise-identical
/// particle state.

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <string>
#include <vector>

#include "core/code_profiles.hpp"
#include "core/propagator.hpp"
#include "core/simulation.hpp"
#include "domain/distributed.hpp"
#include "ic/lattice.hpp"
#include "ic/sedov.hpp"
#include "ic/square_patch.hpp"
#include "math/rng.hpp"
#include "step_variants.hpp"

using namespace sphexa;

namespace {

struct PatchSetup
{
    ParticleSetD ps;
    SquarePatchSetup<double> setup;
};

PatchSetup makePatch(std::size_t nxy = 12, std::size_t nz = 6)
{
    ParticleSetD ps;
    SquarePatchConfig<double> pc;
    pc.nx = pc.ny = nxy;
    pc.nz = nz;
    auto setup = makeSquarePatch(ps, pc);
    return {std::move(ps), setup};
}

SimulationConfig<double> patchConfig()
{
    SimulationConfig<double> cfg;
    cfg.targetNeighbors   = 50;
    cfg.neighborTolerance = 10;
    return cfg;
}

} // namespace

// --- pipeline assembly -------------------------------------------------------------

TEST(PipelineFactory, PhaseOrderMatchesFig4Sequence)
{
    SimulationConfig<double> cfg;
    cfg.selfGravity = true;
    auto phases = PipelineFactory<double>::singleRank(cfg).phases();

    // the full hydro+gravity force pipeline is the L sfc-sort op (run on
    // every Global walk, a no-op on a binned step's Subset walks)
    // followed by exactly A..I in Fig. 4 order (phase J brackets the
    // pipeline in the driver's kick-drift-kick)
    ASSERT_EQ(phases.size(), 10u);
    EXPECT_EQ(phases.front(), Phase::L_SfcSort);
    for (std::size_t k = 1; k < phases.size(); ++k)
    {
        EXPECT_EQ(int(phases[k]), int(k - 1)) << "phase " << phaseName(phases[k]);
    }
}

TEST(PipelineFactory, GravityPhaseSkippedWithoutSelfGravity)
{
    SimulationConfig<double> cfg;
    cfg.selfGravity = false;
    auto pipeline = PipelineFactory<double>::singleRank(cfg);
    EXPECT_FALSE(pipeline.hasPhase(Phase::I_SelfGravity));
    EXPECT_EQ(pipeline.phases().size(), 9u); // L + A..H

    cfg.selfGravity = true;
    EXPECT_TRUE(PipelineFactory<double>::singleRank(cfg).hasPhase(Phase::I_SelfGravity));
}

TEST(PipelineFactory, WallsAndBodyForceAddTheirOps)
{
    // walls bracket the force phases with phase K (create after phase L,
    // remove last) and a nonzero body force follows phase H in H's slot
    SimulationConfig<double> cfg;
    cfg.boundaries.wallLo[1] = true;
    cfg.constantAccel        = {0.0, -1.0, 0.0};
    using P                  = Phase;
    std::vector<Phase> expected{P::L_SfcSort,          P::K_GhostExchange,
                                P::A_TreeBuild,        P::B_NeighborSearch,
                                P::C_SmoothingLength,  P::D_NeighborSymmetrize,
                                P::E_Density,          P::F_EosAndIad,
                                P::G_DivCurl,          P::H_MomentumEnergy,
                                P::H_MomentumEnergy,   P::K_GhostExchange};
    EXPECT_EQ(PipelineFactory<double>::singleRank(cfg).phases(), expected);

    cfg.selfGravity = true;
    expected.insert(expected.end() - 1, P::I_SelfGravity);
    EXPECT_EQ(PipelineFactory<double>::singleRank(cfg).phases(), expected);
}

TEST(PipelineFactory, DistributedSegmentsCoverAtoHWithHaloSyncs)
{
    SimulationConfig<double> cfg;
    auto pipeline = PipelineFactory<double>::distributed(cfg);
    auto phases   = pipeline.phases();

    ASSERT_EQ(phases.size(), 8u); // A..H; gravity is reduction glue
    for (std::size_t k = 0; k < phases.size(); ++k)
    {
        EXPECT_EQ(int(phases[k]), int(k));
    }
    // cross-rank data dependencies are declared at the segment boundaries
    const auto& segs = pipeline.segments();
    ASSERT_GE(segs.size(), 2u);
    EXPECT_FALSE(segs.front().haloFieldsAfter.empty());
    EXPECT_TRUE(segs.back().haloFieldsAfter.empty());
}

TEST(PipelineFactory, ProfilesSelectPipelineDeclaratively)
{
    // parent-code presets select their pipeline from their config alone
    for (const auto& profile : parentProfiles<double>())
    {
        auto pipeline = pipelineFor(profile);
        EXPECT_EQ(pipeline.hasPhase(Phase::I_SelfGravity), profile.config.selfGravity)
            << profile.name;
    }
    // an Evrard-style run (gravity on) upgrades to the A..I pipeline
    auto evrard = sphexaProfile<double>();
    evrard.config.selfGravity = true;
    EXPECT_TRUE(pipelineFor(evrard).hasPhase(Phase::I_SelfGravity));
}

// --- runner accounting -------------------------------------------------------------

TEST(Propagator, RunnerEmitsPhaseEventsThatSumToReport)
{
    auto patch = makePatch();
    Simulation<double> sim(std::move(patch.ps), patch.setup.box,
                           Eos<double>(patch.setup.eos), patchConfig());
    PhaseEventLog log;
    sim.attachPhaseLog(&log);

    sim.computeForces();
    log.clear();
    auto rep = sim.advance();

    // one event per executed phase (A..H from the force pass, plus J) —
    // and the runner's events carry exactly the seconds of the report
    ASSERT_FALSE(log.events().empty());
    EXPECT_NEAR(log.totalSeconds(), rep.totalSeconds(), 1e-12);

    auto byRank = log.phaseSecondsByRank(1);
    ASSERT_EQ(byRank.size(), 1u);
    for (int p = 0; p < phaseCount; ++p)
    {
        EXPECT_NEAR(byRank[0][p], rep.phaseSeconds[p], 1e-12) << phaseName(Phase(p));
    }
    // per-phase seconds sum to the report total by construction of the runner
    double sum = 0;
    for (double s : rep.phaseSeconds)
        sum += s;
    EXPECT_DOUBLE_EQ(sum, rep.totalSeconds());
}

TEST(Propagator, FirstAdvanceLogsOnlyTheReportedForcePass)
{
    auto patch = makePatch();
    Simulation<double> sim(std::move(patch.ps), patch.setup.box,
                           Eos<double>(patch.setup.eos), patchConfig());
    PhaseEventLog log;
    sim.attachPhaseLog(&log);

    // no prior computeForces(): advance() seeds forces internally; that
    // discarded pass must not leak into the log
    auto rep = sim.advance();
    EXPECT_NEAR(log.totalSeconds(), rep.totalSeconds(), 1e-12);
    auto byRank = log.phaseSecondsByRank(1);
    for (int p = 0; p < phaseCount; ++p)
    {
        EXPECT_NEAR(byRank[0][p], rep.phaseSeconds[p], 1e-12) << phaseName(Phase(p));
    }
    // events join with the report they describe by step id
    for (const auto& e : log.events())
    {
        EXPECT_EQ(e.step, rep.step) << phaseName(e.phase);
    }
}

TEST(Propagator, PhaseJAccountsIntoTheStepReport)
{
    // both halves of phase J account into the step's report: its seconds,
    // and one loop per J pass — the dt candidates, kickDrift and
    // kickEnergy on a Global step of either driver, at least as many on
    // the binned leapfrog
    auto expectJ = [](const StepReport<double>& rep, bool exact, const char* driver) {
        const auto& load = rep.phaseLoad[int(Phase::J_TimestepUpdate)];
        EXPECT_GT(rep.phaseSeconds[int(Phase::J_TimestepUpdate)], 0.0) << driver;
        EXPECT_GE(load.invocations, 3u) << driver;
        if (exact) { EXPECT_EQ(load.invocations, 3u) << driver; }
    };
    auto patch = makePatch();
    Eos<double> eos(patch.setup.eos);
    SimulationConfig<double> binnedCfg = patchConfig();
    binnedCfg.timestep.mode            = TimesteppingMode::Individual;
    binnedCfg.neighborMode             = NeighborMode::IndividualTreeWalk;

    Simulation<double> global(patch.ps, patch.setup.box, eos, patchConfig());
    Simulation<double> binned(patch.ps, patch.setup.box, eos, binnedCfg);
    DistributedSimulation<double> dist(patch.ps, patch.setup.box, eos, patchConfig(), 2);
    for (int s = 0; s < 3; ++s)
    {
        SCOPED_TRACE(testing::Message() << "step " << s);
        expectJ(global.advance(), true, "Global");
        expectJ(binned.advance(), false, "binned");
        auto rep = dist.advance();
        ASSERT_EQ(rep.ranks.size(), 2u);
        for (const auto& rank : rep.ranks)
            expectJ(rank, true, "distributed rank");
    }
}

TEST(Propagator, EmptySubsetPassRunsNoPhaseBody)
{
    // a Subset walk over no particles (no controller, no indices): phase
    // A builds its tree and B searches nothing, every later body is
    // skipped, so no particle field changes and the report counts nothing
    ParticleSetD ps;
    SedovConfig<double> ic;
    ic.nSide   = 6;
    auto setup = makeSedov(ps, ic);
    SimulationConfig<double> cfg;
    cfg.selfGravity = true;
    const ParticleSetD before = ps;

    Kernel<double> kernel(cfg.kernel, cfg.sincExponent);
    LaneKernel<double> lanes(kernel);
    Eos<double> eos(setup.eos);
    Octree<double> tree;
    NeighborList<double> nl(ps.size(), cfg.ngmax);
    PhaseBuffers<double> buffers;
    GravitySolver<double> gravity;
    StepReport<double> rep;
    StepContext<double> ctx{ps, setup.box, cfg, kernel, lanes, eos, tree, nl, buffers, rep};
    ctx.gravity  = &gravity;
    ctx.walkMode = WalkMode::Subset;
    PipelineFactory<double>::singleRank(cfg).run(ctx);

    EXPECT_EQ(tree.particleCount(), ps.size());
    const auto fields = ps.realFields();
    const auto ref    = before.realFields();
    for (std::size_t f = 0; f < fields.size(); ++f)
        EXPECT_EQ(*fields[f], *ref[f]) << ParticleSetD::realFieldNames()[f];
    EXPECT_EQ(ps.id, before.id);
    EXPECT_EQ(ps.nc, before.nc);
    EXPECT_EQ(rep.activeParticles, 0u);
    EXPECT_EQ(rep.neighborInteractions, 0u);
    EXPECT_EQ(rep.neighborOverflow, 0u);
    EXPECT_EQ(rep.hIterations, 0u);
}

TEST(Propagator, SymmetrizePhaseReportsWorkerBusyTime)
{
    // phase D runs through parallelFor under its LoopPolicy, so a Global
    // step's report carries its load accounting like every other phase
    ParticleSetD ps;
    SedovConfig<double> ic;
    ic.nSide   = 10;
    auto setup = makeSedov(ps, ic);
    Simulation<double> sim(std::move(ps), setup.box, Eos<double>(setup.eos),
                           SimulationConfig<double>{});
    sim.computeForces();
    auto rep = sim.advance();

    const auto& load = rep.phaseLoad[int(Phase::D_NeighborSymmetrize)];
    EXPECT_GT(load.invocations, 0u);
    double busy = 0;
    for (double b : load.workerBusySeconds)
        busy += b;
    EXPECT_GT(busy, 0.0);
}

TEST(Propagator, StepReportCarriesPhaseCUnconvergedCount)
{
    // a zero tolerance band leaves particles unconverged after the last
    // h iteration; the report must say how many instead of dropping it
    auto run = [](unsigned tolerance) {
        ParticleSetD ps;
        SedovConfig<double> ic;
        ic.nSide   = 8;
        auto setup = makeSedov(ps, ic);
        SimulationConfig<double> cfg;
        cfg.neighborTolerance = tolerance;
        Simulation<double> sim(std::move(ps), setup.box, Eos<double>(setup.eos), cfg);
        auto rep = sim.computeForces();

        // the same iteration, replayed on the final state, agrees with it
        std::size_t outside = 0;
        for (std::size_t i = 0; i < sim.particles().size(); ++i)
        {
            outside += neighborCountConverged(unsigned(sim.particles().nc[i]),
                                              cfg.targetNeighbors, tolerance)
                           ? 0
                           : 1;
        }
        EXPECT_EQ(rep.hUnconverged, outside) << "tolerance " << tolerance;
        return rep.hUnconverged;
    };
    EXPECT_GT(run(0), 0u);
    EXPECT_EQ(run(40), 0u);
}

TEST(Propagator, CustomPipelineRunsSelectedPhasesOnly)
{
    auto patch = makePatch();
    Simulation<double> sim(std::move(patch.ps), patch.setup.box,
                           Eos<double>(patch.setup.eos), patchConfig());

    // a bespoke density-only pipeline: tree, neighbors, h, symmetrize, density
    sim.setPipeline(PipelineFactory<double>::custom(
        {phase_ops::treeBuild<double>(), phase_ops::neighborSearch<double>(),
         phase_ops::smoothingLength<double>(), phase_ops::neighborSymmetrize<double>(),
         phase_ops::density<double>()}));

    auto rep = sim.computeForces();
    EXPECT_GT(rep.phaseSeconds[int(Phase::E_Density)], 0.0);
    EXPECT_EQ(rep.phaseSeconds[int(Phase::H_MomentumEnergy)], 0.0);
    EXPECT_GT(rep.neighborInteractions, 0u);
    for (double rho : sim.particles().rho)
    {
        EXPECT_TRUE(std::isfinite(rho));
        EXPECT_GT(rho, 0.0);
    }
}

TEST(Propagator, ComputeForcesReportsTimeAndDt)
{
    auto patch = makePatch();
    Simulation<double> sim(std::move(patch.ps), patch.setup.box,
                           Eos<double>(patch.setup.eos), patchConfig());

    // standalone force evaluation before any step: time 0, dt 0 (no step yet)
    auto rep0 = sim.computeForces();
    EXPECT_EQ(rep0.time, 0.0);
    EXPECT_EQ(rep0.dt, 0.0);

    auto stepRep = sim.advance();
    // a standalone recomputation now reports the current simulated time and
    // the last step size actually used (satellite: benches calling
    // computeForces directly get consistent rows)
    auto rep1 = sim.computeForces();
    EXPECT_DOUBLE_EQ(rep1.time, stepRep.time);
    EXPECT_DOUBLE_EQ(rep1.dt, stepRep.dt);
    EXPECT_GT(rep1.dt, 0.0);
}

// --- driver equivalence through the shared phase units -----------------------------

TEST(Propagator, SingleRankAndOneRankDistributedAreBitwiseIdentical)
{
    // the shipped step (phase L, then the cluster search over the sorted
    // set) against the distributed pipeline, which runs the same cluster
    // search over the unsorted set and has no phase L: the two agree
    // bitwise only if the reorder changes no summation order
    auto patch = makePatch();
    SimulationConfig<double> cfg = patchConfig();

    // phase D off: the distributed driver can't bucket missing pairs (halo
    // pairs)
    Simulation<double> shared(patch.ps, patch.setup.box, Eos<double>(patch.setup.eos),
                              cfg);
    shared.setPipeline(withoutMissingPairs(shared.pipeline()));
    DistributedSimulation<double> dist(patch.ps, patch.setup.box,
                                       Eos<double>(patch.setup.eos), cfg, 1);

    shared.computeForces();
    for (int s = 0; s < 5; ++s)
    {
        shared.advance();
        dist.advance();
    }

    auto g = dist.gather(); // id order
    const auto& ref = shared.particles();
    ASSERT_EQ(g.size(), ref.size());

    // join on id: the shared-memory set is stored in curve order, so the
    // gather's i-th particle is ref's i-th in id order
    auto refById = ref.idOrder();
    std::size_t permuted = 0;
    for (std::size_t k = 0; k < ref.size(); ++k)
        permuted += refById[k] != k;
    EXPECT_GT(permuted, ref.size() / 2) << "phase L left the set in id order";
    for (std::size_t i = 0; i < g.size(); ++i)
        ASSERT_EQ(g.id[i], ref.id[refById[i]]);

    // both drivers executed phases A..H through the same PhaseOp units, so
    // with one rank (no summation-order changes from halos) the particle
    // state must be bitwise identical, not merely close
    auto expectBitwise = [&](const std::vector<double>& a, const std::vector<double>& b,
                             const char* field) {
        for (std::size_t i = 0; i < a.size(); ++i)
        {
            ASSERT_EQ(a[i], b[refById[i]]) << field << " of id " << g.id[i];
        }
    };
    expectBitwise(g.x, ref.x, "x");
    expectBitwise(g.y, ref.y, "y");
    expectBitwise(g.z, ref.z, "z");
    expectBitwise(g.vx, ref.vx, "vx");
    expectBitwise(g.vy, ref.vy, "vy");
    expectBitwise(g.vz, ref.vz, "vz");
    expectBitwise(g.h, ref.h, "h");
    expectBitwise(g.rho, ref.rho, "rho");
    expectBitwise(g.u, ref.u, "u");
    expectBitwise(g.p, ref.p, "p");
    expectBitwise(g.c, ref.c, "c");

    // Adaptive leg: the distributed driver commits its rank's candidate
    // min through the same controller. initialDt clamps step 0, and the
    // growth cap and the CFL minimum each set some later step (checked
    // below)
    cfg.timestep.mode      = TimesteppingMode::Adaptive;
    cfg.timestep.initialDt = 2.5e-4;
    Simulation<double> sharedA(patch.ps, patch.setup.box, Eos<double>(patch.setup.eos),
                               cfg);
    sharedA.setPipeline(withoutMissingPairs(sharedA.pipeline()));
    DistributedSimulation<double> distA(patch.ps, patch.setup.box,
                                        Eos<double>(patch.setup.eos), cfg, 1);
    sharedA.computeForces();
    std::size_t capped = 0, cflSet = 0;
    double lastDt = 0;
    for (int s = 0; s < 6; ++s)
    {
        double dt = sharedA.advance().dt;
        ASSERT_EQ(distA.advance().dt, dt) << "step " << s;
        if (s == 0)
            EXPECT_EQ(dt, cfg.timestep.initialDt);
        else
            ++(dt == lastDt * cfg.timestep.maxGrowth ? capped : cflSet);
        lastDt = dt;
    }
    EXPECT_GT(capped, 0u);
    EXPECT_GT(cflSet, 0u);

    auto gA          = distA.gather();
    const auto& refA = sharedA.particles();
    auto refAById    = refA.idOrder();
    ASSERT_EQ(gA.size(), refA.size());
    for (std::size_t i = 0; i < gA.size(); ++i)
        ASSERT_EQ(gA.id[i], refA.id[refAById[i]]);
    for (auto field : {&ParticleSetD::x, &ParticleSetD::y, &ParticleSetD::z, &ParticleSetD::vx,
                       &ParticleSetD::vy, &ParticleSetD::vz, &ParticleSetD::h,
                       &ParticleSetD::rho, &ParticleSetD::u, &ParticleSetD::p,
                       &ParticleSetD::c})
    {
        for (std::size_t i = 0; i < gA.size(); ++i)
            ASSERT_EQ((gA.*field)[i], (refA.*field)[refAById[i]]) << "Adaptive, id " << gA.id[i];
    }
}

TEST(Propagator, DistributedRanksReportTheirListHealth)
{
    // an ngmax below some neighborhoods cuts rows: every rank reports its
    // overflow, and at one rank the overflow, the unconverged count and the
    // h iterations of each step are the shared driver's (phase D off on
    // both, as in the bitwise test above)
    auto patch = makePatch();
    SimulationConfig<double> cfg = patchConfig();
    cfg.ngmax = 48;

    Simulation<double> shared(patch.ps, patch.setup.box, Eos<double>(patch.setup.eos),
                              cfg);
    shared.setPipeline(withoutMissingPairs(shared.pipeline()));
    DistributedSimulation<double> one(patch.ps, patch.setup.box,
                                      Eos<double>(patch.setup.eos), cfg, 1);
    DistributedSimulation<double> two(patch.ps, patch.setup.box,
                                      Eos<double>(patch.setup.eos), cfg, 2);
    shared.computeForces();
    for (int s = 0; s < 4; ++s)
    {
        SCOPED_TRACE(testing::Message() << "step " << s);
        auto ref = shared.advance();
        auto got = one.advance();
        ASSERT_EQ(got.ranks.size(), 1u);
        EXPECT_GT(ref.neighborOverflow, 0u);
        EXPECT_EQ(got.ranks[0].neighborOverflow, ref.neighborOverflow);
        EXPECT_EQ(got.ranks[0].hUnconverged, ref.hUnconverged);
        EXPECT_EQ(got.ranks[0].hIterations, ref.hIterations);

        // the two-rank run warns like the shared driver, with the ranks'
        // summed count
        testing::internal::CaptureStderr();
        auto twoRep      = two.advance();
        std::string warn = testing::internal::GetCapturedStderr();
        std::size_t overflow = 0;
        for (const auto& r : twoRep.ranks)
            overflow += r.neighborOverflow;
        EXPECT_GT(overflow, 0u);
        EXPECT_NE(warn.find("sphexa: step " + std::to_string(twoRep.step) + ": " +
                            std::to_string(overflow) + " neighbor list(s) exceeded ngmax=48"),
                  std::string::npos)
            << warn;
    }
}

TEST(Propagator, SfcReorderIsPhysicsNeutralOnNearCoincidentParticles)
{
    // a periodic cloud where every 20th particle sits 1e-8 from its
    // predecessor, i.e. in the same SFC cell: the shipped step and the same
    // op list without phase L must agree bitwise per particle, which holds
    // only if tied keys take the same tree order in both storage frames
    auto run = [](bool reorder) {
        const std::size_t n = 6000;
        ParticleSetD ps(n);
        Xoshiro256pp rng(5);
        for (std::size_t i = 0; i < n; ++i)
        {
            bool twin = i % 20 == 19;
            ps.x[i]  = twin ? ps.x[i - 1] + 1e-8 : rng.uniform();
            ps.y[i]  = twin ? ps.y[i - 1] : rng.uniform();
            ps.z[i]  = twin ? ps.z[i - 1] : rng.uniform();
            ps.m[i]  = 1.0 / double(n);
            ps.u[i]  = 1.0;
            ps.h[i]  = 0.5 * std::cbrt(3.0 * 50.0 / (4.0 * std::numbers::pi * double(n)));
            ps.id[i] = i;
        }
        Box<double> box{{0, 0, 0}, {1, 1, 1}, true, true, true};
        Simulation<double> sim(std::move(ps), box, Eos<double>(IdealGasEos<double>(5.0 / 3.0)),
                               patchConfig());
        if (!reorder) sim.setPipeline(variantOf(sim.pipeline(), false, false));
        sim.computeForces();
        sim.run(2);
        return sim;
    };
    expectSamePhysicsById(run(false), run(true));
}

TEST(Propagator, DistributedPhaseLogCoversAllRanks)
{
    auto patch = makePatch();
    SimulationConfig<double> cfg = patchConfig();

    DistributedSimulation<double> dist(patch.ps, patch.setup.box,
                                       Eos<double>(patch.setup.eos), cfg, 3);
    PhaseEventLog log;
    dist.attachPhaseLog(&log);
    auto rep = dist.advance();

    auto byRank = log.phaseSecondsByRank(3);
    for (int r = 0; r < 3; ++r)
    {
        for (int p = 0; p < phaseCount; ++p)
        {
            EXPECT_NEAR(byRank[r][p], rep.ranks[r].phaseSeconds[p], 1e-12)
                << "rank " << r << " " << phaseName(Phase(p));
        }
    }
}

TEST(Propagator, IdealGasConfigRunsItsWallsAndBodyForce)
{
    // walls and a body force belong to the config, not to a closure: an
    // ideal gas with them runs both
    const std::size_t side = 10;
    auto lattice           = [&](Box<double> box) {
        ParticleSetD ps;
        cubicLattice(ps, side, side, side, box);
        for (std::size_t i = 0; i < ps.size(); ++i)
        {
            ps.m[i] = 1.0 / double(ps.size());
            ps.h[i] = initialSmoothingLength(ps.size(), box, 50u);
            ps.u[i] = 1.0;
        }
        return ps;
    };
    Eos<double> gas(IdealGasEos<double>(5.0 / 3.0));

    SimulationConfig<double> walled = patchConfig();
    walled.boundaries.wallLo[1]     = true;
    Box<double> tank{{0, 0, 0}, {1, 1, 1}, true, false, true};
    Simulation<double> withWalls(lattice(tank), tank, gas, walled);
    EXPECT_TRUE(withWalls.pipeline().hasPhase(Phase::K_GhostExchange));
    withWalls.advance();
    EXPECT_EQ(withWalls.particles().size(), side * side * side); // ghosts removed

    // a periodic lattice at rest: the SPH forces cancel, so one Global step
    // leaves exactly the body force's impulse, total momentum M g dt
    SimulationConfig<double> falling = patchConfig();
    falling.constantAccel            = {0.0, -2.0, 0.0};
    Box<double> box{{0, 0, 0}, {1, 1, 1}, true, true, true};
    Simulation<double> sim(lattice(box), box, gas, falling);
    auto rep       = sim.advance();
    auto c         = sim.conservation();
    double impulse = c.mass * -2.0 * rep.dt;
    ASSERT_GT(rep.dt, 0.0);
    EXPECT_NEAR(c.momentum.y, impulse, 1e-9 * std::abs(impulse));
    EXPECT_NEAR(c.momentum.x, 0.0, 1e-9 * std::abs(impulse));
    EXPECT_NEAR(c.momentum.z, 0.0, 1e-9 * std::abs(impulse));
}
