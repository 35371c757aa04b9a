/// Fault-tolerance substrate tests: multilevel checkpoint/restart with
/// corruption fallbacks, optimal-interval formulas validated against a
/// discrete-event failure simulation, SDC detector recall and false-positive
/// behaviour, and selective replication.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <numeric>

#include "core/simulation.hpp"
#include "ft/checkpoint.hpp"
#include "ft/daly.hpp"
#include "ft/replication.hpp"
#include "ft/sdc.hpp"
#include "ic/evrard.hpp"
#include "io/serialize.hpp"
#include "math/rng.hpp"

using namespace sphexa;

namespace {

ParticleSetD makeState(std::size_t n, std::uint64_t seed)
{
    ParticleSetD ps(n);
    Xoshiro256pp rng(seed);
    for (std::size_t i = 0; i < n; ++i)
    {
        ps.x[i] = rng.uniform();
        ps.y[i] = rng.uniform();
        ps.z[i] = rng.uniform();
        ps.rho[i] = 1.0 + 0.1 * rng.normal();
        ps.h[i] = 0.05;
        ps.m[i] = 1e-3;
        ps.u[i] = 0.5;
        ps.id[i] = i;
    }
    return ps;
}

std::filesystem::path tmpDir(const std::string& name)
{
    auto p = std::filesystem::temp_directory_path() / ("sphexa_test_" + name);
    std::filesystem::remove_all(p);
    return p;
}

} // namespace

// --- checkpoint/restart ---------------------------------------------------------

TEST(Checkpoint, MemoryRoundTrip)
{
    auto ps = makeState(200, 1);
    Checkpointer<double> ck(tmpDir("mem"));
    ck.write(CheckpointLevel::Memory, ps, 1.5, 10);
    auto res = ck.restore();
    ASSERT_TRUE(res.has_value());
    EXPECT_DOUBLE_EQ(res->time, 1.5);
    EXPECT_EQ(res->step, 10u);
    EXPECT_EQ(res->particles.size(), 200u);
    EXPECT_DOUBLE_EQ(res->particles.x[13], ps.x[13]);
}

TEST(Checkpoint, DiskRoundTrip)
{
    auto ps = makeState(150, 2);
    Checkpointer<double> ck(tmpDir("disk"));
    ck.write(CheckpointLevel::Disk, ps, 2.5, 20);
    auto res = ck.restore();
    ASSERT_TRUE(res.has_value());
    EXPECT_EQ(res->step, 20u);
    for (std::size_t i = 0; i < 150; i += 17)
    {
        EXPECT_DOUBLE_EQ(res->particles.rho[i], ps.rho[i]);
    }
}

TEST(Checkpoint, NoCheckpointReturnsNullopt)
{
    Checkpointer<double> ck(tmpDir("none"));
    EXPECT_FALSE(ck.restore().has_value());
}

TEST(Checkpoint, PrefersFasterLevel)
{
    auto psOld = makeState(50, 3);
    auto psNew = makeState(50, 4);
    Checkpointer<double> ck(tmpDir("prefer"));
    ck.write(CheckpointLevel::Disk, psOld, 1.0, 1);
    ck.write(CheckpointLevel::Memory, psNew, 2.0, 2);
    auto res = ck.restore();
    ASSERT_TRUE(res.has_value());
    EXPECT_EQ(res->step, 2u); // memory level wins
}

TEST(Checkpoint, FallsBackOnCorruptMemory)
{
    auto ps = makeState(80, 5);
    Checkpointer<double> ck(tmpDir("fallback"));
    ck.write(CheckpointLevel::Disk, ps, 1.0, 7);
    ck.write(CheckpointLevel::Memory, ps, 2.0, 8);
    ck.corruptMemoryLevel(1234);
    auto res = ck.restore();
    ASSERT_TRUE(res.has_value());
    EXPECT_EQ(res->step, 7u); // fell back to the disk copy
    EXPECT_GE(ck.stats().fallbacks, 1u);
}

TEST(Checkpoint, SurvivesMemoryLevelLoss)
{
    auto ps = makeState(80, 6);
    Checkpointer<double> ck(tmpDir("nodeloss"));
    ck.write(CheckpointLevel::Disk, ps, 1.0, 3);
    ck.write(CheckpointLevel::Memory, ps, 2.0, 4);
    ck.dropMemoryLevel(); // "node failure"
    auto res = ck.restore();
    ASSERT_TRUE(res.has_value());
    EXPECT_EQ(res->step, 3u);
}

TEST(Checkpoint, StatsAccumulate)
{
    auto ps = makeState(40, 7);
    Checkpointer<double> ck(tmpDir("stats"));
    ck.write(CheckpointLevel::Memory, ps, 0.0, 0);
    ck.write(CheckpointLevel::Disk, ps, 0.0, 0);
    EXPECT_EQ(ck.stats().memoryWrites, 1u);
    EXPECT_EQ(ck.stats().diskWrites, 1u);
    EXPECT_GT(ck.stats().bytesWritten, 40u * 30u * 8u); // ~fields * particles
}

// --- individual-mode restart ------------------------------------------------------

namespace {

Simulation<double> makeBinnedEvrard()
{
    ParticleSetD ps;
    EvrardConfig<double> ic;
    ic.nSide   = 10;
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
    return Simulation<double>(std::move(ps), setup.box, Eos<double>(setup.eos), cfg);
}

} // namespace

TEST(Checkpoint, IndividualRestartRestoresBaseDt)
{
    // Regression: restore() used to drop baseDt_, leaving it 0 after an
    // Individual-mode restart — every bin-relative quantity (snapped dt,
    // sync detection) was stale or divided by zero until the next advance.
    auto sim = makeBinnedEvrard();
    sim.computeForces();
    for (int i = 0; i < 5; ++i)
        sim.advance();
    const auto& ctl = sim.timestepController();
    ASSERT_GT(ctl.baseDt(), 0.0);

    auto resumed = makeBinnedEvrard();
    resumed.particles() = sim.particles();
    resumed.restoreFromCheckpoint(sim.time(), sim.step(), ctl.currentDt(),
                                  sim.maxVsignal(), ctl.baseDt(), ctl.cycleStart());
    const auto& rctl = resumed.timestepController();
    EXPECT_DOUBLE_EQ(rctl.baseDt(), ctl.baseDt());
    EXPECT_EQ(rctl.cycleStart(), ctl.cycleStart());
    EXPECT_EQ(rctl.maxUsedBin(), ctl.maxUsedBin());
    EXPECT_EQ(rctl.atFullSync(), ctl.atFullSync());
}

TEST(Checkpoint, IndividualMidCycleRoundTripContinuesBitwise)
{
    // Serialize/checkpoint round-trip of ps.dt and ps.bin MID bin-cycle:
    // write at a step where bins differ, restore, and require the identical
    // activity schedule plus a bitwise-identical continuation.
    auto ref = makeBinnedEvrard();
    ref.computeForces();
    auto live = makeBinnedEvrard();
    live.computeForces();

    // step both to a mid-cycle point with a real hierarchy
    int head = 5;
    for (int i = 0; i < head; ++i)
    {
        ref.advance();
        live.advance();
    }
    const auto& ps0 = live.particles();
    int minBin = ps0.bin[0], maxBin = ps0.bin[0];
    for (int b : ps0.bin)
    {
        minBin = std::min(minBin, b);
        maxBin = std::max(maxBin, b);
    }
    ASSERT_LT(minBin, maxBin) << "test premise: bins must differ at write time";

    // round-trip the full state through the binary serializer
    auto buf      = serialize(ps0, live.time(), live.step());
    auto restored = deserialize<double>(buf);
    for (std::size_t i = 0; i < ps0.size(); ++i)
    {
        ASSERT_EQ(restored.particles.bin[i], ps0.bin[i]) << i;
        ASSERT_EQ(restored.particles.dt[i], ps0.dt[i]) << i;
        ASSERT_EQ(restored.particles.vsig[i], ps0.vsig[i]) << i;
    }

    const auto& lctl = live.timestepController();
    auto resumed     = makeBinnedEvrard();
    resumed.particles() = std::move(restored.particles);
    resumed.restoreFromCheckpoint(restored.time, restored.step, lctl.currentDt(),
                                  live.maxVsignal(), lctl.baseDt(),
                                  lctl.cycleStart());

    // identical activity schedule and bitwise continuation across (at least)
    // one full hierarchy cycle
    int tail = 1 << std::max(2, lctl.maxUsedBin());
    for (int i = 0; i < tail; ++i)
    {
        auto repRef = ref.advance();
        auto repRes = resumed.advance();
        ASSERT_EQ(repRes.activeParticles, repRef.activeParticles) << "step " << i;
        ASSERT_EQ(repRes.dt, repRef.dt) << "step " << i;
    }
    const auto& a = ref.particles();
    const auto& b = resumed.particles();
    for (std::size_t i = 0; i < a.size(); ++i)
    {
        ASSERT_EQ(a.x[i], b.x[i]) << i;
        ASSERT_EQ(a.vx[i], b.vx[i]) << i;
        ASSERT_EQ(a.u[i], b.u[i]) << i;
        ASSERT_EQ(a.dt[i], b.dt[i]) << i;
        ASSERT_EQ(a.bin[i], b.bin[i]) << i;
    }
    EXPECT_EQ(resumed.timestepController().cycleStart(), ref.timestepController().cycleStart());
}

// --- optimal interval ------------------------------------------------------------

TEST(Daly, YoungFormula)
{
    EXPECT_NEAR(youngInterval(10.0, 2000.0), std::sqrt(2 * 10.0 * 2000.0), 1e-12);
    EXPECT_THROW(youngInterval(0.0, 100.0), std::invalid_argument);
}

TEST(Daly, DalyReducesToYoungForSmallC)
{
    double C = 1.0, M = 1e6;
    EXPECT_NEAR(dalyInterval(C, M), youngInterval(C, M), 0.01 * youngInterval(C, M));
}

TEST(Daly, DalyBelowYoungForLargeC)
{
    // with non-negligible C the refined optimum is shifted by ~ -C
    double C = 100.0, M = 5000.0;
    EXPECT_LT(dalyInterval(C, M), youngInterval(C, M));
    EXPECT_GT(dalyInterval(C, M), 0.0);
}

TEST(Daly, WasteMinimizedNearYoung)
{
    double C = 10.0, M = 3600.0, R = 30.0;
    double tauOpt = youngInterval(C, M);
    double wOpt = expectedWasteFraction(tauOpt, C, R, M);
    EXPECT_LT(wOpt, expectedWasteFraction(tauOpt / 4, C, R, M));
    EXPECT_LT(wOpt, expectedWasteFraction(tauOpt * 4, C, R, M));
}

TEST(Daly, SimulationValidatesOptimum)
{
    // simulated makespan at the Young interval beats too-frequent and
    // too-rare checkpointing (averaged over seeds)
    double C = 20.0, M = 1000.0, R = 50.0, W = 20000.0;
    double tauOpt = youngInterval(C, M);

    auto avgWall = [&](double tau) {
        double s = 0;
        for (std::uint64_t seed = 1; seed <= 20; ++seed)
        {
            s += simulateCheckpointing(W, tau, C, R, M, seed);
        }
        return s / 20;
    };

    double atOpt   = avgWall(tauOpt);
    double tooOft  = avgWall(tauOpt / 8);
    double tooRare = avgWall(tauOpt * 8);
    EXPECT_LT(atOpt, tooOft);
    EXPECT_LT(atOpt, tooRare);
}

TEST(Daly, SimulationMatchesWasteModel)
{
    double C = 10.0, M = 2000.0, R = 20.0, W = 50000.0;
    double tau = youngInterval(C, M);
    double s = 0;
    std::size_t fails = 0, f;
    for (std::uint64_t seed = 1; seed <= 30; ++seed)
    {
        s += simulateCheckpointing(W, tau, C, R, M, seed, &f);
        fails += f;
    }
    double wall = s / 30;
    double predicted = W * (1.0 + expectedWasteFraction(tau, C, R, M));
    EXPECT_NEAR(wall, predicted, 0.1 * predicted);
    EXPECT_GT(fails, 0u);
}

TEST(Daly, TwoLevelOptimalShape)
{
    // expensive L2, cheap L1, frequent soft errors vs rare node losses:
    // many L1 checkpoints per L2
    auto plan = twoLevelOptimal(1.0, 100.0, 1.0 / 600, 1.0 / 86400);
    EXPECT_GT(plan.n1, 10);
    EXPECT_GT(plan.tau1, 0.0);
    // costs equal and rates equal: one L1 per L2
    auto flat = twoLevelOptimal(10.0, 10.0, 1e-3, 1e-3);
    EXPECT_EQ(flat.n1, 1);
}

// --- SDC detection -----------------------------------------------------------------

TEST(Sdc, RangeDetectorFindsNonFinite)
{
    auto ps = makeState(100, 11);
    RangeDetector<double> det;
    EXPECT_TRUE(det.scan(ps).empty()); // clean state

    ps.rho[42] = std::numeric_limits<double>::quiet_NaN();
    auto report = det.scan(ps);
    ASSERT_FALSE(report.empty());
    EXPECT_EQ(report[0].field, "rho");
    EXPECT_EQ(report[0].particle, 42u);
}

TEST(Sdc, RangeDetectorFindsNegativeDensity)
{
    auto ps = makeState(100, 12);
    ps.rho[7] = -1.0;
    RangeDetector<double> det;
    auto report = det.scan(ps);
    ASSERT_FALSE(report.empty());
    EXPECT_EQ(report[0].reason, "non-positive");
}

TEST(Sdc, TemporalDetectorCatchesJump)
{
    auto ps = makeState(100, 13);
    TemporalDetector<double> det({"x", "rho"}, 0.5);
    det.snapshot(ps);
    EXPECT_TRUE(det.scan(ps).empty()); // unchanged

    ps.x[5] *= 100.0; // corruption-sized jump
    auto report = det.scan(ps);
    ASSERT_FALSE(report.empty());
    EXPECT_EQ(report[0].field, "x");
    EXPECT_EQ(report[0].particle, 5u);
}

TEST(Sdc, TemporalDetectorIgnoresSmoothEvolution)
{
    auto ps = makeState(100, 14);
    TemporalDetector<double> det({"x"}, 0.5);
    det.snapshot(ps);
    for (auto& x : ps.x)
        x *= 1.01; // CFL-sized motion
    EXPECT_TRUE(det.scan(ps).empty());
}

TEST(Sdc, ChecksumDetectorCatchesConstantFieldCorruption)
{
    auto ps = makeState(100, 15);
    ChecksumDetector<double> det({"m"});
    det.snapshot(ps);
    EXPECT_TRUE(det.scan(ps).empty());
    ps.m[50] += 1e-9;
    auto report = det.scan(ps);
    ASSERT_FALSE(report.empty());
    EXPECT_EQ(report[0].field, "m");
}

TEST(Sdc, DetectorsFollowParticlesThroughAPermutation)
{
    // the phase-L SFC reorder permutes the set between snapshot and scan:
    // a pure permutation is no corruption, a changed value still is, and
    // the temporal report names the particle's current slot. Ids in one
    // contiguous range and ids with gaps take different temporal lookups.
    for (std::uint64_t stride : {1u, 7u})
    {
        SCOPED_TRACE(stride);
        auto ps = makeState(300, 19);
        for (std::size_t i = 0; i < ps.size(); ++i)
            ps.id[i] = 1000 + stride * i;
        TemporalDetector<double> temporal({"x", "rho"}, 0.5);
        ChecksumDetector<double> crc({"x", "m"});
        temporal.snapshot(ps);
        crc.snapshot(ps);

        std::vector<std::size_t> perm(ps.size());
        std::iota(perm.begin(), perm.end(), std::size_t(0));
        std::reverse(perm.begin(), perm.end());
        std::rotate(perm.begin(), perm.begin() + 37, perm.end());
        ps.reorder(perm);
        EXPECT_TRUE(temporal.scan(ps).empty());
        EXPECT_TRUE(crc.scan(ps).empty());

        std::size_t slot = 123;
        ps.x[slot] *= 100.0;
        auto report = temporal.scan(ps);
        ASSERT_EQ(report.size(), 1u);
        EXPECT_EQ(report[0].field, "x");
        EXPECT_EQ(report[0].particle, slot);
        auto crcReport = crc.scan(ps);
        ASSERT_EQ(crcReport.size(), 1u);
        EXPECT_EQ(crcReport[0].field, "x");
    }
}

TEST(Sdc, ConservationDetectorCatchesEnergyDrift)
{
    auto ps = makeState(100, 16);
    ConservationDetector<double> det(1e-6);
    det.snapshot(computeConservation(ps));
    EXPECT_TRUE(det.scan(computeConservation(ps)).empty());
    ps.u[0] *= 50.0;
    auto report = det.scan(computeConservation(ps));
    ASSERT_FALSE(report.empty());
}

TEST(Sdc, InjectorFlipsExactlyOneBit)
{
    auto ps = makeState(100, 17);
    auto before = ps.x[30];
    SdcInjector<double> inj{"x", 30, 52};
    inj.inject(ps);
    EXPECT_NE(ps.x[30], before);
    inj.inject(ps); // flipping again restores
    EXPECT_EQ(ps.x[30], before);
}

TEST(Sdc, HighBitFlipsAreDetectedByRangeOrTemporal)
{
    // inject exponent-bit flips into live (non-zero) fields: the combination
    // of range + temporal detectors must catch the overwhelming majority.
    // (Flips on all-zero fields produce denormal-scale values — physically
    // benign and correctly below the detection threshold.)
    const std::vector<std::string> liveFields{"x", "y", "z", "rho", "h", "m", "u"};
    Xoshiro256pp rng(99);
    int detected = 0, trials = 50;
    for (int t = 0; t < trials; ++t)
    {
        auto ps = makeState(200, 1000 + t);
        TemporalDetector<double> temporal(liveFields, 0.5);
        temporal.snapshot(ps);
        RangeDetector<double> range;

        SdcInjector<double> inj;
        inj.field = liveFields[rng.uniformInt(liveFields.size())];
        inj.index = rng.uniformInt(ps.size());
        inj.bit   = 55 + int(rng.uniformInt(8)); // exponent bits
        inj.inject(ps);

        if (!range.scan(ps).empty() || !temporal.scan(ps).empty()) ++detected;
    }
    EXPECT_GE(detected, trials * 9 / 10);
}

TEST(Sdc, CleanRunHasNoFalsePositives)
{
    auto ps = makeState(500, 18);
    RangeDetector<double> range;
    ChecksumDetector<double> crc({"m", "h"});
    crc.snapshot(ps);
    ConservationDetector<double> cons(1e-3);
    cons.snapshot(computeConservation(ps));

    EXPECT_TRUE(range.scan(ps).empty());
    EXPECT_TRUE(crc.scan(ps).empty());
    EXPECT_TRUE(cons.scan(computeConservation(ps)).empty());
}

// --- replication ------------------------------------------------------------------

TEST(Replication, DeterministicComputeAgrees)
{
    ReplicationStats stats;
    int calls = 0;
    bool ok = replicatedCompute<double>(
        [&] { ++calls; return 42.0; },
        [](double a, double b) { return a == b; }, &stats);
    EXPECT_TRUE(ok);
    EXPECT_EQ(calls, 2);
    EXPECT_EQ(stats.mismatches, 0u);
}

TEST(Replication, DetectsInjectedTransient)
{
    double state = 1.0;
    ReplicationStats stats;
    bool ok = replicatedCompute<double>(
        [&] { return state * 2.0; },
        [](double a, double b) { return a == b; }, &stats,
        [&] { state = 1.5; }); // transient fault between executions
    EXPECT_FALSE(ok);
    EXPECT_EQ(stats.mismatches, 1u);
}
