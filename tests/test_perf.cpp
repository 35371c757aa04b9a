/// Performance substrate tests: network model values, machine threading
/// model, tracer bookkeeping and rendering, POP metrics on analytic cases,
/// cost-model calibration sanity, and workload-probe invariants (including
/// the halo-fraction growth that drives the paper's scaling stall).

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "ic/square_patch.hpp"
#include "perf/cluster_sim.hpp"
#include "perf/cost_model.hpp"
#include "perf/machine.hpp"
#include "perf/netmodel.hpp"
#include "perf/pop_metrics.hpp"
#include "perf/tracer.hpp"

using namespace sphexa;

// --- machine / network models -------------------------------------------------

TEST(Machine, PaperCoreCounts)
{
    // the figures' x-axis: "Piz Daint=12c/cn, MareNostrum=48c/cn"
    EXPECT_EQ(pizDaint().coresPerNode, 12);
    EXPECT_EQ(mareNostrum4().coresPerNode, 48);
}

TEST(Machine, ThreadSpeedupMonotone)
{
    auto m = pizDaint();
    double prev = 0;
    for (int t : {1, 2, 4, 8, 12})
    {
        double s = m.threadSpeedup(t);
        EXPECT_GT(s, prev);
        EXPECT_LE(s, double(t) + 1e-12); // never super-linear
        prev = s;
    }
}

TEST(NetModel, HockneyPointToPoint)
{
    NetworkModel net(NetworkParams{1e-6, 1e10, "test"});
    EXPECT_NEAR(net.pointToPoint(0), 1e-6, 1e-12);
    EXPECT_NEAR(net.pointToPoint(1000000), 1e-6 + 1e-4, 1e-10);
}

TEST(NetModel, CollectivesScaleLogarithmically)
{
    NetworkModel net(NetworkParams{1e-6, 1e10, "test"});
    double t2  = net.allreduce(2, 8);
    double t16 = net.allreduce(16, 8);
    double t1024 = net.allreduce(1024, 8);
    EXPECT_LT(t2, t16);
    EXPECT_LT(t16, t1024);
    // latency-dominated small allreduce: ratio ~ log ratio
    EXPECT_NEAR(t1024 / t16, 10.0 / 4.0, 0.5);
    EXPECT_DOUBLE_EQ(net.allreduce(1, 8), 0.0);
}

TEST(NetModel, BatchSerializesMessages)
{
    NetworkModel net(NetworkParams{1e-6, 1e9, "test"});
    EXPECT_NEAR(net.p2pBatch(10, 1000), 10e-6 + 1e-6, 1e-9);
}

// --- tracer ---------------------------------------------------------------------

TEST(Tracer, RecordsAndAggregates)
{
    Tracer tr(2, 2);
    tr.record(0, 0, ActivityState::Computing, Phase::E_Density, 0.0, 1.0);
    tr.record(0, 1, ActivityState::Idle, Phase::E_Density, 0.0, 1.0);
    tr.record(0, 0, ActivityState::MpiCollective, Phase::J_TimestepUpdate, 1.0, 1.5);
    EXPECT_DOUBLE_EQ(tr.endTime(), 1.5);
    EXPECT_DOUBLE_EQ(tr.usefulSeconds(0, 0), 1.0);
    EXPECT_DOUBLE_EQ(tr.usefulSeconds(0, 1), 0.0);
    EXPECT_DOUBLE_EQ(tr.commSeconds(0, 0), 0.5);

    auto breakdown = tr.phaseStateBreakdown();
    EXPECT_DOUBLE_EQ((breakdown[{Phase::E_Density, ActivityState::Computing}]), 1.0);
}

TEST(Tracer, ZeroLengthIntervalsIgnored)
{
    Tracer tr(1, 1);
    tr.record(0, 0, ActivityState::Computing, Phase::A_TreeBuild, 1.0, 1.0);
    EXPECT_TRUE(tr.intervals().empty());
}

TEST(Tracer, AsciiRenderingShowsStates)
{
    Tracer tr(1, 2);
    tr.record(0, 0, ActivityState::Computing, Phase::A_TreeBuild, 0.0, 1.0);
    tr.record(0, 1, ActivityState::Idle, Phase::A_TreeBuild, 0.0, 1.0);
    auto s = tr.renderAscii(40);
    EXPECT_NE(s.find('#'), std::string::npos); // computing glyph
    EXPECT_NE(s.find("r00.t00"), std::string::npos);
    EXPECT_NE(s.find("r00.t01"), std::string::npos);
    EXPECT_NE(s.find('A'), std::string::npos); // phase header letter
}

TEST(Tracer, AsciiHeaderLettersPhasesPastJ)
{
    // K and L follow J in Phase; their letters must reach the header as
    // letters, never as a NUL byte or a read past the end of "A..J"
    std::vector<std::array<double, phaseCount>> phases(1);
    phases[0][int(Phase::A_TreeBuild)]     = 1.0;
    phases[0][int(Phase::K_GhostExchange)] = 1.0;
    phases[0][int(Phase::L_SfcSort)]       = 1.0;
    auto s = expandTrace<double>(phases, {0.0}, 2, sphexaParallelism()).renderAscii(60);
    std::string header = s.substr(0, s.find('\n'));
    EXPECT_NE(header.find('A'), std::string::npos) << header;
    EXPECT_NE(header.find('K'), std::string::npos) << header;
    EXPECT_NE(header.find('L'), std::string::npos) << header;
    EXPECT_EQ(s.find('\0'), std::string::npos);
}

TEST(Tracer, CsvExport)
{
    Tracer tr(1, 1);
    tr.record(0, 0, ActivityState::Computing, Phase::E_Density, 0.0, 2.0);
    std::ostringstream os;
    tr.writeCsv(os);
    EXPECT_NE(os.str().find("Computing"), std::string::npos);
    EXPECT_NE(os.str().find("E:density"), std::string::npos);
}

TEST(Tracer, ExpandSerialTreeBuildShowsIdleThreads)
{
    // one rank, 4 threads; phase A fully serial: threads 1-3 idle during A
    std::vector<std::array<double, phaseCount>> phases(1);
    phases[0][int(Phase::A_TreeBuild)] = 1.0;
    phases[0][int(Phase::E_Density)]   = 1.0;
    auto par = sphynx131Parallelism();
    auto tr = expandTrace<double>(phases, {0.01}, 4, par);

    // thread 0 works through A; thread 1 does ~nothing during A
    double u0 = tr.usefulSeconds(0, 0);
    double u1 = tr.usefulSeconds(0, 1);
    EXPECT_GT(u0, u1 + 0.8); // ~the serial second of phase A
}

TEST(Tracer, ExpandParallelProfileIsBalanced)
{
    std::vector<std::array<double, phaseCount>> phases(1);
    phases[0][int(Phase::E_Density)] = 1.0;
    auto tr = expandTrace<double>(phases, {0.0}, 4, sphexaParallelism());
    auto m = computePopMetrics(tr);
    EXPECT_GT(m.loadBalance, 0.9);
}

// --- POP metrics -------------------------------------------------------------------

TEST(Pop, PerfectlyBalancedRun)
{
    std::vector<double> useful{1.0, 1.0, 1.0, 1.0};
    auto m = computePopMetrics(useful, 1.0);
    EXPECT_DOUBLE_EQ(m.loadBalance, 1.0);
    EXPECT_DOUBLE_EQ(m.communicationEfficiency, 1.0);
    EXPECT_DOUBLE_EQ(m.parallelEfficiency, 1.0);
}

TEST(Pop, ImbalancedRun)
{
    // one straggler: LB = avg/max = (0.5*3+1)/4 / 1 = 0.625
    std::vector<double> useful{0.5, 0.5, 0.5, 1.0};
    auto m = computePopMetrics(useful, 1.0);
    EXPECT_DOUBLE_EQ(m.loadBalance, 0.625);
    EXPECT_DOUBLE_EQ(m.communicationEfficiency, 1.0);
    EXPECT_DOUBLE_EQ(m.parallelEfficiency, 0.625);
}

TEST(Pop, CommunicationBoundRun)
{
    // everyone busy half the time, the rest in MPI: CE = 0.5
    std::vector<double> useful{0.5, 0.5};
    auto m = computePopMetrics(useful, 1.0);
    EXPECT_DOUBLE_EQ(m.communicationEfficiency, 0.5);
    EXPECT_DOUBLE_EQ(m.loadBalance, 1.0);
}

TEST(Pop, ScalabilityAgainstReference)
{
    std::vector<double> ref{1.0, 1.0};
    auto mRef = computePopMetrics(ref, 1.0);
    // at 4 cores the same total useful work (perfect scalability)
    std::vector<double> wide{0.5, 0.5, 0.5, 0.5};
    auto m4 = withScalability(computePopMetrics(wide, 0.5), mRef);
    EXPECT_NEAR(m4.computationScalability, 1.0, 1e-12);
    // replicated work (total useful doubled): CS = 0.5
    std::vector<double> bloated{1.0, 1.0, 1.0, 1.0};
    auto mB = withScalability(computePopMetrics(bloated, 1.0), mRef);
    EXPECT_NEAR(mB.computationScalability, 0.5, 1e-12);
}

TEST(Pop, RejectsEmptyInput)
{
    std::vector<double> empty;
    EXPECT_THROW(computePopMetrics(empty, 1.0), std::invalid_argument);
}

// --- cost model ----------------------------------------------------------------------

TEST(CostModel, CalibrationProducesSaneNumbers)
{
    auto cm = CostModel::calibrate(12, 40);
    EXPECT_GT(cm.secondsPerSphInteraction, 1e-12);
    EXPECT_LT(cm.secondsPerSphInteraction, 1e-3);
    EXPECT_GT(cm.secondsPerNeighborSearch, 1e-12);
    EXPECT_LT(cm.secondsPerNeighborSearch, 1e-3);
    EXPECT_GT(cm.secondsPerTreeParticle, 1e-12);
    EXPECT_LT(cm.secondsPerTreeParticle, 1e-3);
    EXPECT_GT(cm.secondsPerGravityInteraction, 1e-12);
    EXPECT_LT(cm.secondsPerGravityInteraction, 1e-3);
}

// --- workload probe -----------------------------------------------------------------

namespace {

ParticleSetD smallPatch(Box<double>& boxOut)
{
    ParticleSetD ps;
    SquarePatchConfig<double> pc;
    pc.nx = pc.ny = 16;
    pc.nz = 8;
    auto setup = makeSquarePatch(ps, pc);
    boxOut = setup.box;
    return ps;
}

} // namespace

TEST(Probe, CountsArePlausible)
{
    Box<double> box;
    auto ps = smallPatch(box);
    SimulationConfig<double> cfg;
    cfg.targetNeighbors = 50;
    cfg.neighborTolerance = 10;

    auto probe = probeWorkload(ps, box, cfg, 4);
    EXPECT_EQ(probe.ranks, 4);
    EXPECT_EQ(probe.totalParticles, ps.size());

    std::size_t locals = 0, inter = 0;
    for (int r = 0; r < 4; ++r)
    {
        locals += probe.localParticles[r];
        inter += probe.sphInteractions[r];
        EXPECT_GT(probe.haloBytesSent[r], 0u);
        EXPECT_GE(probe.treeParticles[r], probe.localParticles[r]);
    }
    EXPECT_EQ(locals, ps.size());
    // ~50 neighbors per particle
    EXPECT_NEAR(double(inter) / double(ps.size()), 50.0, 20.0);
}

TEST(Probe, HaloFractionGrowsWithRanks)
{
    // the mechanism behind the paper's strong-scaling stall: ghosts per
    // local particle grow as subdomains shrink
    Box<double> box;
    auto ps = smallPatch(box);
    SimulationConfig<double> cfg;
    cfg.targetNeighbors = 50;
    cfg.neighborTolerance = 10;

    auto ghostFraction = [&](int R) {
        auto probe = probeWorkload(ps, box, cfg, R);
        double ghosts = 0, locals = 0;
        for (int r = 0; r < R; ++r)
        {
            ghosts += double(probe.treeParticles[r] - probe.localParticles[r]);
            locals += double(probe.localParticles[r]);
        }
        return ghosts / locals;
    };
    double f2 = ghostFraction(2);
    double f8 = ghostFraction(8);
    EXPECT_GT(f8, f2);
}

TEST(Probe, GravityCountsOnlyWithSelfGravity)
{
    Box<double> box;
    auto ps = smallPatch(box);
    SimulationConfig<double> cfg;
    cfg.targetNeighbors = 50;
    auto probeNoG = probeWorkload(ps, box, cfg, 2);
    for (auto g : probeNoG.gravityInteractions)
        EXPECT_EQ(g, 0u);

    cfg.selfGravity = true;
    auto probeG = probeWorkload(ps, box, cfg, 2);
    for (auto g : probeG.gravityInteractions)
        EXPECT_GT(g, 0u);
}

// --- cluster simulator -----------------------------------------------------------------

TEST(ClusterSim, RanksAndThreadsMapping)
{
    auto daint = pizDaint();
    EXPECT_EQ(ClusterSimulator::ranksAndThreads(12, daint), std::make_pair(1, 12));
    EXPECT_EQ(ClusterSimulator::ranksAndThreads(384, daint), std::make_pair(32, 12));
    auto mn = mareNostrum4();
    EXPECT_EQ(ClusterSimulator::ranksAndThreads(12, mn), std::make_pair(1, 12));
    EXPECT_EQ(ClusterSimulator::ranksAndThreads(384, mn), std::make_pair(8, 48));
}

TEST(ClusterSim, StrongScalingShape)
{
    Box<double> box;
    auto ps = smallPatch(box);
    SimulationConfig<double> cfg;
    cfg.targetNeighbors = 50;
    cfg.neighborTolerance = 10;

    CostModel cm; // defaults are fine for shape testing
    ClusterSimulator sim(cm);
    ScalingConfig sc;
    sc.machine = pizDaint();
    sc.targetParticles = 1000000;

    std::vector<ScalingPoint> pts;
    for (int cores : {12, 48, 192})
    {
        auto [ranks, threads] = ClusterSimulator::ranksAndThreads(cores, sc.machine);
        (void)threads;
        auto probe = probeWorkload(ps, box, cfg, ranks);
        pts.push_back(sim.predict(probe, cores, sc));
    }
    // strong scaling: more cores, less time per step
    EXPECT_LT(pts[1].seconds, pts[0].seconds);
    EXPECT_LT(pts[2].seconds, pts[1].seconds);
    // but efficiency decays: speedup(192/12) < 16
    double speedup = pts[0].seconds / pts[2].seconds;
    EXPECT_LT(speedup, 16.0);
    EXPECT_GT(speedup, 2.0);
}

TEST(ClusterSim, AnchorNormalization)
{
    std::vector<ScalingPoint> pts{{12, 2.0, 1.5, 0.5, 1.0}, {24, 1.0, 0.8, 0.2, 1.0}};
    normalizeToAnchor(pts, 12, 38.25);
    EXPECT_NEAR(pts[0].seconds, 38.25, 1e-9);
    EXPECT_NEAR(pts[1].seconds, 38.25 / 2, 1e-9);
}

TEST(ClusterSim, SerialTreeBuildHurtsAtHighThreadCounts)
{
    Box<double> box;
    auto ps = smallPatch(box);
    SimulationConfig<double> cfg;
    cfg.targetNeighbors = 50;
    auto probe = probeWorkload(ps, box, cfg, 1);

    CostModel cm;
    cm.secondsPerTreeParticle = 1e-6; // make the tree phase visible
    ClusterSimulator sim(cm);
    ScalingConfig serial, parallel;
    serial.serialTreeBuild = true;
    parallel.serialTreeBuild = false;

    auto pSerial   = sim.predict(probe, 12, serial);
    auto pParallel = sim.predict(probe, 12, parallel);
    EXPECT_GT(pSerial.seconds, pParallel.seconds);
}
