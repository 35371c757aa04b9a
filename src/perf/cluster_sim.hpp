#pragma once

/// \file cluster_sim.hpp
/// Strong-scaling predictor: the substitution for Piz Daint / MareNostrum 4
/// (see docs/DESIGN.md). Reproduces Figures 1-3 of the paper.
///
/// The pipeline has two halves:
///
///  1. probeWorkload() — runs the REAL algorithms at a reduced particle
///     count: the chosen domain decomposition (ORB or SFC), the halo
///     exchange (with counted traffic), per-rank tree builds, per-rank
///     neighbor searches with the h iteration, and the per-rank gravity
///     walk. The outputs are per-rank WORK COUNTS (interactions, tree
///     sizes, halo bytes), so decomposition imbalance and the growing halo
///     fraction at low particles-per-rank — the physics behind the paper's
///     scaling stall — come from the actual code, not a formula.
///
///  2. ClusterSimulator::predict() — converts counts into per-rank times
///     with the calibrated CostModel, the machine's core speed / intra-node
///     threading model, and the Hockney network model, then takes the BSP
///     critical path: T_step = max_r compute_r + max_r comm_r.
///
/// Absolute times are finally pinned to the paper's measured value at one
/// anchor point per figure (normalizeToAnchor), preserving the predicted
/// *shape* across core counts.

#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "core/config.hpp"
#include "domain/box.hpp"
#include "domain/halo.hpp"
#include "parallel/comm.hpp"
#include "perf/cost_model.hpp"
#include "perf/machine.hpp"
#include "perf/netmodel.hpp"
#include "sph/smoothing_length.hpp"
#include "tree/cluster_list.hpp"
#include "tree/gravity.hpp"
#include "tree/octree.hpp"

namespace sphexa {

/// Per-rank work counts measured by one probe step at reduced scale.
struct WorkloadProbe
{
    int ranks = 1;
    std::size_t totalParticles = 0;
    std::vector<std::size_t> localParticles;
    std::vector<std::size_t> treeParticles;       ///< local + ghosts
    std::vector<std::size_t> sphInteractions;     ///< neighbor pairs of locals
    std::vector<std::size_t> gravityInteractions; ///< P2P + M2P of locals
    std::vector<std::size_t> haloBytesSent;
    std::vector<std::size_t> haloMessagesSent;

    /// max/mean work imbalance of the SPH interactions.
    double interactionImbalance() const
    {
        double mx = 0, sum = 0;
        for (auto w : sphInteractions)
        {
            mx = std::max(mx, double(w));
            sum += double(w);
        }
        return sum > 0 ? mx * double(ranks) / sum : 1.0;
    }
};

/// Execute one probe step over \p ranks simulated ranks.
template<class T>
WorkloadProbe probeWorkload(const ParticleSet<T>& global, const Box<T>& box,
                            const SimulationConfig<T>& cfg, int ranks)
{
    WorkloadProbe probe;
    probe.ranks = ranks;
    probe.totalParticles = global.size();
    probe.localParticles.assign(ranks, 0);
    probe.treeParticles.assign(ranks, 0);
    probe.sphInteractions.assign(ranks, 0);
    probe.gravityInteractions.assign(ranks, 0);
    probe.haloBytesSent.assign(ranks, 0);
    probe.haloMessagesSent.assign(ranks, 0);

    // real decomposition
    std::vector<T> weights(global.size(), T(1));
    auto assignment = decomposeDomain<T>(cfg, global.x, global.y, global.z, weights, ranks, box);

    std::vector<ParticleSet<T>> locals(ranks);
    for (std::size_t i = 0; i < global.size(); ++i)
    {
        locals[assignment[i]].appendFrom(global, i);
    }
    for (int r = 0; r < ranks; ++r)
        probe.localParticles[r] = locals[r].size();

    // real halo exchange with counted traffic
    simmpi::Communicator comm(ranks);
    std::vector<HaloMap> maps(ranks);
    T hmax = T(0);
    for (T h : global.h)
        hmax = std::max(hmax, h);
    exchangeHalos(comm, locals, maps, box, T(2) * hmax * T(1.2));
    for (int r = 0; r < ranks; ++r)
    {
        probe.haloBytesSent[r]    = comm.traffic(r).bytesSent;
        probe.haloMessagesSent[r] = comm.traffic(r).messagesSent;
        probe.treeParticles[r]    = locals[r].size();
    }

    // per-rank tree build + neighbor search for locals (with h iteration)
    ClusterWorkspace<T> ws;
    SmoothingLengthParams<T> hp;
    hp.targetNeighbors = cfg.targetNeighbors;
    hp.tolerance       = cfg.neighborTolerance;
    hp.maxIterations   = 5;
    for (int r = 0; r < ranks; ++r)
    {
        auto& ps = locals[r];
        std::size_t nLoc = probe.localParticles[r];
        if (nLoc == 0) continue;

        Octree<T> tree;
        tree.build(ps.x, ps.y, ps.z, box, treeBuildParams(cfg));

        std::vector<std::size_t> localIdx(nLoc);
        std::iota(localIdx.begin(), localIdx.end(), std::size_t(0));
        NeighborList<T> nl(ps.size(), cfg.ngmax);
        findNeighborsClustered(tree, ps.x, ps.y, ps.z, ps.h, localIdx, nl, ws, kClusterSize);
        updateSmoothingLengths(ps, tree, nl, ws, hp, localIdx, /*reuseLists*/ true);
        std::size_t inter = 0;
        for (std::size_t i = 0; i < nLoc; ++i)
            inter += nl.count(i);
        probe.sphInteractions[r] = inter;
    }

    // gravity probe (replicated tree, per-rank targets)
    if (cfg.selfGravity)
    {
        ParticleSet<T> rep = global;
        typename Octree<T>::BuildParams bp;
        bp.leafSize = 16;
        Octree<T> tree;
        tree.build(rep.x, rep.y, rep.z, box, bp);
        GravitySolver<T> solver;
        solver.prepare(tree, rep, cfg.gravity);
        std::vector<std::vector<std::size_t>> targetsOf(ranks);
        for (std::size_t i = 0; i < global.size(); ++i)
        {
            targetsOf[assignment[i]].push_back(i);
        }
        for (int r = 0; r < ranks; ++r)
        {
            GravityStats gs;
            solver.accumulate(rep, &gs, targetsOf[r]);
            probe.gravityInteractions[r] = gs.p2pInteractions + gs.m2pInteractions;
        }
    }

    return probe;
}

/// Prediction target and code-specific factors.
struct ScalingConfig
{
    Machine machine = pizDaint();
    std::size_t targetParticles = 1000000; ///< paper: 10^6
    double costScale = 1.0;       ///< per-code factor (CodeProfile)
    double activityFactor = 1.0;  ///< individual time-stepping work fraction
    bool serialTreeBuild = false; ///< SPHYNX v1.3.1: phase A not threaded
    double collectivesPerStep = 4.0; ///< dt + conservation reductions
};

struct ScalingPoint
{
    int cores = 0;
    double seconds = 0;
    double computeSeconds = 0;
    double commSeconds = 0;
    double loadBalance = 1.0; ///< mean/max of per-rank compute
};

/// Convert a probe into a predicted time per time-step.
class ClusterSimulator
{
public:
    explicit ClusterSimulator(CostModel cm) : cm_(cm) {}

    const CostModel& costModel() const { return cm_; }

    /// Map a core count onto (ranks, threads per rank): one rank per node,
    /// partial nodes allowed below one full node.
    static std::pair<int, int> ranksAndThreads(int cores, const Machine& m)
    {
        int nodes = std::max(1, cores / m.coresPerNode);
        int threads = std::max(1, cores / nodes);
        return {nodes, threads};
    }

    ScalingPoint predict(const WorkloadProbe& probe, int cores,
                         const ScalingConfig& sc) const
    {
        auto [ranks, threads] = ranksAndThreads(cores, sc.machine);
        (void)ranks; // the probe was taken at this rank count

        double scale = double(sc.targetParticles) / double(probe.totalParticles);
        // gravity interaction counts grow ~ N log N
        double gravScale =
            scale * std::log2(double(sc.targetParticles)) /
            std::log2(std::max<double>(2.0, double(probe.totalParticles)));

        double speedup = sc.machine.threadSpeedup(threads);
        NetworkModel net(sc.machine.network);

        double maxCompute = 0, sumCompute = 0, maxComm = 0;
        for (int r = 0; r < probe.ranks; ++r)
        {
            double inter = double(probe.sphInteractions[r]) * scale;
            // 4 pipeline passes (density, IAD, div/curl, momentum) + the
            // tree-walk search itself (~2 walks with the h iteration)
            double tSph    = inter * 4.0 * cm_.secondsPerSphInteraction;
            double tSearch = inter * 2.0 * cm_.secondsPerNeighborSearch;
            double tOver = double(probe.localParticles[r]) * scale *
                           cm_.secondsPerParticleOverhead;
            double tGrav = double(probe.gravityInteractions[r]) * gravScale *
                           cm_.secondsPerGravityInteraction;
            double tTree =
                double(probe.treeParticles[r]) * scale * cm_.secondsPerTreeParticle;

            double parallel = (tSph + tSearch + tOver + tGrav) * sc.activityFactor;
            double compute  = parallel / speedup +
                             (sc.serialTreeBuild ? tTree : tTree / speedup);
            compute *= sc.costScale / sc.machine.coreSpeed;

            maxCompute = std::max(maxCompute, compute);
            sumCompute += compute;

            double comm =
                net.p2pBatch(probe.haloMessagesSent[r],
                             std::size_t(double(probe.haloBytesSent[r]) * scale)) +
                sc.collectivesPerStep * net.allreduce(probe.ranks, sizeof(double));
            maxComm = std::max(maxComm, comm);
        }

        ScalingPoint pt;
        pt.cores          = cores;
        pt.computeSeconds = maxCompute;
        pt.commSeconds    = maxComm;
        pt.seconds        = maxCompute + maxComm;
        pt.loadBalance =
            maxCompute > 0 ? sumCompute / (double(probe.ranks) * maxCompute) : 1.0;
        return pt;
    }

private:
    CostModel cm_;
};

/// Scale a predicted series so that the point at \p anchorCores equals the
/// paper's measured \p anchorSeconds (per-figure calibration; the shape is
/// untouched).
inline void normalizeToAnchor(std::vector<ScalingPoint>& points, int anchorCores,
                              double anchorSeconds)
{
    double raw = 0;
    for (const auto& p : points)
    {
        if (p.cores == anchorCores) raw = p.seconds;
    }
    if (raw <= 0) return;
    double f = anchorSeconds / raw;
    for (auto& p : points)
    {
        p.seconds *= f;
        p.computeSeconds *= f;
        p.commSeconds *= f;
    }
}

} // namespace sphexa
