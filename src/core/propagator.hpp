#pragma once

/// \file propagator.hpp
/// The phase-pipeline ("Propagator") layer: Algorithm 1 as data.
///
/// A phase of the paper's Fig. 4 timeline is a first-class named unit — a
/// PhaseOp with a run(StepContext&) entry point — instead of a block of
/// driver code. A pipeline is an ordered list of phases grouped into
/// segments; segment boundaries carry the halo fields the distributed
/// driver must refresh before the next segment may run (the cross-rank data
/// dependencies of IAD, momentum and the Balsara limiter). The Propagator
/// runs a pipeline and applies timing, StepReport accounting and the
/// tracer's phase events uniformly — no call site hand-inserts Timer::lap().
///
/// Both drivers execute these same units:
///  - Simulation (core/simulation.hpp) runs the full pipeline in one
///    address space, ignoring the sync specs;
///  - DistributedSimulation (domain/distributed.hpp) runs each segment once
///    per rank and performs the halo refresh named at the boundary.
///
/// PipelineFactory assembles pipelines declaratively from a
/// SimulationConfig — and therefore from the Table 1/3 parent-code presets
/// of core/code_profiles.hpp. The single-rank list is built in one place
/// from the config facts each optional op needs: walls add phase K's ghost
/// bracket, a nonzero body force its op after phase H, and selfGravity
/// phase I; custom() accepts any op list for bespoke scenarios.

#include <algorithm>
#include <functional>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/step_context.hpp"
#include "perf/timer.hpp"
#include "sph/boundaries.hpp"
#include "sph/density.hpp"
#include "sph/divcurl.hpp"
#include "sph/iad.hpp"
#include "sph/momentum_energy.hpp"
#include "sph/smoothing_length.hpp"

namespace sphexa {

/// A named, first-class unit of work: one lettered phase of Algorithm 1.
template<class T>
struct PhaseOp
{
    Phase phase;
    std::function<void(StepContext<T>&)> run;
};

/// A run of consecutive phases with no cross-rank data dependency inside,
/// plus the ghost fields that must be refreshed before the next segment
/// (empty for the shared-memory driver and for the final segment).
template<class T>
struct PipelineSegment
{
    std::vector<PhaseOp<T>> ops;
    std::vector<std::string> haloFieldsAfter{};
};

/// The pipeline runner: executes phase units over a StepContext, timing
/// each one into StepReport::phaseSeconds and emitting a PhaseEvent per
/// phase when a log is attached.
template<class T>
class Propagator
{
public:
    Propagator() = default;
    explicit Propagator(std::vector<PipelineSegment<T>> segments)
        : segments_(std::move(segments))
    {
    }

    const std::vector<PipelineSegment<T>>& segments() const { return segments_; }

    /// Flattened phase order across all segments.
    std::vector<Phase> phases() const
    {
        std::vector<Phase> out;
        for (const auto& seg : segments_)
            for (const auto& op : seg.ops)
                out.push_back(op.phase);
        return out;
    }

    bool hasPhase(Phase p) const
    {
        for (const auto& seg : segments_)
            for (const auto& op : seg.ops)
                if (op.phase == p) return true;
        return false;
    }

    /// Execute one segment for one rank; the distributed driver interleaves
    /// these with the halo refreshes named in haloFieldsAfter.
    void runSegment(std::size_t segment, StepContext<T>& ctx,
                    std::array<double, phaseCount>& phaseSeconds,
                    PhaseEventLog* log = nullptr, int rank = 0) const
    {
        Timer t;
        for (const auto& op : segments_[segment].ops)
        {
            op.run(ctx);
            double sec = t.lap();
            phaseSeconds[int(op.phase)] += sec;
            if (log) log->record(rank, op.phase, sec);
        }
    }

    /// Execute the whole pipeline in one address space (shared-memory
    /// driver): sync specs are no-ops, outputs land in the report.
    void run(StepContext<T>& ctx, StepReport<T>& rep, PhaseEventLog* log = nullptr,
             int rank = 0) const
    {
        for (std::size_t s = 0; s < segments_.size(); ++s)
            runSegment(s, ctx, rep.phaseSeconds, log, rank);
        harvest(ctx, rep);
    }

    /// Copy the context's per-step outputs into the report (the runner does
    /// this in run(); the distributed driver calls it for each rank after
    /// the last segment, into the StepReport part of its RankStepReport).
    static void harvest(const StepContext<T>& ctx, StepReport<T>& rep)
    {
        rep.neighborInteractions = ctx.neighborInteractions;
        rep.activeParticles      = ctx.activeParticles;
        rep.hIterations          = ctx.hIterations;
        rep.hUnconverged         = ctx.hUnconverged;
        rep.neighborOverflow     = ctx.neighborOverflow;
        rep.gravityStats         = ctx.gravityStats;
        rep.phaseLoad            = ctx.phaseLoad;
    }

private:
    std::vector<PipelineSegment<T>> segments_;
};

/// The phase units themselves. Each body is mode-aware through the
/// StepContext (global walk, active-subset walk, or per-rank local walk) so
/// the shared-memory and distributed drivers execute the exact same code.
namespace phase_ops {

/// SFC particle reorder (phase L, tree/sfc_sort.hpp): physically sort the
/// set along the configured curve so every downstream sweep is cache-local
/// and the cluster search's fixed-size runs of consecutive particles are
/// spatially tight. Placed FIRST in the pipelines that carry it — before
/// the wall ghost bracket (ghosts never move) and before the tree build
/// (every list is rebuilt over the new order). Runs on every Global walk
/// and only there: an active-subset step reuses neighbor lists whose
/// entries reference pre-reorder slots, and the distributed driver orders
/// particles in its decomposition glue instead.
template<class T>
PhaseOp<T> sfcReorder()
{
    return {Phase::L_SfcSort, [](StepContext<T>& ctx) {
                if (ctx.walkMode != WalkMode::Global) return;
                ctx.buffers.sorter.apply(ctx.ps, ctx.box, ctx.cfg.sfcCurve);
            }};
}

template<class T>
PhaseOp<T> treeBuild()
{
    return {Phase::A_TreeBuild, [](StepContext<T>& ctx) {
                if (ctx.skipEmptyLocal()) return;
                ctx.tree.build(ctx.ps.x, ctx.ps.y, ctx.ps.z, ctx.box, treeBuildParams(ctx.cfg));
            }};
}

template<class T>
PhaseOp<T> neighborSearch()
{
    return {Phase::B_NeighborSearch, [](StepContext<T>& ctx) {
                auto& ps = ctx.ps;
                // this step's overflow accounting starts at the search
                // (phases C/D may add more via their nl.set calls)
                ctx.nl.resetOverflow();
                auto& ws  = ctx.buffers.clusters;
                auto  pol = ctx.loopPolicy(Phase::B_NeighborSearch);
                if (ctx.walkMode == WalkMode::Global)
                {
                    findNeighborsClustered(ctx.tree, ps.x, ps.y, ps.z, ps.h, ctx.nl, ws,
                                           kClusterSize, pol);
                    ctx.activeParticles = ps.size();
                    return;
                }
                // a subset walk: the controller's active bins (ActiveSubset)
                // or the rank's owned particles (LocalIndices); an empty
                // set fills nothing
                if (ctx.walkMode == WalkMode::ActiveSubset && ctx.controller)
                {
                    ctx.walkIndices = ctx.controller->activeParticles(ps);
                }
                findNeighborsClustered(ctx.tree, ps.x, ps.y, ps.z, ps.h, ctx.walkIndices, ctx.nl,
                                       ws, kClusterSize, pol);
                ctx.activeParticles = ctx.walkIndices.size();
            }};
}

template<class T>
PhaseOp<T> smoothingLength()
{
    return {Phase::C_SmoothingLength, [](StepContext<T>& ctx) {
                if (ctx.skipEmptyWalk()) return;
                SmoothingLengthParams<T> hp;
                hp.targetNeighbors = ctx.cfg.targetNeighbors;
                hp.tolerance       = ctx.cfg.neighborTolerance;
                // phase B just filled the lists for the current h (all
                // particles in Global mode, the rank's owned particles in
                // LocalIndices mode, the controller's active bins in
                // ActiveSubset mode), so the iteration never repeats the
                // initial search — one shared h path for all drivers
                auto hres = updateSmoothingLengths(ctx.ps, ctx.tree, ctx.nl, ctx.buffers.clusters,
                                                   hp, ctx.activeSpan(), /*reuseLists*/ true,
                                                   ctx.loopPolicy(Phase::C_SmoothingLength));
                ctx.hIterations  = hres.iterations;
                ctx.hUnconverged = hres.unconverged;
            }};
}

template<class T>
PhaseOp<T> neighborSymmetrize()
{
    return {Phase::D_NeighborSymmetrize, [](StepContext<T>& ctx) {
                if (ctx.skipEmptyWalk())
                {
                    ctx.neighborInteractions = 0;
                    ctx.neighborOverflow     = 0;
                    return;
                }
                // ActiveSubset lists are deliberately NOT symmetrized: an
                // inactive neighbor's list is stale by construction, so
                // pairwise antisymmetry only holds at full synchronizations
                // (where conservation is measured) — ChaNGa's trade-off.
                if (ctx.walkMode == WalkMode::Global && ctx.cfg.symmetrizeNeighbors)
                {
                    auto& pairs    = ctx.buffers.pairs;
                    const auto& ps = ctx.ps;
                    // the box the phase-B search measured its distances in
                    findMissingPairs(ctx.nl, ps.x, ps.y, ps.z, ps.h, ctx.tree.box(), pairs,
                                     std::span<const std::uint64_t>(ps.id.data(), ctx.nl.size()),
                                     ctx.loopPolicy(Phase::D_NeighborSymmetrize));
                    ctx.missingPairs = &pairs;
                }
                // phase D closes the list-building bracket (B fills, C may
                // re-walk, D buckets the missing pairs): snapshot overflow
                // here so the report reflects the rows the SPH sums read
                const auto* pairs    = ctx.missingPairs;
                ctx.neighborOverflow = ctx.nl.overflowCount() + (pairs ? pairs->cutRows : 0);
                // interaction counter: walked particles only when a subset
                // was searched (other entries are stale/ghost), whole list
                // plus the kept buckets on a global walk
                if (ctx.walkMode == WalkMode::Global)
                {
                    ctx.neighborInteractions =
                        ctx.nl.totalNeighbors() + (pairs ? pairs->keptEntries : 0);
                }
                else
                {
                    std::size_t inter = 0;
                    for (std::size_t i : ctx.walkIndices)
                        inter += ctx.nl.count(i);
                    ctx.neighborInteractions = inter;
                }
            }};
}

template<class T>
PhaseOp<T> density()
{
    return {Phase::E_Density, [](StepContext<T>& ctx) {
                if (ctx.skipEmptyWalk()) return;
                auto pol = ctx.loopPolicy(Phase::E_Density);
                // the near-free uniform VE loop must not adapt the AWF
                // weights the neighbor-bound density sum is calibrated by —
                // its noise-dominated rates would drag them off every step
                LoopPolicy vePol = pol;
                vePol.awfWeights = nullptr;
                computeVolumeElementWeights(ctx.ps, ctx.cfg.volumeElements,
                                            ctx.cfg.veExponent, vePol);
                computeDensity(ctx.ps, ctx.nl, ctx.kernel, ctx.box, ctx.activeSpan(), pol,
                               ctx.computeBackend());
            }};
}

template<class T>
PhaseOp<T> eosAndIad()
{
    return {Phase::F_EosAndIad, [](StepContext<T>& ctx) {
                if (ctx.skipEmptyWalk()) return;
                auto& ps  = ctx.ps;
                auto act  = ctx.activeSpan();
                auto pol  = ctx.loopPolicy(Phase::F_EosAndIad);
                // the cheap EOS sweep runs weightless for the same reason
                // as the VE loop of phase E: only the IAD sum below should
                // drive the phase's AWF adaptation
                LoopPolicy eosPol = pol;
                eosPol.awfWeights = nullptr;
                std::size_t count = act.empty() ? ps.size() : act.size();
                parallelFor(
                    count,
                    [&](std::size_t k, std::size_t) {
                        std::size_t i = act.empty() ? k : act[k];
                        auto res = ctx.eos(ps.rho[i], ps.u[i]);
                        ps.p[i]  = res.pressure;
                        ps.c[i]  = res.soundSpeed;
                    },
                    eosPol);
                if (ctx.cfg.gradients == GradientMode::IAD)
                {
                    computeIadCoefficients(ps, ctx.nl, ctx.kernel, ctx.box, act, pol,
                                           ctx.computeBackend());
                }
            }};
}

template<class T>
PhaseOp<T> divCurl()
{
    return {Phase::G_DivCurl, [](StepContext<T>& ctx) {
                if (ctx.skipEmptyWalk()) return;
                computeDivCurl(ctx.ps, ctx.nl, ctx.kernel, ctx.box, ctx.cfg.gradients,
                               ctx.activeSpan(), ctx.loopPolicy(Phase::G_DivCurl),
                               ctx.computeBackend());
            }};
}

template<class T>
PhaseOp<T> momentumEnergy()
{
    return {Phase::H_MomentumEnergy, [](StepContext<T>& ctx) {
                if (ctx.skipEmptyWalk()) return;
                auto stats = computeMomentumEnergy(ctx.ps, ctx.nl, ctx.kernel, ctx.box,
                                                   ctx.cfg.gradients, ctx.cfg.av,
                                                   ctx.activeSpan(),
                                                   ctx.loopPolicy(Phase::H_MomentumEnergy),
                                                   ctx.computeBackend(), &ctx.buffers.momentum,
                                                   ctx.missingPairs);
                ctx.maxVsignal = stats.maxVsignal;
            }};
}

template<class T>
PhaseOp<T> selfGravity()
{
    return {Phase::I_SelfGravity, [](StepContext<T>& ctx) {
                if (!ctx.gravity) return; // distributed glue replicates instead
                if (ctx.skipEmptyWalk()) return;
                ctx.gravity->prepare(ctx.tree, ctx.ps, ctx.cfg.gravity);
                // active-subset steps accelerate the walked targets only; the
                // accumulated potential is then partial, so conservation
                // diagnostics read it at full synchronizations (where the
                // span is the whole set). Empty span = all (Global walks).
                ctx.potentialEnergy = ctx.gravity->accumulate(
                    ctx.ps, &ctx.gravityStats, ctx.activeSpan(),
                    ctx.loopPolicy(Phase::I_SelfGravity));
            }};
}

/// Wall ghost creation (phase K, before the tree build): mirror the reals
/// across the configured walls and size the neighbor list for the enlarged
/// set. The factory adds it only to configs with walls.
template<class T>
PhaseOp<T> ghostCreate()
{
    return {Phase::K_GhostExchange, [](StepContext<T>& ctx) {
                ctx.nGhosts = appendMirrorGhosts(ctx.ps, ctx.box, ctx.cfg.boundaries);
                if (ctx.nGhosts) ctx.nl.reset(ctx.ps.size(), ctx.cfg.ngmax);
            }};
}

/// Wall ghost removal (phase K, after the force phases): truncate the
/// ghost tail so integration and conservation see real particles only.
template<class T>
PhaseOp<T> ghostRemove()
{
    return {Phase::K_GhostExchange, [](StepContext<T>& ctx) {
                if (!ctx.nGhosts) return;
                removeGhosts(ctx.ps, ctx.nGhosts);
                ctx.nl.reset(ctx.ps.size(), ctx.cfg.ngmax);
                ctx.nGhosts = 0;
            }};
}

/// Uniform body force (dam-break gravity): added onto the SPH
/// accelerations, so it shares phase H's timing slot. The factory adds it
/// only to configs with a nonzero body force.
template<class T>
PhaseOp<T> bodyForce()
{
    return {Phase::H_MomentumEnergy, [](StepContext<T>& ctx) {
                const Vec3<T>& g = ctx.cfg.constantAccel;
                auto& ps         = ctx.ps;
                parallelFor(
                    ps.size(),
                    [&](std::size_t i, std::size_t) {
                        ps.ax[i] += g.x;
                        ps.ay[i] += g.y;
                        ps.az[i] += g.z;
                    },
                    ctx.loopPolicy(Phase::H_MomentumEnergy));
            }};
}

} // namespace phase_ops

/// Assembles pipelines declaratively from a SimulationConfig (and therefore
/// from the code_profiles.hpp presets).
template<class T>
class PipelineFactory
{
public:
    /// Shared-memory pipeline for a configuration: phase L's SFC reorder,
    /// then A..H, each optional op added by the config fact it needs —
    /// walls bracket the force phases with phase K's mirror ghosts (create
    /// before the tree build, remove after the forces), a nonzero
    /// constantAccel adds the body force after phase H, and selfGravity
    /// adds phase I. Binned integration (the paper's Table 1/2 ChaNGa row)
    /// runs the same list; only the driver's walk mode differs: on an
    /// ActiveSubset walk phase B fills and walks the controller's force set
    /// (see sph/timestep.hpp), C iterates h for it and D..H(..I) evaluate
    /// the subset only, while inactive particles are merely drifted.
    static Propagator<T> singleRank(const SimulationConfig<T>& cfg)
    {
        const bool walls = cfg.boundaries.anyWall();
        std::vector<PhaseOp<T>> ops{phase_ops::sfcReorder<T>()};
        if (walls) ops.push_back(phase_ops::ghostCreate<T>());
        ops.insert(ops.end(), {phase_ops::treeBuild<T>(), phase_ops::neighborSearch<T>(),
                               phase_ops::smoothingLength<T>(),
                               phase_ops::neighborSymmetrize<T>(), phase_ops::density<T>(),
                               phase_ops::eosAndIad<T>(), phase_ops::divCurl<T>(),
                               phase_ops::momentumEnergy<T>()});
        if (hasBodyForce(cfg)) ops.push_back(phase_ops::bodyForce<T>());
        if (cfg.selfGravity) ops.push_back(phase_ops::selfGravity<T>());
        if (walls) ops.push_back(phase_ops::ghostRemove<T>());
        return custom(std::move(ops));
    }

    /// Distributed per-rank pipeline for a configuration: the same phase
    /// units grouped into segments, with the ghost fields each cross-rank
    /// data dependency needs refreshed at the boundaries (IAD reads the
    /// neighbors' density-pass volumes, momentum their EOS + IAD outputs,
    /// the AV limiter their Balsara value). Self-gravity is not a per-rank
    /// phase: the driver replicates the tree in its reduction glue.
    static Propagator<T> distributed(const SimulationConfig<T>&)
    {
        std::vector<PipelineSegment<T>> segs;
        segs.push_back({{phase_ops::treeBuild<T>(), phase_ops::neighborSearch<T>(),
                         phase_ops::smoothingLength<T>(),
                         phase_ops::neighborSymmetrize<T>(), phase_ops::density<T>()},
                        {"h", "rho", "vol", "gradh", "xmass"}});
        segs.push_back({{phase_ops::eosAndIad<T>()},
                        {"p", "c", "c11", "c12", "c13", "c22", "c23", "c33"}});
        segs.push_back({{phase_ops::divCurl<T>()}, {"balsara", "divv", "curlv"}});
        segs.push_back({{phase_ops::momentumEnergy<T>()}, {}});
        return Propagator<T>(std::move(segs));
    }

    /// A bespoke single-segment pipeline from any op list.
    static Propagator<T> custom(std::vector<PhaseOp<T>> ops)
    {
        std::vector<PipelineSegment<T>> segs;
        segs.push_back({std::move(ops), {}});
        return Propagator<T>(std::move(segs));
    }
};

} // namespace sphexa
