#pragma once

/// \file distributed.hpp
/// Distributed-memory SPH driver: the "MPI+X" reference implementation of
/// Table 4, running over the simulated communicator (parallel/comm.hpp).
///
/// Every step executes the full distributed workflow of a production SPH
/// code:
///   1. domain decomposition (ORB or SFC, Table 4) + particle migration
///   2. halo exchange with a 2 h_max margin
///   3. per-rank Algorithm-1 phases A..H through the SAME phase units the
///      shared-memory driver runs (core/propagator.hpp), segment by
///      segment; the ghost-field refreshes between segments come from the
///      pipeline's declarative halo-sync specs
///   4. self-gravity via a replicated tree (positions/masses allgathered —
///      the communication is counted; see docs/DESIGN.md substitution notes)
///   5. global time-step reduction (allreduce-min), local update
///
/// Only decomposition, migration, halo exchange and the global reductions
/// live here; the phase bodies are the propagator's. Per-rank phase wall
/// times are recorded uniformly by the pipeline runner (attach a
/// PhaseEventLog to trace them); they drive the POP metrics, the Fig. 4
/// trace, and the strong-scaling predictions of perf/cluster_sim.hpp.
///
/// See docs/ARCHITECTURE.md for the stage-by-stage pipeline walk-through.

#include <cmath>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "backend/lane_kernel.hpp"
#include "core/config.hpp"
#include "core/propagator.hpp"
#include "core/simulation.hpp"
#include "domain/box.hpp"
#include "domain/halo.hpp"
#include "domain/orb.hpp"
#include "domain/sfc_partition.hpp"
#include "domain/slab.hpp"
#include "parallel/comm.hpp"
#include "perf/timer.hpp"
#include "sph/conservation.hpp"
#include "sph/eos.hpp"

namespace sphexa {

/// Per-rank, per-step measurements.
template<class T>
struct RankStepReport
{
    std::array<double, phaseCount> phaseSeconds{};
    /// Per-worker busy times of the rank's ParallelFor loops, by phase
    /// (the intra-rank load-balance axis of the POP hierarchy).
    std::array<PhaseLoadStats, phaseCount> phaseLoad{};
    double decompositionSeconds = 0;
    double haloSeconds = 0;
    std::size_t localParticles = 0;
    std::size_t ghostParticles = 0;
    std::size_t neighborInteractions = 0;
    /// The rank's list health, as StepReport carries it: rows cut at
    /// ngmax, particles phase C left outside the tolerance band, and its
    /// iterations.
    std::size_t neighborOverflow = 0;
    std::size_t hUnconverged     = 0;
    unsigned hIterations         = 0;
    simmpi::Traffic traffic{}; ///< traffic sent this step

    double computeSeconds() const
    {
        double s = 0;
        for (double p : phaseSeconds)
            s += p;
        return s;
    }
};

/// Whole-step view across ranks.
template<class T>
struct DistributedStepReport
{
    T dt = T(0);
    T time = T(0);
    std::uint64_t step = 0;
    std::vector<RankStepReport<T>> ranks;

    /// POP load balance of the compute time: mean/max across ranks.
    double loadBalance() const
    {
        double mx = 0, sum = 0;
        for (const auto& r : ranks)
        {
            double c = r.computeSeconds();
            mx = std::max(mx, c);
            sum += c;
        }
        return mx > 0 ? sum / (double(ranks.size()) * mx) : 1.0;
    }
};

/// Distributed-memory simulation over P simulated ranks. Runs the
/// compressible pipeline at one global dt; the constructor rejects
/// (std::invalid_argument) a WeaklyCompressible config, whose mirror ghosts
/// and body force the distributed assembly lacks, and any timestep mode but
/// Global, since its dt is a bare global minimum.
template<class T>
class DistributedSimulation
{
public:
    DistributedSimulation(ParticleSet<T> global, Box<T> box, Eos<T> eos,
                          SimulationConfig<T> cfg, int nRanks)
        : comm_(nRanks)
        , box_(box)
        , eos_(std::move(eos))
        , cfg_(std::move(cfg))
        , kernel_(cfg_.kernel, cfg_.sincExponent)
        , laneKernel_(kernel_)
        , pipeline_(PipelineFactory<T>::distributed(cfg_))
        , locals_(nRanks)
        , maps_(nRanks)
        , nLocal_(nRanks, 0)
    {
        if (global.empty())
            throw std::invalid_argument("DistributedSimulation: empty particle set");
        if (cfg_.hydroMode != HydroMode::Compressible)
            throw std::invalid_argument(
                "DistributedSimulation: only Compressible hydro is supported");
        if (cfg_.timestep.mode != TimesteppingMode::Global)
            throw std::invalid_argument(
                "DistributedSimulation: only Global time-stepping is supported");
        // initial decomposition: all particles start on rank 0 and are
        // migrated, as a real code would bootstrap
        locals_[0] = std::move(global);
        nLocal_[0] = locals_[0].size();
        DistributedStepReport<T> bootstrap;
        bootstrap.ranks.resize(nRanks);
        computeAllForces(bootstrap);
    }

    int ranks() const { return comm_.size(); }
    const Box<T>& box() const { return box_; }
    T time() const { return time_; }
    std::uint64_t step() const { return stepCount_; }
    const simmpi::Communicator& comm() const { return comm_; }
    const SimulationConfig<T>& config() const { return cfg_; }

    std::size_t localCount(int rank) const { return nLocal_[rank]; }

    /// The per-rank force pipeline (phases A..H in halo-synced segments).
    const Propagator<T>& pipeline() const { return pipeline_; }

    /// Attach a tracer log: the pipeline runner emits one PhaseEvent per
    /// (rank, phase) into it (pass nullptr to detach).
    void attachPhaseLog(PhaseEventLog* log) { log_ = log; }

    /// Advance one step (kick-drift-kick, matching the shared-memory
    /// driver); returns per-rank measurements.
    DistributedStepReport<T> advance()
    {
        DistributedStepReport<T> rep;
        rep.ranks.resize(comm_.size());
        comm_.resetTraffic();
        // events carry the step id the returned report will have
        if (log_) log_->beginStep(stepCount_ + 1);

        // phase J part 1: global dt from the current forces, then
        // first kick + drift on every rank
        std::vector<T> dtContrib(comm_.size());
        for (int r = 0; r < comm_.size(); ++r)
        {
            T dtMin = cfg_.timestep.maxDt;
            auto& ps = locals_[r];
            for (std::size_t i = 0; i < ps.size(); ++i)
            {
                dtMin = std::min(dtMin,
                                 particleTimestep(ps, i, lastMaxVsig_, cfg_.timestep));
            }
            dtContrib[r] = dtMin;
        }
        T dtStep = comm_.allreduceMin<T>(dtContrib);
        if (firstStep_)
        {
            dtStep = std::min(dtStep, cfg_.timestep.initialDt);
            firstStep_ = false;
        }
        // phase J runs under the configured strategy on every rank, like
        // the pipeline phases; drift + energy times join the rank's J slot
        rankAwf_.resize(comm_.size());
        std::vector<PhaseLoadStats> jLoad(comm_.size());
        std::vector<double> jSeconds(comm_.size(), 0.0);
        auto jPolicyFor = [&](int r) {
            return cfg_.phaseSchedule.loopPolicy(Phase::J_TimestepUpdate, &rankAwf_[r],
                                                 jLoad[r]);
        };
        for (int r = 0; r < comm_.size(); ++r)
        {
            Timer t;
            kickDrift(locals_[r], dtStep, box_, jPolicyFor(r));
            jSeconds[r] = t.elapsed();
        }

        // forces at the new positions (decompose, halos, phases A..I)
        computeAllForces(rep);

        // phase J part 2: second kick + energy update
        for (int r = 0; r < comm_.size(); ++r)
        {
            Timer t;
            kickEnergy(locals_[r], dtStep, eos_.isIdealGas(), jPolicyFor(r));
            jSeconds[r] += t.elapsed();
            rep.ranks[r].phaseSeconds[int(Phase::J_TimestepUpdate)] = jSeconds[r];
            rep.ranks[r].phaseLoad[int(Phase::J_TimestepUpdate)]    = std::move(jLoad[r]);
            if (log_) log_->record(r, Phase::J_TimestepUpdate, jSeconds[r]);
        }

        time_ += dtStep;
        ++stepCount_;
        rep.dt = dtStep;
        rep.time = time_;
        rep.step = stepCount_;
        for (int r = 0; r < comm_.size(); ++r)
        {
            rep.ranks[r].traffic = comm_.traffic(r);
        }
        return rep;
    }

    /// Gather all particles into one set, sorted by id (for comparisons
    /// against the shared-memory driver).
    ParticleSet<T> gather() const
    {
        ParticleSet<T> out;
        for (int r = 0; r < comm_.size(); ++r)
        {
            ParticleSet<T> local = locals_[r];
            local.resize(nLocal_[r]); // drop any ghosts
            out.append(local);
        }
        out.reorder(out.idOrder());
        return out;
    }

    Conservation<T> conservation() const
    {
        auto g = gather();
        return computeConservation(g, potentialEnergy_);
    }

    /// Imbalance of the current decomposition: max/mean local count.
    double particleImbalance() const
    {
        double mx = 0, sum = 0;
        for (int r = 0; r < comm_.size(); ++r)
        {
            mx = std::max(mx, double(nLocal_[r]));
            sum += double(nLocal_[r]);
        }
        return sum > 0 ? mx * comm_.size() / sum : 1.0;
    }

private:
    /// Decomposition, migration, halo exchange and the per-rank force
    /// pipeline; leaves every rank with valid forces on its local particles
    /// (ghosts dropped). The phase bodies are the propagator's shared units;
    /// this driver contributes only the glue between segments.
    void computeAllForces(DistributedStepReport<T>& rep)
    {
        int P = comm_.size();

        // 1. decomposition + migration
        {
            Timer t;
            decomposeAndMigrate();
            double sec = t.elapsed() / P;
            for (auto& r : rep.ranks)
                r.decompositionSeconds = sec;
        }

        // 2. halo exchange with margin
        {
            Timer t;
            T margin = haloMargin();
            exchangeHalos(comm_, locals_, maps_, box_, margin);
            double sec = t.elapsed() / P;
            for (auto& r : rep.ranks)
                r.haloSeconds = sec;
        }

        // 3. per-rank force pipeline (phases A..H). One StepContext per
        // rank over the shared phase units; the halo-sync specs at segment
        // boundaries name the ghost fields each cross-rank data dependency
        // needs refreshed.
        rankTree_.resize(P);
        rankNl_.resize(P);
        rankVsig_.assign(P, T(0));
        rankAwf_.resize(P);
        rankClusters_.resize(P);
        rankMomentum_.resize(P);
        std::vector<StepContext<T>> ctxs;
        ctxs.reserve(P);
        for (int r = 0; r < P; ++r)
        {
            rankNl_[r].reset(locals_[r].size(), cfg_.ngmax);
            ctxs.push_back(StepContext<T>{locals_[r], box_, cfg_, kernel_, eos_,
                                          rankTree_[r], rankNl_[r]});
            auto& ctx    = ctxs.back();
            ctx.awf      = &rankAwf_[r]; // per-rank AWF weights persist across steps
            ctx.clusters = &rankClusters_[r]; // as does the cluster-search scratch
            ctx.momentumRecords = &rankMomentum_[r]; // and phase H's records
            ctx.laneKernel = &laneKernel_; // shared: lane tables are read-only
            ctx.walkMode = WalkMode::LocalIndices;
            ctx.walkIndices.resize(nLocal_[r]);
            std::iota(ctx.walkIndices.begin(), ctx.walkIndices.end(), std::size_t(0));
            rep.ranks[r].localParticles = nLocal_[r];
            rep.ranks[r].ghostParticles = locals_[r].size() - nLocal_[r];
        }
        const auto& segments = pipeline_.segments();
        for (std::size_t s = 0; s < segments.size(); ++s)
        {
            for (int r = 0; r < P; ++r)
            {
                pipeline_.runSegment(s, ctxs[r], rep.ranks[r].phaseSeconds, log_, r);
            }
            if (!segments[s].haloFieldsAfter.empty())
            {
                refreshHaloFields(comm_, locals_, maps_, segments[s].haloFieldsAfter,
                                  nLocal_);
            }
        }
        for (int r = 0; r < P; ++r)
        {
            rankVsig_[r] = ctxs[r].maxVsignal;
            rep.ranks[r].neighborInteractions = ctxs[r].neighborInteractions;
            rep.ranks[r].neighborOverflow     = ctxs[r].neighborOverflow;
            rep.ranks[r].hUnconverged         = ctxs[r].hUnconverged;
            rep.ranks[r].hIterations          = ctxs[r].hIterations;
            rep.ranks[r].phaseLoad            = ctxs[r].phaseLoad;
        }
        lastMaxVsig_ = comm_.allreduceMax<T>(std::span<const T>(rankVsig_));

        // ghost forces are NOT applied; drop ghosts before the update
        dropGhosts();

        // 4. self-gravity on the replicated set (Evrard path)
        if (cfg_.selfGravity) { accumulateGravityReplicated(rep); }
    }

    T haloMargin() const
    {
        T hmax = T(0);
        for (int r = 0; r < comm_.size(); ++r)
        {
            const auto& ps = locals_[r];
            for (std::size_t i = 0; i < nLocal_[r]; ++i)
                hmax = std::max(hmax, ps.h[i]);
        }
        return T(2) * hmax * T(1.5); // safety factor for the h iteration
    }

    void dropGhosts()
    {
        for (int r = 0; r < comm_.size(); ++r)
        {
            locals_[r].resize(nLocal_[r]);
        }
    }

    /// Re-decompose on current positions and migrate particles to their
    /// owners through the communicator.
    void decomposeAndMigrate()
    {
        int P = comm_.size();
        // gather positions (counted as collective traffic)
        std::vector<std::vector<T>> xs(P), ys(P), zs(P), ws(P);
        for (int r = 0; r < P; ++r)
        {
            xs[r].assign(locals_[r].x.begin(), locals_[r].x.end());
            ys[r].assign(locals_[r].y.begin(), locals_[r].y.end());
            zs[r].assign(locals_[r].z.begin(), locals_[r].z.end());
            // work weight: last neighbor count (interaction proxy), or 1
            ws[r].resize(locals_[r].size());
            for (std::size_t i = 0; i < locals_[r].size(); ++i)
            {
                ws[r][i] = locals_[r].nc[i] > 0 ? T(locals_[r].nc[i]) : T(1);
            }
        }
        auto gx = comm_.allgatherv(xs);
        auto gy = comm_.allgatherv(ys);
        auto gz = comm_.allgatherv(zs);
        auto gw = comm_.allgatherv(ws);

        // global assignment
        std::vector<int> assignment;
        if (cfg_.decomposition == DecompositionMethod::OrthogonalRecursiveBisection)
        {
            auto part = orbDecompose<T>(gx, gy, gz, gw, P, box_);
            assignment = std::move(part.assignment);
        }
        else if (cfg_.decomposition == DecompositionMethod::Slab1D)
        {
            auto part = slabDecompose<T>(gx, gy, gz, gw, P, box_);
            assignment = std::move(part.assignment);
        }
        else
        {
            auto part = sfcPartition<T>(gx, gy, gz, gw, P, box_, cfg_.sfcCurve);
            assignment = std::move(part.assignment);
        }

        // map global index -> (rank, local index)
        std::vector<std::size_t> rankStart(P + 1, 0);
        for (int r = 0; r < P; ++r)
            rankStart[r + 1] = rankStart[r] + locals_[r].size();

        // each rank sends leavers
        for (int src = 0; src < P; ++src)
        {
            auto& ps = locals_[src];
            std::vector<std::vector<std::size_t>> leaving(P);
            for (std::size_t i = 0; i < ps.size(); ++i)
            {
                int owner = assignment[rankStart[src] + i];
                if (owner != src) leaving[owner].push_back(i);
            }
            for (int dst = 0; dst < P; ++dst)
            {
                if (dst == src) continue;
                auto sub = ps.gather(leaving[dst]);
                // pack all real fields + ids
                std::vector<T> packed;
                auto fields = sub.realFields();
                for (auto* f : fields)
                    packed.insert(packed.end(), f->begin(), f->end());
                comm_.sendVector<T>(src, dst, "migrate", packed);
                comm_.sendVector<std::uint64_t>(src, dst, "migrate-id", sub.id);
            }
            // erase leavers locally (collect all)
            std::vector<std::size_t> all;
            for (int dst = 0; dst < P; ++dst)
            {
                all.insert(all.end(), leaving[dst].begin(), leaving[dst].end());
            }
            std::sort(all.begin(), all.end());
            ps.eraseSorted(all);
        }

        comm_.exchange();

        const auto nFields = ParticleSet<T>::realFieldNames().size();
        for (int dst = 0; dst < P; ++dst)
        {
            auto& ps = locals_[dst];
            for (int src = 0; src < P; ++src)
            {
                if (src == dst) continue;
                auto ids    = comm_.receiveVector<std::uint64_t>(dst, src, "migrate-id");
                auto packed = comm_.receiveVector<T>(dst, src, "migrate");
                std::size_t k = ids.size();
                if (packed.size() != k * nFields)
                    throw std::runtime_error("migrate: size mismatch");
                std::size_t base = ps.size();
                ps.resize(base + k);
                auto fields = ps.realFields();
                for (std::size_t f = 0; f < nFields; ++f)
                {
                    for (std::size_t g = 0; g < k; ++g)
                        (*fields[f])[base + g] = packed[f * k + g];
                }
                for (std::size_t g = 0; g < k; ++g)
                    ps.id[base + g] = ids[g];
            }
            nLocal_[dst] = ps.size();
        }
        for (int r = 0; r < P; ++r)
            nLocal_[r] = locals_[r].size();
    }

    /// Replicated-tree gravity: allgather (x,y,z,m), run Barnes-Hut per rank
    /// for its local targets.
    void accumulateGravityReplicated(DistributedStepReport<T>& rep)
    {
        int P = comm_.size();
        std::vector<std::vector<T>> xs(P), ys(P), zs(P), ms(P);
        for (int r = 0; r < P; ++r)
        {
            xs[r].assign(locals_[r].x.begin(), locals_[r].x.end());
            ys[r].assign(locals_[r].y.begin(), locals_[r].y.end());
            zs[r].assign(locals_[r].z.begin(), locals_[r].z.end());
            ms[r].assign(locals_[r].m.begin(), locals_[r].m.end());
        }
        auto gx = comm_.allgatherv(xs);
        auto gy = comm_.allgatherv(ys);
        auto gz = comm_.allgatherv(zs);
        auto gm = comm_.allgatherv(ms);

        ParticleSet<T> rep_ps(gx.size());
        rep_ps.x = std::move(gx);
        rep_ps.y = std::move(gy);
        rep_ps.z = std::move(gz);
        rep_ps.m = std::move(gm);

        // identical tree parameters to the shared-memory driver so the two
        // drivers compute identical gravity (the tree structure depends only
        // on positions + params, not input order)
        Octree<T> tree;
        typename Octree<T>::BuildParams bp;
        bp.leafSize = cfg_.treeLeafSize;
        bp.curve    = cfg_.sfcCurve;
        tree.build(rep_ps.x, rep_ps.y, rep_ps.z, box_, bp);
        GravitySolver<T> solver;
        solver.prepare(tree, rep_ps, cfg_.gravity);

        Timer t;
        GravityStats stats;
        T pot = solver.accumulate(rep_ps, &stats);
        potentialEnergy_ = pot;
        double sec = t.elapsed() / P;
        for (int r = 0; r < P; ++r)
        {
            rep.ranks[r].phaseSeconds[int(Phase::I_SelfGravity)] += sec;
            if (log_) log_->record(r, Phase::I_SelfGravity, sec);
        }

        // scatter accelerations back to owners (same order as the gathers)
        std::size_t cursor = 0;
        for (int r = 0; r < P; ++r)
        {
            auto& ps = locals_[r];
            for (std::size_t i = 0; i < ps.size(); ++i, ++cursor)
            {
                ps.ax[i] += rep_ps.ax[cursor];
                ps.ay[i] += rep_ps.ay[cursor];
                ps.az[i] += rep_ps.az[cursor];
            }
        }
    }

    simmpi::Communicator comm_;
    Box<T> box_;
    Eos<T> eos_;
    SimulationConfig<T> cfg_;
    Kernel<T> kernel_;
    LaneKernel<T> laneKernel_; ///< Simd-backend lane tables, built once
    Propagator<T> pipeline_;
    PhaseEventLog* log_{nullptr};

    std::vector<ParticleSet<T>> locals_;
    std::vector<HaloMap> maps_;
    std::vector<std::size_t> nLocal_;

    // per-rank scratch between the phase segments
    std::vector<Octree<T>> rankTree_;
    std::vector<NeighborList<T>> rankNl_;
    std::vector<T> rankVsig_;
    std::vector<AwfWeightStore> rankAwf_; ///< per-rank persistent AWF weights
    std::vector<ClusterWorkspace<T>> rankClusters_; ///< per-rank cluster-search scratch
    std::vector<MomentumRecordBuffer<T>> rankMomentum_; ///< per-rank phase H records

    T time_{0};
    std::uint64_t stepCount_{0};
    T potentialEnergy_{0};
    T lastMaxVsig_{0};
    bool firstStep_{true};
};

} // namespace sphexa
