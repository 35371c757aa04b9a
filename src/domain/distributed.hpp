#pragma once

/// \file distributed.hpp
/// Distributed-memory SPH driver: the "MPI+X" reference implementation of
/// Table 4, running over the simulated communicator (parallel/comm.hpp).
///
/// Every step executes the full distributed workflow of a production SPH
/// code:
///   1. domain decomposition (ORB or SFC, Table 4) + particle migration
///   2. halo exchange with a 2 h_max margin
///   3. the op list the shared-memory driver runs (forcePipeline,
///      core/propagator.hpp), op by op: op k on every rank, then a refresh
///      of the ghost fields op k names (after phases E, F and G). Phase L
///      does nothing on a rank's Subset walk and phase I nothing without
///      the context's gravity solver, which a rank lacks
///   4. self-gravity via a replicated tree (positions/masses allgathered —
///      the communication is counted; see docs/DESIGN.md substitution notes)
///   5. phase J: every rank's dt candidates through the one
///      TimestepController (sph/timestep.hpp), which commits their
///      allreduce-min, then the local kick-drift-kick
///
/// Only decomposition, migration, halo exchange and the global reductions
/// live here. The phase bodies, the dt rule, the per-rank report (a
/// StepReport each rank's StepContext references, which the runner and the
/// phases write as they write Simulation's), the overflow warning and the
/// per-rank phase buffers (PhaseBuffers) are the ones Simulation uses.
/// Every rank walks its owned particles as a Subset walk; a rank that owns
/// none publishes no halo box, so it receives no ghosts, builds an empty
/// tree and runs no phase body after the search.
/// Per-rank phase wall times are recorded uniformly by the pipeline runner
/// (attach a PhaseEventLog to trace them); they drive the POP metrics, the
/// Fig. 4 trace, and the strong-scaling predictions of perf/cluster_sim.hpp.
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
#include "parallel/comm.hpp"
#include "perf/timer.hpp"
#include "sph/conservation.hpp"
#include "sph/eos.hpp"

namespace sphexa {

/// Per-rank, per-step measurements: the rank's StepReport (its phase
/// times and busy times, work counters and list health, written by the
/// runner and the phases as the shared-memory driver's are) plus what only
/// a rank has.
template<class T>
struct RankStepReport : StepReport<T>
{
    std::size_t ghostParticles = 0;
    simmpi::Traffic traffic{}; ///< traffic sent this step
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
            double c = r.totalSeconds();
            mx = std::max(mx, c);
            sum += c;
        }
        return mx > 0 ? sum / (double(ranks.size()) * mx) : 1.0;
    }
};

/// Distributed-memory simulation over P simulated ranks. Runs the config's
/// force pipeline (plus replicated gravity) at one global dt, Global or
/// Adaptive, under any EOS and body force. The constructor rejects
/// (std::invalid_argument) what checkSteppingRule rejects for both drivers,
/// walls, whose mirror ghosts a rank cannot place among its halo ghosts,
/// and Individual time-stepping, whose bins need per-particle state across
/// ranks.
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
        , controller_(cfg_.timestep)
        , pipeline_(forcePipeline(cfg_))
        , locals_(nRanks)
        , maps_(nRanks)
        , nLocal_(nRanks, 0)
        , rankBuffers_(nRanks)
    {
        if (global.empty())
            throw std::invalid_argument("DistributedSimulation: empty particle set");
        if (cfg_.boundaries.anyWall())
            throw std::invalid_argument("DistributedSimulation: walls are not supported");
        checkSteppingRule(cfg_, "DistributedSimulation");
        if (cfg_.timestep.mode == TimesteppingMode::Individual)
            throw std::invalid_argument(
                "DistributedSimulation: Individual time-stepping is not supported");
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

    /// The force pipeline every rank runs: forcePipeline(config), the list
    /// Simulation runs.
    const Propagator<T>& pipeline() const { return pipeline_; }

    /// Attach a tracer log: the pipeline runner emits one PhaseEvent per
    /// (rank, phase) into it (pass nullptr to detach).
    void attachPhaseLog(PhaseEventLog* log) { log_ = log; }

    /// Advance one step (kick-drift-kick, matching the shared-memory
    /// driver); returns per-rank measurements.
    DistributedStepReport<T> advance()
    {
        int P = comm_.size();
        DistributedStepReport<T> rep;
        rep.ranks.resize(P);
        rep.step = stepCount_ + 1; // events carry the id the report will have
        comm_.resetTraffic();
        if (log_) log_->beginStep(rep.step);

        // phase J part 1: each rank's dt candidates from the current
        // forces, the controller's commit of their global min, then the
        // first kick + drift; like the pipeline phases it runs under the
        // configured strategy on every rank, and both halves account their
        // loops and seconds into the rank's J slot
        constexpr int J = int(Phase::J_TimestepUpdate);
        auto jPolicyFor = [&](int r) {
            return cfg_.phaseSchedule.loopPolicy(Phase::J_TimestepUpdate, &rankBuffers_[r].awf,
                                                 rep.ranks[r].phaseLoad[J]);
        };
        std::vector<T> dtContrib(P);
        for (int r = 0; r < P; ++r)
        {
            Timer t;
            dtContrib[r] =
                controller_.candidateMin(locals_[r], lastMaxVsig_, locals_[r].dt, jPolicyFor(r));
            rep.ranks[r].phaseSeconds[J] += t.elapsed();
        }
        T dtStep = controller_.commit(comm_.allreduceMin<T>(dtContrib));
        for (int r = 0; r < P; ++r)
        {
            Timer t;
            kickDrift(locals_[r], dtStep, box_, jPolicyFor(r));
            rep.ranks[r].phaseSeconds[J] += t.elapsed();
        }

        // forces at the new positions (decompose, halos, phases A..I)
        computeAllForces(rep);

        // phase J part 2: second kick + energy update
        time_ += dtStep;
        ++stepCount_;
        rep.dt   = dtStep;
        rep.time = time_;
        for (int r = 0; r < P; ++r)
        {
            auto& rr = rep.ranks[r];
            Timer t;
            kickEnergy(locals_[r], dtStep, eos_.isIdealGas(), jPolicyFor(r));
            rr.phaseSeconds[J] += t.elapsed();
            if (log_) log_->record(r, Phase::J_TimestepUpdate, rr.phaseSeconds[J]);
            rr.step    = rep.step;
            rr.time    = rep.time;
            rr.dt      = rep.dt;
            rr.traffic = comm_.traffic(r);
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
    /// this driver contributes only the halo refreshes between ops.
    void computeAllForces(DistributedStepReport<T>& rep)
    {
        int P = comm_.size();

        // 1. decomposition + migration
        decomposeAndMigrate();

        // 2. halo exchange with margin
        exchangeHalos(comm_, locals_, maps_, box_, haloMargin());

        // 3. per-rank force pipeline. One StepContext per rank over the
        // shared phase units, the rank's buffers and its report, walking
        // the rank's owned particles; after op k ran on every rank, the
        // ghost fields it names are refreshed.
        rankTree_.resize(P);
        rankNl_.resize(P);
        rankVsig_.assign(P, T(0));
        std::vector<StepContext<T>> ctxs;
        ctxs.reserve(P);
        for (int r = 0; r < P; ++r)
        {
            rankNl_[r].reset(locals_[r].size(), cfg_.ngmax);
            auto& ctx = ctxs.emplace_back(StepContext<T>{locals_[r], box_, cfg_, kernel_,
                                                         laneKernel_, eos_, rankTree_[r],
                                                         rankNl_[r], rankBuffers_[r],
                                                         rep.ranks[r]});
            ctx.walkMode = WalkMode::Subset;
            ctx.walkIndices.resize(nLocal_[r]);
            std::iota(ctx.walkIndices.begin(), ctx.walkIndices.end(), std::size_t(0));
            rep.ranks[r].ghostParticles = locals_[r].size() - nLocal_[r];
        }
        const auto& ops = pipeline_.ops();
        for (std::size_t k = 0; k < ops.size(); ++k)
        {
            for (int r = 0; r < P; ++r)
            {
                Timer clock;
                pipeline_.runOp(k, ctxs[r], clock, log_, r);
            }
            if (!ops[k].haloFieldsAfter.empty())
                refreshHaloFields(comm_, locals_, maps_, ops[k].haloFieldsAfter, nLocal_);
        }
        std::size_t overflow = 0;
        for (int r = 0; r < P; ++r)
        {
            rankVsig_[r] = ctxs[r].maxVsignal;
            overflow += rep.ranks[r].neighborOverflow;
        }
        warnNeighborOverflow(rep.step, overflow, cfg_.ngmax);
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

        auto assignment = decomposeDomain<T>(cfg_, gx, gy, gz, gw, P, box_);

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
                if (dst != src) sendParticles(comm_, src, dst, "migrate", ps, leaving[dst]);
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

        for (int dst = 0; dst < P; ++dst)
        {
            for (int src = 0; src < P; ++src)
            {
                if (src != dst) receiveParticles(comm_, dst, src, "migrate", locals_[dst]);
            }
            nLocal_[dst] = locals_[dst].size();
        }
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

        // phase A's tree parameters, so the two drivers compute identical
        // gravity (the tree structure depends only on positions + params,
        // not input order)
        Octree<T> tree;
        tree.build(rep_ps.x, rep_ps.y, rep_ps.z, box_, treeBuildParams(cfg_));
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
    TimestepController<T> controller_;
    Propagator<T> pipeline_;
    PhaseEventLog* log_{nullptr};

    std::vector<ParticleSet<T>> locals_;
    std::vector<HaloMap> maps_;
    std::vector<std::size_t> nLocal_;

    // per-rank scratch between the ops
    std::vector<Octree<T>> rankTree_;
    std::vector<NeighborList<T>> rankNl_;
    std::vector<T> rankVsig_;
    /// Per-rank AWF weights and phase scratch, kept across steps; sized
    /// once, since every StepContext references its rank's entry.
    std::vector<PhaseBuffers<T>> rankBuffers_;

    T time_{0};
    std::uint64_t stepCount_{0};
    T potentialEnergy_{0};
    T lastMaxVsig_{0};
};

} // namespace sphexa
