#pragma once

/// \file step_context.hpp
/// The shared vocabulary of the propagator layer (core/propagator.hpp):
/// the workflow phases of the paper's Algorithm 1 / Fig. 4 timeline, the
/// per-step report both drivers fill and the one warning they print from it,
/// the buffers each driver (the distributed one: each rank) keeps across
/// force passes (PhaseBuffers), the mutable state bundle a phase operates
/// on (StepContext, which references those buffers and the lane kernel),
/// and the runner-emitted phase-event log that feeds the Extrae-style
/// tracer (perf/tracer.hpp).
///
/// Both drivers — the shared-memory Simulation (core/simulation.hpp) and
/// the distributed DistributedSimulation (domain/distributed.hpp) — execute
/// the same phase units over a StepContext, take their dt from the same
/// TimestepController rule (sph/timestep.hpp) and have the runner and the
/// phases write the same report, which the context references; only
/// decomposition, halo and reduction glue remains driver-specific.
/// docs/ARCHITECTURE.md walks the pipeline stage by stage.

#include <array>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string_view>
#include <vector>

#include "backend/kernel_backend.hpp"
#include "backend/lane_kernel.hpp"
#include "backend/momentum_kernel.hpp"
#include "core/config.hpp"
#include "core/phases.hpp"
#include "domain/box.hpp"
#include "parallel/parallel_for.hpp"
#include "sph/eos.hpp"
#include "sph/particles.hpp"
#include "sph/timestep.hpp"
#include "tree/cluster_list.hpp"
#include "tree/gravity.hpp"
#include "tree/neighbors.hpp"
#include "tree/octree.hpp"
#include "tree/sfc_sort.hpp"

namespace sphexa {

/// Per-step report: timings and work counters, the raw material of the
/// performance experiments. The one record of a force pass: the runner
/// times each phase into it and the phases write their counters into it
/// through StepContext::report; phase J adds its own time and loops.
template<class T>
struct StepReport
{
    std::uint64_t step = 0;
    T time = T(0);      ///< simulated time after the step
    T dt = T(0);        ///< step size used
    std::array<double, phaseCount> phaseSeconds{};
    std::size_t neighborInteractions = 0; ///< total SPH pair visits
    std::size_t activeParticles = 0;
    GravityStats gravityStats{};
    unsigned hIterations = 0;
    /// Particles whose neighbor count phase C left outside the tolerance
    /// band after its last iteration (SmoothingLengthResult::unconverged).
    std::size_t hUnconverged = 0;
    /// Neighbor-list fills that exceeded ngmax this step (truncated lists).
    /// Zero in a healthy run; both drivers warn once per step when it is
    /// not (warnNeighborOverflow), instead of silently losing interactions.
    std::size_t neighborOverflow = 0;

    /// Measured per-worker busy times of each phase's ParallelFor loops —
    /// the raw material of the per-phase POP load-balance metrics
    /// (perf/pop_metrics.hpp). Empty for phases that run no ParallelFor
    /// loop under their LoopPolicy (the tree build).
    std::array<PhaseLoadStats, phaseCount> phaseLoad{};

    /// POP load-balance efficiency of one phase: mean/max worker busy time
    /// over the phase's ParallelFor executions (1.0 when unmeasured).
    double phaseLoadBalance(Phase p) const { return phaseLoad[int(p)].loadBalance(); }

    double totalSeconds() const
    {
        double s = 0;
        for (double p : phaseSeconds)
            s += p;
        return s;
    }
};

/// The warning both drivers print after a force pass that cut \p overflow
/// neighbor rows at \p ngmax (the distributed driver passes its ranks'
/// sum): one stderr line per truncating step, nothing when no row was cut.
inline void warnNeighborOverflow(std::uint64_t step, std::size_t overflow, unsigned ngmax)
{
    if (overflow == 0) return;
    std::fprintf(stderr,
                 "sphexa: step %llu: %zu neighbor list(s) exceeded ngmax=%u "
                 "(truncated; raise ngmax or lower targetNeighbors)\n",
                 static_cast<unsigned long long>(step), overflow, ngmax);
}

/// The buffers the phases keep across force passes: one per Simulation and
/// one per rank of a DistributedSimulation, referenced by every StepContext
/// the driver builds, so adapted AWF weights carry across steps and no
/// phase re-allocates its scratch.
template<class T>
struct PhaseBuffers
{
    AwfWeightStore awf;             ///< per-phase AWF weights (parallel/parallel_for.hpp)
    SfcSorter<T> sorter;            ///< phase L keys and permutation (tree/sfc_sort.hpp)
    ClusterWorkspace<T> clusters;   ///< cluster-search scratch of phases B and C
    MissingPairs<T> pairs;          ///< the missing-pair buckets phase D fills for H
    MomentumRecordBuffer<T> momentum; ///< phase H's packed neighbor records
};

/// Which particles a force pass walks.
enum class WalkMode
{
    Global, ///< every particle: the global search, phase L and phase D run
    Subset, ///< walkIndices only: a binned pass's active bins (phase B asks
            ///< the attached controller) or a rank's owned particles
};

/// Everything a phase unit may read or write during one force evaluation.
/// The driver owns the referenced state, including the report the pass
/// writes; the context adds the traversal mode and the few outputs the
/// driver reads back after the pass.
template<class T>
struct StepContext
{
    ParticleSet<T>& ps;
    const Box<T>& box;
    const SimulationConfig<T>& cfg;
    const Kernel<T>& kernel;
    /// The driver's lane tables of the Simd backend (backend/lane_kernel.hpp).
    const LaneKernel<T>& lanes;
    const Eos<T>& eos;
    Octree<T>& tree;
    NeighborList<T>& nl;
    PhaseBuffers<T>& buffers;
    /// The pass's record: the runner adds each phase's seconds, the phases
    /// write their counters and account their loops (loopPolicy) into it.
    StepReport<T>& report;

    /// Barnes-Hut solver for the in-place phase I; null in the distributed
    /// driver, which replicates the tree in its reduction glue instead.
    GravitySolver<T>* gravity = nullptr;
    /// Time-step controller of a binned pass: phase B takes the force set
    /// from it. Null on every other walk.
    TimestepController<T>* controller = nullptr;

    WalkMode walkMode = WalkMode::Global;
    /// Indices a Subset walk visits: phase B fills them from the controller
    /// when one is attached; otherwise the driver sets them (a rank's owned
    /// particles, whose entries of ps are followed by its ghosts).
    std::vector<std::size_t> walkIndices{};

    // --- outputs the driver reads back after the pass ---
    /// buffers.pairs when phase D filled it in this force pass, which phase
    /// H then sums after each row. Null when D did not run (Subset walks),
    /// so no pass reads an earlier pass's buckets.
    MissingPairs<T>* missingPairs = nullptr;
    T maxVsignal{0};
    T potentialEnergy{0};
    /// Mirror ghosts currently appended at the tail of ps (wall phase K);
    /// zero outside the ghostCreate..ghostRemove bracket.
    std::size_t nGhosts = 0;

    /// The LoopPolicy a phase's ParallelFor loops run under
    /// (PhaseSchedule::loopPolicy), accounting into the report's phaseLoad
    /// slot of \p p.
    LoopPolicy loopPolicy(Phase p)
    {
        return cfg.phaseSchedule.loopPolicy(p, &buffers.awf, report.phaseLoad[int(p)]);
    }

    /// The compute-backend selection the SPH phase shells dispatch on:
    /// the config's choice plus the driver's persistent lane kernel.
    ComputeBackend<T> computeBackend() const { return {cfg.kernelBackend, &lanes}; }

    /// Index span the SPH kernels iterate: empty means "all particles"
    /// (the convention of computeDensity & friends).
    std::span<const std::size_t> activeSpan() const
    {
        return walkMode == WalkMode::Global ? std::span<const std::size_t>{}
                                            : std::span<const std::size_t>(walkIndices);
    }

    /// Whether phases C and E..I skip their bodies: a Subset walk over no
    /// particles (a rank that owns none, or a binned step whose bin-0
    /// particles were all promoted at an interval boundary). Running a
    /// kernel with the empty-span convention there would sweep every
    /// particle and overwrite the stashed mid-interval du/dt of inactive
    /// ones.
    bool skipEmptyWalk() const { return walkMode == WalkMode::Subset && walkIndices.empty(); }
};

/// One runner-emitted phase timing event. The pipeline runner records these
/// uniformly for every phase it executes — call sites no longer hand-insert
/// Timer::lap() bookkeeping — and the tracer (perf/tracer.hpp) expands them
/// into the Fig. 4 timeline.
struct PhaseEvent
{
    int rank;
    std::uint64_t step;
    Phase phase;
    double seconds;
};

/// Append-only log of runner-emitted phase events; attach one to a driver
/// with attachPhaseLog() to trace its steps.
class PhaseEventLog
{
public:
    void beginStep(std::uint64_t step) { step_ = step; }

    void record(int rank, Phase phase, double seconds)
    {
        events_.push_back({rank, step_, phase, seconds});
    }

    void clear() { events_.clear(); }
    const std::vector<PhaseEvent>& events() const { return events_; }

    /// Total recorded seconds (all ranks, all phases).
    double totalSeconds() const
    {
        double s = 0;
        for (const auto& e : events_)
            s += e.seconds;
        return s;
    }

    /// Aggregate the logged events into per-rank phase durations — the input
    /// of expandTrace() (perf/tracer.hpp). Events of all logged steps are
    /// summed; clear() between steps for a single-step view.
    std::vector<std::array<double, phaseCount>> phaseSecondsByRank(int nRanks) const
    {
        std::vector<std::array<double, phaseCount>> out(nRanks);
        for (auto& a : out)
            a.fill(0.0);
        for (const auto& e : events_)
        {
            if (e.rank >= 0 && e.rank < nRanks) out[e.rank][int(e.phase)] += e.seconds;
        }
        return out;
    }

private:
    std::uint64_t step_ = 0;
    std::vector<PhaseEvent> events_;
};

} // namespace sphexa
