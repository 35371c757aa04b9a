#pragma once

/// \file simulation.hpp
/// The shared-memory mini-app driver: Algorithm 1 of the paper as a thin
/// owner of state that executes a phase pipeline (core/propagator.hpp).
///
///   while target time not reached:
///     1. Build tree                      (phase A)
///     2. Find neighbors + smoothing len  (phases B, C, D)
///     3. SPH & physics kernels           (phases E..H)
///     4. (optional) self-gravity         (phase I)
///     5. New time-step                   (phase J)
///     6. Update velocity and position    (phase J)
///
/// The phase letters match the Extrae timeline of Fig. 4; the pipeline
/// runner times every phase uniformly and emits tracer events (attach a
/// PhaseEventLog to capture them). The op list is forcePipeline(cfg)
/// (core/propagator.hpp), the one the distributed driver
/// (domain/distributed.hpp) runs per rank over a decomposed domain; this
/// driver runs it over its one context and ignores the ops' halo fields.
/// Phase J (time-step + kick-drift-kick) brackets the force
/// pipeline in the driver; its dt is the TimestepController's
/// (sph/timestep.hpp), the rule the distributed driver commits too. A step
/// has one StepReport: advance() creates it before phase J, whose loops
/// account into it, and the force pass between J's halves writes it.
///
/// docs/ARCHITECTURE.md walks the full pipeline stage by stage and names
/// the header implementing each stage.

#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <utility>

#include "backend/lane_kernel.hpp"
#include "core/config.hpp"
#include "core/propagator.hpp"
#include "core/step_context.hpp"
#include "domain/box.hpp"
#include "perf/timer.hpp"
#include "sph/conservation.hpp"
#include "sph/integrator.hpp"
#include "sph/particles.hpp"

namespace sphexa {

/// Shared-memory SPH simulation of one particle set.
template<class T>
class Simulation
{
public:
    Simulation(ParticleSet<T> ps, Box<T> box, Eos<T> eos, SimulationConfig<T> cfg)
        : ps_(std::move(ps))
        , box_(box)
        , eos_(std::move(eos))
        , cfg_(std::move(cfg))
        , kernel_(cfg_.kernel, cfg_.sincExponent)
        , laneKernel_(kernel_)
        , nl_(ps_.size(), cfg_.ngmax)
        , controller_(cfg_.timestep)
        , pipeline_(forcePipeline(cfg_))
    {
        if (ps_.empty()) throw std::invalid_argument("Simulation: empty particle set");
        checkSteppingRule(cfg_, "Simulation");
    }

    /// Convenience: derive the EOS from the configuration — its Tait
    /// closure when one is set, an ideal gas otherwise (core/config.hpp,
    /// eosFromConfig).
    Simulation(ParticleSet<T> ps, Box<T> box, SimulationConfig<T> cfg)
        : Simulation(std::move(ps), box, eosFromConfig<T>(cfg), cfg)
    {
    }

    const ParticleSet<T>& particles() const { return ps_; }
    ParticleSet<T>& particles() { return ps_; }
    const Box<T>& box() const { return box_; }
    const SimulationConfig<T>& config() const { return cfg_; }
    const Kernel<T>& kernel() const { return kernel_; }
    const NeighborList<T>& neighborList() const { return nl_; }
    const Octree<T>& tree() const { return tree_; }
    T time() const { return time_; }
    std::uint64_t step() const { return stepCount_; }
    T potentialEnergy() const { return potentialEnergy_; }

    /// The force pipeline this driver executes (phases A..I).
    const Propagator<T>& pipeline() const { return pipeline_; }

    /// The persistent per-phase AWF weight store the step contexts share
    /// (inspectable by tests and the scheduling ablation; reset() returns
    /// every phase to equal weights).
    AwfWeightStore& awfWeights() { return buffers_.awf; }
    const AwfWeightStore& awfWeights() const { return buffers_.awf; }

    /// Replace the force pipeline (custom phase sequences; the default is
    /// forcePipeline(config)). Forces must be recomputed.
    void setPipeline(Propagator<T> pipeline)
    {
        pipeline_    = std::move(pipeline);
        forcesValid_ = false;
    }

    /// Attach a tracer log: the pipeline runner emits one PhaseEvent per
    /// executed phase into it (pass nullptr to detach).
    void attachPhaseLog(PhaseEventLog* log) { log_ = log; }

    /// Signal velocity of the last force evaluation (checkpoint metadata:
    /// restoring it makes the continuation bitwise instead of merely
    /// physically equivalent, because the artificial viscosity is
    /// velocity-dependent and the checkpointed accelerations were computed
    /// with the half-kicked velocities of the KDK scheme).
    T maxVsignal() const { return maxVsignal_; }

    /// Resume from a checkpoint: restores simulated time, step counter and
    /// time-step controller. When \p maxVsignal is supplied, the
    /// checkpointed accelerations/du are reused (no force recomputation)
    /// and the continuation is bit-identical to an uninterrupted run.
    /// Individual-mode restarts additionally pass the controller's base
    /// step and cycle anchor (controller().baseDt()/cycleStart() at write
    /// time) so the 2^k activity schedule resumes mid-cycle exactly; the
    /// bin hierarchy itself rides in the serialized ps.bin/ps.dt fields and
    /// is re-derived here via restoreBins().
    void restoreFromCheckpoint(T time, std::uint64_t step, T lastDt = T(0),
                               std::optional<T> maxVsignal = {}, T baseDt = T(0),
                               std::uint64_t cycleStart = 0)
    {
        time_      = time;
        stepCount_ = step;
        controller_.restore(step, lastDt, baseDt, cycleStart);
        controller_.restoreBins(ps_);
        if (maxVsignal)
        {
            maxVsignal_  = *maxVsignal;
            forcesValid_ = true;
        }
    }

    /// The time-step controller (bin schedule, sync state — read-only).
    const TimestepController<T>& timestepController() const { return controller_; }

    /// Compute forces for the current positions (phases A..I) by running
    /// the force pipeline. Must be called once before the first step();
    /// step() calls it internally afterwards. The report's time/dt reflect
    /// the current simulation state (dt is the last step size used, zero
    /// before the first advance()).
    StepReport<T> computeForces()
    {
        StepReport<T> rep;
        forcePass(stepCount_, log_, rep);
        return rep;
    }

    /// Advance one time-step (kick-drift-kick). Returns the step report of
    /// the force recomputation plus the J-phase timing.
    StepReport<T> advance()
    {
        if (!forcesValid_)
        {
            // seed forces silently: this pass's report is discarded, and
            // logging it would double-count phases A..I for the step
            StepReport<T> seed;
            forcePass(stepCount_, nullptr, seed);
        }

        // phase J runs under the configured strategy like any hot loop; its
        // busy times land in the step's report, which the force pass below
        // writes too
        StepReport<T> rep;
        const LoopPolicy jPolicy = cfg_.phaseSchedule.loopPolicy(
            Phase::J_TimestepUpdate, &buffers_.awf, rep.phaseLoad[int(Phase::J_TimestepUpdate)]);

        bool binned = binnedIntegration();

        Timer t;
        // --- phase J (part 1): new time-step, first kick + drift ---
        T dtStep = controller_.advance(ps_, maxVsignal_, jPolicy);
        if (binned)
        {
            // binned leapfrog: only particles whose interval starts now get
            // the opening half-kick (with their OWN ps.dt), then everyone
            // drifts by the base step — the prediction of inactive
            // particles the active subset's kernels read
            kickStartIndividual(ps_, controller_.kickStartSet(ps_), jPolicy);
            driftAll(ps_, dtStep, box_, eos_.isIdealGas(), jPolicy);
        }
        else
        {
            kickDrift(ps_, dtStep, box_, jPolicy);
        }
        double jTime = t.lap();

        // forces at the new positions (phases A..I), tagged with the step
        // id the returned report will carry so log events and reports join
        forcePass(stepCount_ + 1, log_, rep);

        // --- phase J (part 2): second kick + energy update ---
        t.reset();
        if (binned)
        {
            // close the intervals that end here: the force pass just walked
            // exactly this set (phase B queried the controller at the
            // post-increment step counter — the force/kick-end convention)
            kickEndIndividual(ps_, lastWalkIndices_, eos_.isIdealGas(), jPolicy);
        }
        else
        {
            kickEnergy(ps_, dtStep, eos_.isIdealGas(), jPolicy);
        }
        time_ += dtStep;
        ++stepCount_;
        jTime += t.lap();

        rep.phaseSeconds[int(Phase::J_TimestepUpdate)] = jTime;
        if (log_) log_->record(0, Phase::J_TimestepUpdate, jTime);
        rep.dt   = dtStep;
        rep.time = time_;
        rep.step = stepCount_;
        return rep;
    }

    /// Run \p nSteps steps; returns the report of the last one. The optional
    /// callback receives every report (used by examples and benches).
    StepReport<T> run(std::uint64_t nSteps,
                      const std::function<void(const StepReport<T>&)>& onStep = {})
    {
        StepReport<T> last;
        for (std::uint64_t s = 0; s < nSteps; ++s)
        {
            last = advance();
            if (onStep) onStep(last);
        }
        return last;
    }

    /// Conservation snapshot, including gravitational potential when active.
    Conservation<T> conservation() const
    {
        return computeConservation(ps_, potentialEnergy_);
    }

private:
    /// Whether this driver runs the binned (individual time-stepping)
    /// leapfrog: Individual bins + Subset walks, which the
    /// constructor admits only together and only without walls or a body
    /// force (checkSteppingRule).
    bool binnedIntegration() const
    {
        return cfg_.timestep.mode == TimesteppingMode::Individual;
    }

    /// One force-pipeline pass into \p rep, recorded into \p log when one
    /// is given; \p stepId tags the report and the emitted phase events
    /// (the current step for standalone computeForces(), the upcoming one
    /// inside advance()).
    void forcePass(std::uint64_t stepId, PhaseEventLog* log, StepReport<T>& rep)
    {
        rep.step = stepId;
        rep.time = time_;
        rep.dt   = controller_.currentDt();

        StepContext<T> ctx{ps_, box_, cfg_, kernel_, laneKernel_, eos_, tree_, nl_, buffers_, rep};
        ctx.gravity = &gravity_;
        // Subset walks only under the binned integrator: mixing a subset
        // force pass with the global kick (stale du on inactive particles)
        // would silently violate the trapezoid energy update, so every
        // non-binned combination runs full global walks
        if (binnedIntegration() && controller_.stepCount() > 0)
        {
            ctx.walkMode   = WalkMode::Subset;
            ctx.controller = &controller_;
        }

        if (log) log->beginStep(stepId);
        pipeline_.run(ctx, log);

        // keep the walked set: on a binned step this is the force/kick-end
        // set advance() closes right after this pass (empty on Global walks)
        lastWalkIndices_ = std::move(ctx.walkIndices);

        warnNeighborOverflow(stepId, rep.neighborOverflow, cfg_.ngmax);

        maxVsignal_      = ctx.maxVsignal;
        potentialEnergy_ = ctx.potentialEnergy;
        forcesValid_     = true;
    }

    ParticleSet<T> ps_;
    Box<T> box_;
    Eos<T> eos_;
    SimulationConfig<T> cfg_;
    Kernel<T> kernel_;
    LaneKernel<T> laneKernel_; ///< Simd-backend lane tables, built once
    Octree<T> tree_;
    NeighborList<T> nl_;
    GravitySolver<T> gravity_;
    TimestepController<T> controller_;
    Propagator<T> pipeline_;
    PhaseBuffers<T> buffers_; ///< AWF weights and phase scratch, kept across steps
    std::vector<std::size_t> lastWalkIndices_; ///< last force pass's walked set
    PhaseEventLog* log_{nullptr};

    T time_{0};
    std::uint64_t stepCount_{0};
    T maxVsignal_{0};
    T potentialEnergy_{0};
    bool forcesValid_{false};
};

} // namespace sphexa
