#pragma once

/// \file timestep.hpp
/// Time-step control (step 5 of Algorithm 1), in the three modes of
/// Table 2: "Equal, Variable, and Adaptive".
///
///  - Global (equal): one Delta t = min_i dt_i for all particles (SPHYNX).
///  - Individual (variable): hierarchical power-of-two bins baseDt * 2^k
///    (ChaNGa's multi-time-stepping). The system always advances by the
///    base step; a bin-k particle integrates over intervals of 2^k base
///    steps and has its forces recomputed only at interval boundaries. The
///    paper identifies multi-time-stepping as a primary load-imbalance
///    source (Sec. 4).
///  - Adaptive: one global step, re-evaluated each step and rate-limited
///    (SPH-flow).
///
/// Per-particle candidate: dt_i = C_cfl * h_i / vsig_i combined with the
/// acceleration criterion dt_i = C_acc * sqrt(h_i / |a_i|). In Individual
/// mode vsig_i is the particle's OWN max signal velocity from its last
/// force pass (ParticleSet::vsig) — clamping every particle to the global
/// maximum would collapse dt_i toward uniform and flatten the 2^k bin
/// histogram. Global/Adaptive keep the global clamp so their dt min is
/// bitwise identical to the seed behaviour.
///
/// ## Global and Adaptive steps
///
/// A Global/Adaptive step is candidateMin() (every particle's candidate
/// into ps.dt, and their exact min) followed by commit() (the first-step
/// initialDt clamp, the Adaptive growth cap, the step counter). advance()
/// runs both over one set. The distributed driver (domain/distributed.hpp)
/// runs candidateMin() on each rank and commits the allreduce-min of the
/// ranks' results, so both drivers take their dt from this one rule.
///
/// ## The bin schedule
///
/// Activity is anchored at the last full synchronization (cycleStart()):
/// bin k is active `phase = step - cycleStart` base steps into the cycle
/// whenever phase % 2^k == 0 (binActive()). A particle is rebinned only
/// when its own interval starts, and a promotion is capped by the largest
/// power of two dividing the phase, so a new interval always ends on a
/// step where the particle is queried active again. When the phase
/// completes the full hierarchy (phase % 2^maxUsedBin == 0 — every bin's
/// interval ends simultaneously and the preceding force pass covered all
/// particles), the controller re-derives the whole hierarchy: new
/// baseDt = min_i dt_i, every particle rebinned, cycleStart reset.
/// maxUsedBin is always the max of the CURRENT ps.bin, so a checkpoint
/// restart (restore() + restoreBins()) reconstructs the schedule exactly.
///
/// ## Step-phase convention
///
/// advance() processes driver step s = stepCount() (pre-increment) and
/// returns with stepCount() == s + 1. Two different activity sets matter
/// during that driver step, both defined by binActive():
///  - kickStartSet(): particles whose interval STARTS at s — they receive
///    the interval-opening half-kick right after advance();
///  - activeParticles(): particles whose interval ENDS at s + 1 — the set
///    the force pass recomputes and the interval-closing kick updates.
///    Because advance() increments stepCount_ before the driver queries
///    activity, activeParticles() naturally evaluates at s + 1: the
///    "off-by-one" is the force/kick-end set, by design.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "parallel/parallel_for.hpp"
#include "sph/particles.hpp"

namespace sphexa {

enum class TimesteppingMode
{
    Global,     ///< equal steps for all particles
    Individual, ///< 2^k bins, hierarchical activity
    Adaptive,   ///< global but continuously adapted with growth limit
};

constexpr std::string_view timesteppingName(TimesteppingMode m)
{
    switch (m)
    {
        case TimesteppingMode::Global: return "Global";
        case TimesteppingMode::Individual: return "Individual";
        case TimesteppingMode::Adaptive: return "Adaptive";
    }
    return "?";
}

template<class T>
struct TimestepParams
{
    TimesteppingMode mode = TimesteppingMode::Global;
    T cflCourant    = T(0.3);
    T cflAccel      = T(0.25);
    T maxGrowth     = T(1.1);  ///< adaptive: dt may grow at most 10%/step
    int maxBins     = 8;       ///< individual: largest 2^k bin
    T maxDt         = T(1e9);
    T initialDt     = T(1e-7);
};

/// Per-particle time-step candidate from CFL + acceleration criteria.
/// Individual mode uses the particle's own signal velocity (ps.vsig,
/// recorded by the momentum/energy pass; \p maxVsignal is the fallback
/// before the first force pass), the global modes the global maximum.
template<class T>
T particleTimestep(const ParticleSet<T>& ps, std::size_t i, T maxVsignal, const TimestepParams<T>& par)
{
    T vsigRef = par.mode == TimesteppingMode::Individual && ps.vsig[i] > T(0)
                    ? ps.vsig[i]
                    : maxVsignal;
    T vsig = std::max(vsigRef, ps.c[i]);
    T dtCfl = par.cflCourant * ps.h[i] / vsig;
    T a2 = ps.ax[i] * ps.ax[i] + ps.ay[i] * ps.ay[i] + ps.az[i] * ps.az[i];
    T dtAcc = a2 > T(0) ? par.cflAccel * std::sqrt(ps.h[i] / std::sqrt(a2)) : par.maxDt;
    return std::min({dtCfl, dtAcc, par.maxDt});
}

/// Controller holding the time-step state across the simulation loop.
template<class T>
class TimestepController
{
public:
    explicit TimestepController(const TimestepParams<T>& par = {}) : par_(par) {}

    const TimestepParams<T>& params() const { return par_; }
    TimesteppingMode mode() const { return par_.mode; }

    /// The pure schedule rule: is bin \p k active \p phase base steps after
    /// the cycle origin (the last full-hierarchy synchronization)?
    static bool binActive(int k, std::uint64_t phase)
    {
        return (phase & ((std::uint64_t(1) << k) - 1)) == 0;
    }

    /// Evaluate per-particle time-steps and derive the next global step.
    /// \p maxVsignal is the maximum signal velocity from the force pass.
    /// Returns the Delta t to advance the system by (the base step in
    /// Individual mode).
    T advance(ParticleSet<T>& ps, T maxVsignal, const LoopPolicy& policy = {})
    {
        if (par_.mode != TimesteppingMode::Individual)
            return commit(candidateMin(ps, maxVsignal, ps.dt, policy));
        activeStep_ = stepCount_;
        advanceIndividual(ps, maxVsignal, policy);
        ++stepCount_;
        return current_;
    }

    /// The per-particle candidates of \p ps into \p out (one per particle)
    /// and their minimum, the first half of a Global/Adaptive step and of an
    /// Individual full sync. The min is exact over per-worker partials (a
    /// selection, not an accumulation), so it is bitwise the same for any
    /// pool size, chunking or split of the set: the distributed driver takes
    /// the min of its ranks' results and commit()s it.
    T candidateMin(const ParticleSet<T>& ps, T maxVsignal, std::span<T> out,
                   const LoopPolicy& policy = {}) const
    {
        if (out.size() != ps.size())
            throw std::invalid_argument("TimestepController: one candidate per particle");
        std::vector<WorkerSlot<T>> workerMin(parallelForWorkers(), WorkerSlot<T>{par_.maxDt});
        parallelFor(
            ps.size(),
            [&](std::size_t i, std::size_t worker) {
                T dti  = particleTimestep(ps, i, maxVsignal, par_);
                out[i] = dti;
                workerMin[worker].value = std::min(workerMin[worker].value, dti);
            },
            policy);
        T dtMin = par_.maxDt;
        for (const auto& v : workerMin)
            dtMin = std::min(dtMin, v.value);
        return dtMin;
    }

    /// The rest of a Global/Adaptive step from the set's candidate minimum:
    /// the first step is clamped to initialDt, an Adaptive step grows by at
    /// most maxGrowth, and the step counter advances. Returns the Delta t.
    /// Throws std::logic_error in Individual mode, whose bins need the
    /// per-particle state advance() keeps.
    T commit(T dtMin)
    {
        if (par_.mode == TimesteppingMode::Individual)
            throw std::logic_error("TimestepController::commit: Individual mode bins "
                                   "per particle; call advance()");
        activeStep_ = stepCount_;
        if (firstStep_)
        {
            firstStep_ = false;
            dtMin      = std::min(dtMin, par_.initialDt);
        }
        bool capped = par_.mode == TimesteppingMode::Adaptive && current_ > T(0);
        current_    = capped ? std::min(dtMin, current_ * par_.maxGrowth) : dtMin;
        ++stepCount_;
        return current_;
    }

    /// The force/kick-end set: particles whose integration interval ends at
    /// the CURRENT step counter. Called after advance() (which increments
    /// stepCount_), this is the set the next force pass must recompute and
    /// the interval-closing kick updates — see the step-phase convention in
    /// the file header. In Global/Adaptive modes all particles are always
    /// active.
    std::vector<std::size_t> activeParticles(const ParticleSet<T>& ps) const
    {
        return activeAt(ps, stepCount_);
    }

    /// The kick-start set: particles whose integration interval starts at
    /// the step advance() just processed. They receive the interval-opening
    /// half-kick with their own ps.dt before the drift.
    std::vector<std::size_t> kickStartSet(const ParticleSet<T>& ps) const
    {
        return activeAt(ps, activeStep_);
    }

    T currentDt() const { return current_; }
    /// Individual mode: the base (smallest-bin) step of the current cycle.
    T baseDt() const { return baseDt_; }
    std::uint64_t stepCount() const { return stepCount_; }
    /// Individual mode: the step index of the last full synchronization
    /// (the origin the 2^k schedule is anchored at).
    std::uint64_t cycleStart() const { return cycleStart_; }
    /// Largest bin currently in use (max of ps.bin after the last advance).
    int maxUsedBin() const { return maxUsedBin_; }

    /// True when every bin's interval ends at the current step counter: the
    /// last force pass covered all particles, so diagnostics that need a
    /// globally consistent state (total energy with full potential) are
    /// valid here. Always true outside Individual mode.
    bool atFullSync() const
    {
        if (par_.mode != TimesteppingMode::Individual || baseDt_ <= T(0)) return true;
        return binActive(maxUsedBin_, stepCount_ - cycleStart_);
    }

    /// Restore controller state after a checkpoint restart: skip the
    /// initial-dt ramp and resume the step counter and schedule anchor.
    /// \p baseDt defaults to \p currentDt — exact in Individual mode, where
    /// the system always advances by the base step (restoring zero would
    /// leave every bin-relative ratio stale/dividing by zero until the next
    /// full sync). Call restoreBins() with the restored particle set
    /// afterwards to rebuild the hierarchy bookkeeping.
    void restore(std::uint64_t stepCount, T currentDt, T baseDt = T(0),
                 std::uint64_t cycleStart = 0)
    {
        stepCount_  = stepCount;
        activeStep_ = stepCount > 0 ? stepCount - 1 : 0;
        current_    = currentDt;
        baseDt_     = baseDt > T(0) ? baseDt : currentDt;
        cycleStart_ = cycleStart;
        firstStep_  = false;
    }

    /// Re-derive the bin-hierarchy bookkeeping from a restored particle
    /// set. maxUsedBin_ is by construction always the max of the current
    /// ps.bin (advance() re-derives it every step), so scanning the
    /// restored bins reconstructs the uninterrupted schedule exactly.
    void restoreBins(const ParticleSet<T>& ps)
    {
        int maxBin = 0;
        for (int b : ps.bin)
            maxBin = std::max(maxBin, b);
        maxUsedBin_ = maxBin;
    }

private:
    /// One advance of the hierarchical binned schedule; see the file header
    /// for the full scheme.
    void advanceIndividual(ParticleSet<T>& ps, T maxVsignal, const LoopPolicy& policy)
    {
        std::size_t n     = ps.size();
        std::uint64_t s   = activeStep_;
        bool fullSync     = baseDt_ <= T(0) || binActive(maxUsedBin_, s - cycleStart_);

        if (fullSync)
        {
            // every particle's interval ends here and the previous force
            // pass covered the whole set: re-derive the hierarchy from
            // scratch
            cand_.resize(n);
            T dtMin = candidateMin(ps, maxVsignal, cand_, policy);

            cycleStart_ = s;
            if (firstStep_)
            {
                // initial-dt ramp: like Global mode, the very first base
                // step is clamped because the seed accelerations are not
                // yet trustworthy — but binning against the clamped base
                // would promote everyone 2^maxBins high and freeze the
                // hierarchy for a whole tiny-step cycle. One flat bin-0
                // step instead; the next advance is then a full sync that
                // builds the real hierarchy from converged forces.
                firstStep_ = false;
                baseDt_    = std::min(dtMin, par_.initialDt);
                parallelFor(
                    n,
                    [&](std::size_t i, std::size_t) {
                        ps.bin[i] = 0;
                        ps.dt[i]  = baseDt_;
                    },
                    policy);
                maxUsedBin_ = 0;
            }
            else
            {
                baseDt_ = dtMin;
                std::vector<WorkerSlot<int>> workerMax(parallelForWorkers());
                parallelFor(
                    n,
                    [&](std::size_t i, std::size_t worker) {
                        int k     = binFor(cand_[i]);
                        ps.bin[i] = k;
                        ps.dt[i]  = snappedDt(k);
                        workerMax[worker].value = std::max(workerMax[worker].value, k);
                    },
                    policy);
                int maxBin = 0;
                for (const auto& v : workerMax)
                    maxBin = std::max(maxBin, v.value);
                maxUsedBin_ = maxBin;
            }
        }
        else
        {
            // mid-cycle: rebin only the particles whose interval starts at
            // s (their forces are fresh — they were the previous force
            // set). Promotion is capped by the largest power of two
            // dividing the phase so the new interval still ends on an
            // active query; the cap is < maxUsedBin_ by construction, so
            // the cycle length never grows mid-cycle. A particle whose
            // fresh candidate fell below the base step lands in bin 0 and
            // is re-evaluated every base step until the next full sync
            // re-derives baseDt_.
            std::uint64_t phase = s - cycleStart_;
            int cap = std::min(par_.maxBins, int(std::countr_zero(phase)));
            parallelFor(
                n,
                [&](std::size_t i, std::size_t) {
                    if (!binActive(ps.bin[i], phase)) return;
                    T dti     = particleTimestep(ps, i, maxVsignal, par_);
                    int k     = std::min(binFor(dti), cap);
                    ps.bin[i] = k;
                    ps.dt[i]  = snappedDt(k);
                },
                policy);
            // demotions may have emptied the top bin: re-derive the cycle
            // modulus from the data so it always equals max(ps.bin) — the
            // invariant restoreBins() relies on
            std::vector<WorkerSlot<int>> workerMax(parallelForWorkers());
            parallelFor(
                n,
                [&](std::size_t i, std::size_t worker) {
                    workerMax[worker].value = std::max(workerMax[worker].value, ps.bin[i]);
                },
                policy);
            int maxBin = 0;
            for (const auto& v : workerMax)
                maxBin = std::max(maxBin, v.value);
            maxUsedBin_ = maxBin;
        }
        current_ = baseDt_; // the system advances by the smallest bin
    }

    /// Bin k holds particles with candidate dt in [baseDt 2^k, baseDt 2^(k+1)).
    int binFor(T dtCandidate) const
    {
        int k    = 0;
        T scaled = dtCandidate / baseDt_;
        while (k < par_.maxBins && scaled >= T(2))
        {
            scaled /= T(2);
            ++k;
        }
        return k;
    }

    /// The snapped per-particle step of bin k: exactly baseDt * 2^k, so the
    /// interval-opening/closing kicks can use ps.dt literally.
    T snappedDt(int k) const { return baseDt_ * T(std::uint64_t(1) << k); }

    std::vector<std::size_t> activeAt(const ParticleSet<T>& ps, std::uint64_t step) const
    {
        std::vector<std::size_t> act;
        std::size_t n = ps.size();
        act.reserve(n);
        if (par_.mode != TimesteppingMode::Individual)
        {
            for (std::size_t i = 0; i < n; ++i)
                act.push_back(i);
            return act;
        }
        std::uint64_t phase = step - cycleStart_;
        for (std::size_t i = 0; i < n; ++i)
        {
            if (binActive(ps.bin[i], phase)) act.push_back(i);
        }
        return act;
    }

    TimestepParams<T> par_;
    T current_{0};
    T baseDt_{0};
    std::uint64_t stepCount_{0};
    std::uint64_t activeStep_{0}; ///< the step the last advance() processed
    std::uint64_t cycleStart_{0}; ///< schedule anchor: last full sync step
    int maxUsedBin_{0};           ///< max of the current ps.bin
    bool firstStep_{true};
    std::vector<T> cand_; ///< per-particle dt candidates (sync scratch)
};

} // namespace sphexa
