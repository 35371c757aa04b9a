#pragma once

/// \file parallel_for.hpp
/// The ParallelFor execution layer: a persistent worker pool running
/// index-range loops under any SchedulingStrategy (parallel/schedulers.hpp).
///
/// This is the bridge between the self-scheduling layer of Table 4 ("DLB
/// with self-scheduling") and the SPH hot loops: instead of raw
/// `#pragma omp parallel for` pragmas, the phase kernels (density, IAD,
/// div/curl, momentum-energy, ...) call parallelFor() with a LoopPolicy
/// naming the strategy, and the pool executes the loop through a
/// LoopScheduler work queue while measuring per-worker busy time. The
/// measurements feed the POP load-balance metrics of each StepReport
/// (perf/pop_metrics.hpp), so the scheduling ablation runs on the actual
/// solver rather than a synthetic loop.
///
/// Three properties the SPH pipeline relies on:
///
///  - Persistence: WorkerPool threads are created once and reused by every
///    phase of every step; the pool is the only place in src/ that starts
///    a thread (lint rule `one-executor`).
///  - Determinism: every loop body dispatched here is accumulate-to-self
///    (iteration i writes only slot i) and reductions are exact min/max
///    over per-worker partials, so particle state is bitwise identical for
///    any pool size and any strategy — chunk boundaries never change
///    results (proven by tests/test_parallel_for.cpp).
///  - Adaptivity: AWF weights live in an AwfWeightStore owned by the
///    driver and referenced by each StepContext, so the measured
///    per-worker rates of step n shape the chunk sizes of step n+1.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <functional>
#include <map>
#include <mutex>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "parallel/schedulers.hpp"
#include "perf/timer.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace sphexa {

/// Accumulated measurement of the parallelFor executions of one phase:
/// per-worker busy seconds (the "useful time" of the POP methodology),
/// iteration counts, scheduling events and wall time.
struct PhaseLoadStats
{
    std::vector<double> workerBusySeconds;
    std::vector<std::size_t> workerIterations;
    std::size_t chunks = 0;     ///< scheduling events (overhead proxy)
    double wallSeconds = 0;     ///< summed wall time of the executions
    std::size_t invocations = 0;

    /// Merge one loop execution into the phase totals (a phase may run
    /// several loops, e.g. EOS + IAD inside phase F).
    void accumulate(std::span<const double> busy, std::span<const std::size_t> iters,
                    std::size_t loopChunks, double wall)
    {
        if (workerBusySeconds.size() < busy.size())
        {
            workerBusySeconds.resize(busy.size(), 0.0);
            workerIterations.resize(busy.size(), 0);
        }
        for (std::size_t w = 0; w < busy.size(); ++w)
        {
            workerBusySeconds[w] += busy[w];
            workerIterations[w] += iters[w];
        }
        chunks += loopChunks;
        wallSeconds += wall;
        ++invocations;
    }

    /// POP-style load balance of the phase: mean/max worker busy time.
    double loadBalance() const
    {
        double mx = 0, sum = 0;
        for (double t : workerBusySeconds)
        {
            mx = std::max(mx, t);
            sum += t;
        }
        return mx > 0 ? sum / (double(workerBusySeconds.size()) * mx) : 1.0;
    }
};

/// Blend persisted AWF weights toward the measured per-worker execution
/// rates (iterations per busy second), the adaptive step of Banicescu's
/// adaptive weighted factoring. Workers that received no work keep their
/// previous weight; the result is renormalized to mean 1 (the invariant
/// LoopScheduler expects). \p blend in (0, 1] controls convergence speed.
inline void adaptAwfWeights(std::vector<double>& weights,
                            std::span<const std::size_t> iterations,
                            std::span<const double> busySeconds, double blend = 0.5)
{
    std::size_t p = weights.size();
    if (iterations.size() != p || busySeconds.size() != p)
    {
        throw std::invalid_argument("adaptAwfWeights: size mismatch");
    }

    std::vector<double> rate(p, 0.0);
    double rateSum = 0;
    std::size_t measured = 0;
    for (std::size_t w = 0; w < p; ++w)
    {
        if (iterations[w] > 0 && busySeconds[w] > 0)
        {
            rate[w] = double(iterations[w]) / busySeconds[w];
            rateSum += rate[w];
            ++measured;
        }
    }
    if (measured == 0 || rateSum <= 0) return;

    double rateMean = rateSum / double(measured);
    for (std::size_t w = 0; w < p; ++w)
    {
        if (rate[w] > 0)
        {
            weights[w] = (1.0 - blend) * weights[w] + blend * rate[w] / rateMean;
        }
    }
    double wsum = 0;
    for (double w : weights)
        wsum += w;
    if (wsum > 0)
    {
        for (double& w : weights)
            w = w * double(p) / wsum;
    }
}

/// Per-phase persistent AWF weight vectors, keyed by phase index. Owned by
/// a driver (one per Simulation) and referenced by each StepContext it
/// builds, so the weights survive across steps while a freshly constructed
/// context starts from equal weights. reset() returns every phase to the
/// equal-weight state.
class AwfWeightStore
{
public:
    /// The weight vector of phase \p phase (empty until first adapted;
    /// parallelFor initializes an empty vector to equal weights). The
    /// returned reference stays valid across later weightsFor() calls
    /// (node-stable map), so a LoopPolicy may hold it for several loops.
    std::vector<double>& weightsFor(std::size_t phase) { return weights_[phase]; }

    void reset() { weights_.clear(); }

    std::size_t phaseCount() const { return weights_.size(); }

private:
    std::map<std::size_t, std::vector<double>> weights_;
};

/// The persistent worker pool. The process-wide instance() is created on
/// first use and reused by every parallelFor call; the calling thread
/// participates as worker 0, so a pool of size 1 executes loops inline
/// with zero synchronization. resize() must not be called while a loop is
/// in flight (the SPH drivers never nest parallelFor calls).
class WorkerPool
{
public:
    static WorkerPool& instance()
    {
        static WorkerPool pool;
        return pool;
    }

    /// A standalone pool of \p n workers (including the calling thread).
    /// parallelFor always uses instance(); standalone pools exist so the
    /// lifecycle tests (and TSan) can exercise construct/run/destroy cycles
    /// without touching the process-wide pool.
    explicit WorkerPool(std::size_t n) : nWorkers_(n)
    {
        if (n == 0) throw std::invalid_argument("WorkerPool: size must be positive");
        startThreads();
    }

    /// Total workers, including the calling thread.
    std::size_t size() const { return nWorkers_; }

    /// The pool size implied by the current OpenMP thread budget
    /// (`OMP_NUM_THREADS` / omp_set_num_threads). instance() starts at this
    /// size; callers that change the budget at runtime can follow it with
    /// `resize(WorkerPool::defaultSize())`.
    static std::size_t defaultSize()
    {
#ifdef _OPENMP
        int n = omp_get_max_threads();
        return n > 0 ? std::size_t(n) : 1;
#else
        if (const char* env = std::getenv("OMP_NUM_THREADS"))
        {
            long n = std::strtol(env, nullptr, 10);
            if (n > 0) return std::size_t(n);
        }
        unsigned hc = std::thread::hardware_concurrency();
        return hc > 0 ? hc : 1;
#endif
    }

    void resize(std::size_t n)
    {
        if (n == 0) throw std::invalid_argument("WorkerPool: size must be positive");
        if (n == nWorkers_) return;
        stopThreads();
        nWorkers_ = n;
        startThreads();
    }

    /// Run job(worker) once per worker; returns when all workers finished.
    /// Not reentrant: a job must not itself call run().
    ///
    /// A job that throws ends only its own worker's share: the others run
    /// theirs to completion (they may reference the caller's frame), and
    /// then the exception of the lowest-numbered worker that threw is
    /// rethrown on the caller, whatever the timing. The pool stays usable.
    void run(const std::function<void(std::size_t)>& job)
    {
        if (nWorkers_ == 1)
        {
            job(0);
            return;
        }
        errors_.assign(nWorkers_, nullptr);
        {
            std::lock_guard<std::mutex> lock(mu_);
            job_ = &job;
            ++generation_;
            pending_ = nWorkers_ - 1;
        }
        cv_.notify_all();
        runCaught(job, 0);
        {
            std::unique_lock<std::mutex> lock(mu_);
            doneCv_.wait(lock, [&] { return pending_ == 0; });
            job_ = nullptr;
        }
        for (const auto& e : errors_)
        {
            if (e) std::rethrow_exception(e);
        }
    }

    ~WorkerPool() { stopThreads(); }

    WorkerPool(const WorkerPool&) = delete;
    WorkerPool& operator=(const WorkerPool&) = delete;

private:
    WorkerPool() : WorkerPool(defaultSize()) {}

    void startThreads()
    {
        stop_ = false;
        // capture the generation now (no job can be in flight during
        // start-up), so a thread that is slow to reach its wait cannot
        // mistake the first published job for one it already ran
        const std::uint64_t gen = generation_;
        threads_.reserve(nWorkers_ - 1);
        for (std::size_t w = 1; w < nWorkers_; ++w)
        {
            threads_.emplace_back([this, w, gen] { workerMain(w, gen); });
        }
    }

    void stopThreads()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            stop_ = true;
        }
        cv_.notify_all();
        for (auto& t : threads_)
            t.join();
        threads_.clear();
    }

    void workerMain(std::size_t id, std::uint64_t seen)
    {
        std::unique_lock<std::mutex> lock(mu_);
        while (true)
        {
            cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
            if (stop_) return;
            seen = generation_;
            const auto* job = job_;
            lock.unlock();
            runCaught(*job, id);
            lock.lock();
            if (--pending_ == 0) doneCv_.notify_all();
        }
    }

    void runCaught(const std::function<void(std::size_t)>& job, std::size_t id)
    {
        try
        {
            job(id);
        }
        catch (...)
        {
            errors_[id] = std::current_exception();
        }
    }

    std::size_t nWorkers_;
    std::vector<std::thread> threads_;
    std::vector<std::exception_ptr> errors_; ///< per worker, of the running job
    std::mutex mu_;
    std::condition_variable cv_, doneCv_;
    const std::function<void(std::size_t)>* job_{nullptr};
    std::uint64_t generation_{0};
    std::size_t pending_{0};
    bool stop_{false};
};

/// How one parallelFor execution schedules its iterations and where it
/// reports its measurements. Default: static chunking, no accounting —
/// the drop-in equivalent of `#pragma omp parallel for schedule(static)`.
struct LoopPolicy
{
    SchedulingStrategy strategy = SchedulingStrategy::Static;
    /// Persistent AWF weights (from an AwfWeightStore); read before the
    /// loop and adapted from the measured rates afterwards. Ignored for
    /// the non-adaptive strategies.
    std::vector<double>* awfWeights = nullptr;
    /// Busy-time accounting sink; one phase accumulates all its loops here.
    PhaseLoadStats* stats = nullptr;
};

/// Cache-line-padded per-worker scratch slot for the exact-reduction idiom:
/// adjacent workers' partials never share a line, so the per-iteration
/// read-modify-write of the hot loops does not ping-pong cache lines.
template<class T>
struct alignas(64) WorkerSlot
{
    T value{};
};

/// Run body(i, worker) for every i in [0, n) on the persistent pool under
/// the policy's scheduling strategy, measuring per-worker busy time when
/// anyone will read it (a stats sink is attached or AWF needs rates).
///
/// The body must be safe to run concurrently for distinct i and must not
/// depend on which worker executes which iteration except through
/// per-worker scratch slots (the exact-reduction idiom: each worker folds
/// into slot `worker` — use WorkerSlot — and the caller combines the slots
/// afterwards). An exception thrown by the body reaches the caller once
/// the region has finished (WorkerPool::run); iterations after it in the
/// throwing worker's share are skipped.
template<class Body>
inline void parallelFor(std::size_t n, Body&& body, const LoopPolicy& policy = {})
{
    auto& pool = WorkerPool::instance();
    std::size_t p = pool.size();
    if (n == 0) return;

    const bool adaptive = policy.strategy ==
                              SchedulingStrategy::AdaptiveWeightedFactoring &&
                          policy.awfWeights != nullptr;
    const bool measure = policy.stats != nullptr || adaptive;

    // per-worker accounting: allocated, and each chunk timed, only when
    // measured
    Timer wall;
    std::vector<double> busy(measure ? p : 0, 0.0);
    std::vector<std::size_t> iters(measure ? p : 0, 0);
    auto runChunk = [&](std::size_t b, std::size_t e, std::size_t w) {
        if (!measure)
        {
            for (std::size_t i = b; i < e; ++i)
                body(i, w);
            return;
        }
        Timer t;
        for (std::size_t i = b; i < e; ++i)
            body(i, w);
        busy[w] += t.elapsed();
        iters[w] += e - b;
    };

    std::size_t chunks = 0;
    if (policy.strategy == SchedulingStrategy::Static)
    {
        // fast path: each worker runs its own block, no work queue
        pool.run([&](std::size_t w) {
            auto [b, e] = detail::staticBlock(n, p, w);
            if (b < e) runChunk(b, e, w);
        });
        chunks = std::min(n, p);
    }
    else
    {
        std::vector<double> weights;
        if (adaptive)
        {
            if (policy.awfWeights->size() != p) policy.awfWeights->assign(p, 1.0);
            weights = *policy.awfWeights;
        }
        LoopScheduler sched(n, p, policy.strategy, std::move(weights));
        pool.run([&](std::size_t w) {
            while (true)
            {
                auto [b, e] = sched.next(w);
                if (b == e) break;
                runChunk(b, e, w);
            }
        });
        chunks = sched.chunksHanded();
    }

    if (!measure) return;
    if (adaptive) adaptAwfWeights(*policy.awfWeights, iters, busy);
    if (policy.stats) policy.stats->accumulate(busy, iters, chunks, wall.elapsed());
}

/// Number of per-worker scratch slots a caller needs for the exact-reduction
/// idiom with the current pool.
inline std::size_t parallelForWorkers() { return WorkerPool::instance().size(); }

} // namespace sphexa
