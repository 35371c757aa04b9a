/// Tests of the ParallelFor execution layer (parallel/parallel_for.hpp):
/// the persistent worker pool, iteration coverage under every strategy,
/// per-phase busy-time accounting, AWF weight persistence — and the
/// strongest guarantee the layer makes to the solver: particle state after
/// a real run is bitwise identical for every pool size and every scheduling
/// strategy: Sedov hydro and hydro+gravity on both compute backends, and
/// the WCSPH dam break.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "core/simulation.hpp"
#include "ic/dam_break.hpp"
#include "ic/sedov.hpp"
#include "parallel/parallel_for.hpp"
#include "perf/pop_metrics.hpp"

using namespace sphexa;

namespace {

const std::vector<SchedulingStrategy> kAllStrategies = {
    SchedulingStrategy::Static,          SchedulingStrategy::SelfScheduling,
    SchedulingStrategy::Guided,          SchedulingStrategy::Trapezoid,
    SchedulingStrategy::Factoring,       SchedulingStrategy::AdaptiveWeightedFactoring};

/// RAII pool-size override: tests force {1, 2, 4} and restore the default.
struct PoolSizeGuard
{
    std::size_t saved;
    explicit PoolSizeGuard(std::size_t n) : saved(WorkerPool::instance().size())
    {
        WorkerPool::instance().resize(n);
    }
    ~PoolSizeGuard() { WorkerPool::instance().resize(saved); }
};

} // namespace

// --- worker pool -------------------------------------------------------------

TEST(WorkerPool, RunsEveryWorkerExactlyOnce)
{
    PoolSizeGuard guard(4);
    auto& pool = WorkerPool::instance();
    ASSERT_EQ(pool.size(), 4u);

    std::vector<std::atomic<int>> hits(4);
    pool.run([&](std::size_t w) { hits[w].fetch_add(1); });
    for (std::size_t w = 0; w < 4; ++w)
    {
        EXPECT_EQ(hits[w].load(), 1) << "worker " << w;
    }
}

TEST(WorkerPool, SurvivesRepeatedResizeAndReuse)
{
    auto& pool = WorkerPool::instance();
    std::size_t saved = pool.size();
    for (std::size_t n : {1u, 3u, 1u, 4u, 2u})
    {
        pool.resize(n);
        ASSERT_EQ(pool.size(), n);
        std::atomic<int> count{0};
        pool.run([&](std::size_t) { count.fetch_add(1); });
        EXPECT_EQ(count.load(), int(n));
    }
    pool.resize(saved);
}

TEST(WorkerPool, RejectsZeroSize)
{
    EXPECT_THROW(WorkerPool::instance().resize(0), std::invalid_argument);
    EXPECT_THROW(WorkerPool(0), std::invalid_argument);
}

// --- pool lifecycle ----------------------------------------------------------
//
// Standalone pools (not instance()) so construct/run/destroy cycles can be
// exercised under TSan without disturbing the process-wide pool. These are
// the tests that pin the startup/shutdown handshake: a worker that is slow
// to reach its condition wait must neither miss the stop flag nor re-run a
// stale job generation.

TEST(WorkerPoolLifecycle, ConstructDestroyWithoutRunningAJob)
{
    // destruction races startup: threads may still be on their way to the
    // first wait when stopThreads() flips the flag
    for (int cycle = 0; cycle < 50; ++cycle)
    {
        WorkerPool pool(4);
        EXPECT_EQ(pool.size(), 4u);
    }
}

TEST(WorkerPoolLifecycle, RepeatedConstructRunDestroyCycles)
{
    for (int cycle = 0; cycle < 25; ++cycle)
    {
        for (std::size_t n : {1u, 2u, 4u})
        {
            WorkerPool pool(n);
            std::atomic<int> count{0};
            pool.run([&](std::size_t) { count.fetch_add(1); });
            EXPECT_EQ(count.load(), int(n));
        }
    }
}

TEST(WorkerPoolLifecycle, BackToBackJobsReuseTheSameThreads)
{
    WorkerPool pool(3);
    std::vector<std::atomic<int>> hits(3);
    for (int job = 0; job < 100; ++job)
    {
        pool.run([&](std::size_t w) { hits[w].fetch_add(1); });
    }
    for (std::size_t w = 0; w < 3; ++w)
    {
        EXPECT_EQ(hits[w].load(), 100) << "worker " << w;
    }
}

TEST(WorkerPoolLifecycle, DefaultSizeFollowsOmpThreadBudget)
{
#ifdef _OPENMP
    int saved = omp_get_max_threads();
    omp_set_num_threads(3);
    EXPECT_EQ(WorkerPool::defaultSize(), 3u);

    // the documented idiom for following a runtime budget change
    PoolSizeGuard guard(1);
    WorkerPool::instance().resize(WorkerPool::defaultSize());
    EXPECT_EQ(WorkerPool::instance().size(), 3u);
    std::atomic<int> count{0};
    WorkerPool::instance().run([&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 3);

    omp_set_num_threads(saved);
#else
    // without OpenMP the budget comes from the environment
    EXPECT_GE(WorkerPool::defaultSize(), 1u);
#endif
}

// --- parallelFor coverage ----------------------------------------------------

TEST(ParallelFor, EveryIterationExactlyOnceUnderEveryStrategyAndPoolSize)
{
    const std::size_t n = 4097;
    for (std::size_t pool : {1u, 2u, 4u})
    {
        PoolSizeGuard guard(pool);
        for (auto s : kAllStrategies)
        {
            std::vector<std::atomic<int>> hits(n);
            LoopPolicy pol;
            pol.strategy = s;
            parallelFor(n, [&](std::size_t i, std::size_t) { hits[i].fetch_add(1); }, pol);
            for (std::size_t i = 0; i < n; ++i)
            {
                ASSERT_EQ(hits[i].load(), 1)
                    << schedulingName(s) << " pool=" << pool << " i=" << i;
            }
        }
    }
}

TEST(ParallelFor, BodyExceptionReachesTheCallerAndThePoolStaysUsable)
{
    // a body that throws on a pool thread must not end in std::terminate:
    // the region finishes, the caller catches, and the pool runs the next
    // loop (measured and unmeasured paths alike)
    const std::size_t n = 1000;
    for (std::size_t pool : {1u, 2u, 4u})
    {
        PoolSizeGuard guard(pool);
        for (auto s : kAllStrategies)
        {
            for (bool measured : {false, true})
            {
                PhaseLoadStats stats;
                std::vector<double> awf;
                LoopPolicy pol;
                pol.strategy = s;
                if (measured)
                {
                    pol.stats      = &stats;
                    pol.awfWeights = &awf;
                }
                EXPECT_THROW(parallelFor(
                                 n,
                                 [&](std::size_t i, std::size_t) {
                                     if (i == n - 1) throw std::domain_error("last index");
                                 },
                                 pol),
                             std::domain_error)
                    << schedulingName(s) << " pool=" << pool << " measured=" << measured;

                std::vector<std::atomic<int>> hits(n);
                parallelFor(n, [&](std::size_t i, std::size_t) { hits[i].fetch_add(1); }, pol);
                for (std::size_t i = 0; i < n; ++i)
                {
                    ASSERT_EQ(hits[i].load(), 1)
                        << schedulingName(s) << " pool=" << pool << " i=" << i;
                }
            }
        }
    }
}

TEST(WorkerPool, RethrowsTheLowestThrowingWorkersException)
{
    PoolSizeGuard guard(4);
    for (int rep = 0; rep < 20; ++rep)
    {
        try
        {
            WorkerPool::instance().run([](std::size_t w) {
                if (w > 0) throw std::runtime_error(std::to_string(w));
            });
            FAIL() << "no exception";
        }
        catch (const std::runtime_error& e)
        {
            EXPECT_STREQ(e.what(), "1");
        }
    }
}

TEST(ParallelFor, WorkerIdsStayInRange)
{
    PoolSizeGuard guard(3);
    std::vector<std::atomic<int>> perWorker(3);
    parallelFor(1000, [&](std::size_t, std::size_t w) {
        ASSERT_LT(w, 3u);
        perWorker[w].fetch_add(1);
    });
    int total = 0;
    for (auto& c : perWorker)
        total += c.load();
    EXPECT_EQ(total, 1000);
}

TEST(ParallelFor, EmptyLoopIsANoop)
{
    PhaseLoadStats stats;
    LoopPolicy pol;
    pol.stats = &stats;
    parallelFor(0, [&](std::size_t, std::size_t) { FAIL() << "body ran"; }, pol);
    EXPECT_EQ(stats.invocations, 0u);
}

TEST(ParallelFor, EmptyLoopIsANoopUnderEveryStrategyAndPoolSize)
{
    for (std::size_t pool : {1u, 4u})
    {
        PoolSizeGuard guard(pool);
        for (auto s : kAllStrategies)
        {
            LoopPolicy pol;
            pol.strategy = s;
            parallelFor(0, [&](std::size_t, std::size_t) { FAIL() << "body ran"; }, pol);
        }
    }
}

// --- busy-time accounting ----------------------------------------------------

TEST(ParallelFor, StatsRecordIterationsAndBusyTimes)
{
    PoolSizeGuard guard(2);
    PhaseLoadStats stats;
    LoopPolicy pol;
    pol.strategy = SchedulingStrategy::Factoring;
    pol.stats    = &stats;

    const std::size_t n = 2000;
    std::vector<double> sink(n);
    parallelFor(n, [&](std::size_t i, std::size_t) { sink[i] = double(i) * 1e-3; }, pol);

    ASSERT_EQ(stats.workerIterations.size(), 2u);
    EXPECT_EQ(stats.workerIterations[0] + stats.workerIterations[1], n);
    EXPECT_GT(stats.chunks, 0u);
    EXPECT_EQ(stats.invocations, 1u);
    double lb = stats.loadBalance();
    EXPECT_GT(lb, 0.0);
    EXPECT_LE(lb, 1.0);

    // a second loop accumulates into the same phase slot
    parallelFor(n, [&](std::size_t i, std::size_t) { sink[i] += 1.0; }, pol);
    EXPECT_EQ(stats.invocations, 2u);
    EXPECT_EQ(stats.workerIterations[0] + stats.workerIterations[1], 2 * n);
}

TEST(ParallelFor, ChunkCountsFollowTheRule)
{
    // a measured loop records exactly the chunks the scheduling rule hands
    // out (chunkSequence drains the same LoopScheduler), and its per-worker
    // iterations cover the loop once; n runs below and above the pool size
    for (std::size_t pool : {1u, 2u, 4u})
    {
        PoolSizeGuard guard(pool);
        for (auto s : kAllStrategies)
        {
            for (std::size_t n : {0u, 1u, 3u, 7u, 1000u, 4097u})
            {
                PhaseLoadStats stats;
                LoopPolicy pol;
                pol.strategy = s; // AWF without a weight store runs at unit weight
                pol.stats    = &stats;
                parallelFor(n, [](std::size_t, std::size_t) {}, pol);
                EXPECT_EQ(stats.chunks, chunkSequence(n, pool, s).size())
                    << schedulingName(s) << " pool=" << pool << " n=" << n;
                EXPECT_EQ(std::accumulate(stats.workerIterations.begin(),
                                          stats.workerIterations.end(), std::size_t(0)),
                          n)
                    << schedulingName(s) << " pool=" << pool << " n=" << n;
            }
        }
    }
}

TEST(ParallelFor, PopMetricsFromPhaseLoadStats)
{
    PhaseLoadStats stats;
    stats.workerBusySeconds = {1.0, 0.5};
    stats.wallSeconds       = 1.25;
    auto m = computePopMetrics(stats);
    EXPECT_NEAR(m.loadBalance, 0.75, 1e-12);          // avg(0.75)/max(1.0)
    EXPECT_NEAR(m.communicationEfficiency, 0.8, 1e-12); // max/runtime
    EXPECT_NEAR(m.parallelEfficiency, 0.6, 1e-12);

    PhaseLoadStats empty;
    EXPECT_THROW(computePopMetrics(empty), std::invalid_argument);
}

// --- AWF weight adaptation ---------------------------------------------------

TEST(AwfWeights, AdaptationConvergesTowardMeasuredRates)
{
    // worker 0 measures twice the rate of worker 1: the persisted weights
    // must converge to the normalized rates {4/3, 2/3} over repeated steps
    std::vector<double> weights{1.0, 1.0};
    std::vector<std::size_t> iters{2000, 1000};
    std::vector<double> busy{1.0, 1.0};

    for (int step = 0; step < 12; ++step)
    {
        adaptAwfWeights(weights, iters, busy);
    }
    EXPECT_NEAR(weights[0], 4.0 / 3.0, 1e-3);
    EXPECT_NEAR(weights[1], 2.0 / 3.0, 1e-3);
    // the LoopScheduler invariant: weights have mean 1
    EXPECT_NEAR(weights[0] + weights[1], 2.0, 1e-12);
}

TEST(AwfWeights, IdleWorkersKeepTheirWeight)
{
    std::vector<double> weights{1.2, 0.8, 1.0};
    std::vector<std::size_t> iters{1000, 1000, 0}; // worker 2 got no chunk
    std::vector<double> busy{0.5, 0.5, 0.0};
    adaptAwfWeights(weights, iters, busy, /*blend*/ 1.0);
    // measured workers move to their (equal) normalized rate, the idle one
    // is only rescaled by the mean-1 renormalization
    EXPECT_NEAR(weights[0], weights[1], 1e-12);
    double sum = weights[0] + weights[1] + weights[2];
    EXPECT_NEAR(sum, 3.0, 1e-12);
}

TEST(AwfWeights, StoreStartsEqualAndResetClears)
{
    PoolSizeGuard guard(2);
    AwfWeightStore store;
    // a fresh store (what a fresh StepContext sees) holds no adapted state
    EXPECT_TRUE(store.weightsFor(0).empty());

    LoopPolicy pol;
    pol.strategy   = SchedulingStrategy::AdaptiveWeightedFactoring;
    pol.awfWeights = &store.weightsFor(0);
    std::vector<double> sink(5000);
    parallelFor(5000, [&](std::size_t i, std::size_t) { sink[i] = double(i); }, pol);

    // the loop initialized the weights to equal and adapted them in place
    ASSERT_EQ(store.weightsFor(0).size(), 2u);
    double sum = store.weightsFor(0)[0] + store.weightsFor(0)[1];
    EXPECT_NEAR(sum, 2.0, 1e-9);

    store.reset();
    EXPECT_TRUE(store.weightsFor(0).empty());
}

TEST(AwfWeights, SimulationPersistsWeightsAcrossSteps)
{
    PoolSizeGuard guard(2);
    ParticleSetD ps;
    SedovConfig<double> sc;
    sc.nSide   = 8;
    auto setup = makeSedov(ps, sc);

    SimulationConfig<double> cfg;
    cfg.targetNeighbors   = 30;
    cfg.neighborTolerance = 10;
    cfg.phaseSchedule.fillSphPhases(SchedulingStrategy::AdaptiveWeightedFactoring);

    Simulation<double> sim(std::move(ps), setup.box, Eos<double>(setup.eos), cfg);
    sim.computeForces();
    sim.run(2);

    // the driver-owned store now carries adapted weights for the AWF phases
    auto& w = sim.awfWeights().weightsFor(std::size_t(Phase::E_Density));
    ASSERT_EQ(w.size(), 2u);
    EXPECT_NEAR(w[0] + w[1], 2.0, 1e-9);
    EXPECT_GT(w[0], 0.0);
    EXPECT_GT(w[1], 0.0);
}

// --- the invariance harness --------------------------------------------------

namespace {

/// The compute backend the default SimulationConfig ships.
constexpr KernelBackend kShippedBackend = SimulationConfig<double>{}.kernelBackend;

/// 5 Sedov steps (1000 particles) of the compressible assembly, every phase
/// under \p strategy.
ParticleSetD runSedov(SchedulingStrategy strategy, bool gravity, KernelBackend backend)
{
    ParticleSetD ps;
    SedovConfig<double> sc;
    sc.nSide   = 10;
    auto setup = makeSedov(ps, sc);

    SimulationConfig<double> cfg;
    cfg.targetNeighbors   = 40;
    cfg.neighborTolerance = 10;
    cfg.selfGravity       = gravity;
    if (gravity) cfg.gravity.softening = 1e-2;
    cfg.kernelBackend = backend;
    cfg.phaseSchedule.fill(strategy);

    Simulation<double> sim(std::move(ps), setup.box, Eos<double>(setup.eos), cfg);
    sim.computeForces();
    sim.run(5);
    return sim.particles();
}

/// 5 dam-break steps (512 particles) of the WCSPH assembly: mirror-ghost
/// walls (phase K), Tait EOS, body force and a free surface, every phase
/// under \p strategy.
ParticleSetD runDamBreak(SchedulingStrategy strategy)
{
    ParticleSetD ps;
    DamBreakConfig<double> ic;
    ic.nx      = 8;
    ic.ny      = 16;
    ic.nz      = 4;
    auto setup = makeDamBreak(ps, ic);

    auto cfg               = damBreakConfig(ic, setup);
    cfg.targetNeighbors    = 60;
    cfg.neighborTolerance  = 10;
    cfg.timestep.initialDt = 1e-4;
    cfg.phaseSchedule.fill(strategy);

    Simulation<double> sim(std::move(ps), setup.box, cfg);
    sim.computeForces();
    sim.run(5);
    return sim.particles();
}

/// Run \p scenario under one (strategy, pool size) combination and return
/// the final particle state.
template<class Scenario>
ParticleSetD runAt(const Scenario& scenario, SchedulingStrategy strategy, std::size_t poolSize)
{
    PoolSizeGuard guard(poolSize);
#ifdef _OPENMP
    int savedOmp = omp_get_max_threads();
    omp_set_num_threads(int(poolSize)); // vary the OpenMP walks too
#endif

    ParticleSetD ps = scenario(strategy);

#ifdef _OPENMP
    omp_set_num_threads(savedOmp);
#endif
    return ps;
}

/// Assert bitwise equality of every floating-point field.
void expectBitwiseEqual(const ParticleSetD& ref, const ParticleSetD& got,
                        const std::string& what)
{
    ASSERT_EQ(ref.size(), got.size()) << what;
    auto refFields = ref.realFields();
    auto gotFields = got.realFields();
    const auto& names = ParticleSetD::realFieldNames();
    for (std::size_t f = 0; f < refFields.size(); ++f)
    {
        const auto& a = *refFields[f];
        const auto& b = *gotFields[f];
        for (std::size_t i = 0; i < a.size(); ++i)
        {
            ASSERT_EQ(a[i], b[i]) << what << ": field " << names[f] << "[" << i << "]";
        }
    }
}

template<class Scenario>
void runInvarianceSuite(const Scenario& scenario)
{
    // reference: STATIC on a single worker — the fully serial execution
    ParticleSetD ref = runAt(scenario, SchedulingStrategy::Static, 1);
    ASSERT_GT(ref.size(), 0u);

    for (auto s : kAllStrategies)
    {
        for (std::size_t pool : {1u, 2u, 4u})
        {
            if (s == SchedulingStrategy::Static && pool == 1) continue; // the reference
            ParticleSetD got = runAt(scenario, s, pool);
            expectBitwiseEqual(ref, got,
                               std::string(schedulingName(s)) + "/pool=" +
                                   std::to_string(pool));
        }
    }
}

} // namespace

/// 5 steps are bitwise identical across pool sizes {1,2,4} and all six
/// scheduling strategies: every hot loop is accumulate-to-self and all
/// reductions are exact (min/max selection), so chunk boundaries — even the
/// timing-dependent ones of AWF — can never change physics. The unprefixed
/// cases run the shipped backend; the Scalar ones keep the exact-Sinc
/// reference covered.
TEST(ThreadStrategyInvariance, HydroPipelineIsBitwiseIdentical)
{
    runInvarianceSuite([](SchedulingStrategy s) { return runSedov(s, false, kShippedBackend); });
}

TEST(ThreadStrategyInvariance, HydroGravityPipelineIsBitwiseIdentical)
{
    runInvarianceSuite([](SchedulingStrategy s) { return runSedov(s, true, kShippedBackend); });
}

TEST(ThreadStrategyInvariance, ScalarHydroPipelineIsBitwiseIdentical)
{
    runInvarianceSuite(
        [](SchedulingStrategy s) { return runSedov(s, false, KernelBackend::Scalar); });
}

TEST(ThreadStrategyInvariance, ScalarHydroGravityPipelineIsBitwiseIdentical)
{
    runInvarianceSuite(
        [](SchedulingStrategy s) { return runSedov(s, true, KernelBackend::Scalar); });
}

TEST(ThreadStrategyInvariance, DamBreakPipelineIsBitwiseIdentical)
{
    runInvarianceSuite(runDamBreak);
}
