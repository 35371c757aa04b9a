/// Loop self-scheduling tests: chunk sequences against the published rules,
/// full-coverage invariants under concurrency, AWF weight adaptation, and
/// load-balance improvement on skewed workloads (measured parallelFor loops
/// on the worker pool).

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>

#include "math/rng.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/schedulers.hpp"

using namespace sphexa;

namespace {

/// RAII pool-size override for the measured-loop tests.
struct PoolSizeGuard
{
    std::size_t saved;
    explicit PoolSizeGuard(std::size_t n) : saved(WorkerPool::instance().size())
    {
        WorkerPool::instance().resize(n);
    }
    ~PoolSizeGuard() { WorkerPool::instance().resize(saved); }
};

/// body(i) for i in [0, n) as one measured parallelFor under \p s on a pool
/// of \p workers; returns the loop's per-worker busy times and chunk count.
template<class Body>
PhaseLoadStats measuredLoop(std::size_t n, std::size_t workers, SchedulingStrategy s,
                            Body body)
{
    PoolSizeGuard guard(workers);
    PhaseLoadStats stats;
    LoopPolicy pol;
    pol.strategy = s;
    pol.stats    = &stats;
    parallelFor(n, [&](std::size_t i, std::size_t) { body(i); }, pol);
    return stats;
}

} // namespace

// --- chunk sequences --------------------------------------------------------

TEST(ChunkSequence, StaticSplitsEvenly)
{
    auto c = chunkSequence(100, 4, SchedulingStrategy::Static);
    ASSERT_EQ(c.size(), 4u);
    EXPECT_EQ(c[0], 25u);
    EXPECT_EQ(std::accumulate(c.begin(), c.end(), 0u), 100u);
}

TEST(ChunkSequence, StaticUnevenRemainder)
{
    auto c = chunkSequence(10, 4, SchedulingStrategy::Static);
    // 3,3,2,2
    EXPECT_EQ(std::accumulate(c.begin(), c.end(), 0u), 10u);
    EXPECT_EQ(c[0], 3u);
    EXPECT_EQ(c[3], 2u);
}

TEST(ChunkSequence, SelfSchedulingAllOnes)
{
    auto c = chunkSequence(7, 3, SchedulingStrategy::SelfScheduling);
    EXPECT_EQ(c.size(), 7u);
    for (auto v : c)
        EXPECT_EQ(v, 1u);
}

TEST(ChunkSequence, GuidedDecreasesGeometrically)
{
    // GSS with n=100, p=4: 25, 18, 14, 10, 8, ... (remaining/p)
    auto c = chunkSequence(100, 4, SchedulingStrategy::Guided);
    EXPECT_EQ(c[0], 25u);
    EXPECT_EQ(c[1], 18u); // (100-25)/4 = 18.75 -> 18
    for (std::size_t i = 1; i < c.size(); ++i)
    {
        EXPECT_LE(c[i], c[i - 1]);
    }
    EXPECT_EQ(std::accumulate(c.begin(), c.end(), 0u), 100u);
}

TEST(ChunkSequence, FactoringBatchesOfP)
{
    // FAC with n=100, p=4: batch chunk = ceil(100/8) = 13, handed 4 times
    // (52), then ceil(48/8) = 6 four times (24), then ceil(24/8)=3 ...
    auto c = chunkSequence(100, 4, SchedulingStrategy::Factoring);
    EXPECT_EQ(c[0], 13u);
    EXPECT_EQ(c[1], 13u);
    EXPECT_EQ(c[2], 13u);
    EXPECT_EQ(c[3], 13u);
    EXPECT_EQ(c[4], 6u);
    EXPECT_EQ(std::accumulate(c.begin(), c.end(), 0u), 100u);
}

TEST(ChunkSequence, TrapezoidLinearDecrease)
{
    auto c = chunkSequence(128, 4, SchedulingStrategy::Trapezoid);
    // first chunk = n/(2p) = 16, decreasing toward 1
    EXPECT_EQ(c[0], 16u);
    for (std::size_t i = 1; i < c.size(); ++i)
    {
        EXPECT_LE(c[i], c[i - 1]);
    }
    EXPECT_EQ(std::accumulate(c.begin(), c.end(), 0u), 128u);
}

class SequenceCoverage
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, SchedulingStrategy>>
{
};

TEST_P(SequenceCoverage, SumsToN)
{
    auto [n, p, s] = GetParam();
    auto c = chunkSequence(n, p, s);
    EXPECT_EQ(std::accumulate(c.begin(), c.end(), std::size_t(0)), n);
    for (auto v : c)
        EXPECT_GE(v, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, SequenceCoverage,
    ::testing::Combine(::testing::Values(1, 13, 100, 1024),
                       ::testing::Values(1, 3, 8),
                       ::testing::Values(SchedulingStrategy::Static,
                                         SchedulingStrategy::SelfScheduling,
                                         SchedulingStrategy::Guided,
                                         SchedulingStrategy::Trapezoid,
                                         SchedulingStrategy::Factoring,
                                         SchedulingStrategy::AdaptiveWeightedFactoring)));

// --- randomized chunkSequence properties -----------------------------------
//
// For 200 seeded-random (N, P) pairs and every strategy: the chunks
// partition the iteration space exactly (sum to N, all strictly positive),
// and the decreasing-chunk strategies (GSS, TSS, FAC) hand out
// non-increasing sizes — the property their published rules guarantee.

TEST(ChunkSequenceProperty, RandomizedPairsPartitionExactly)
{
    Xoshiro256pp rng(20180918); // CLUSTER'18 vintage seed
    for (int trial = 0; trial < 200; ++trial)
    {
        std::size_t n = 1 + rng() % 50000;
        std::size_t p = 1 + rng() % 64;
        for (auto s : {SchedulingStrategy::Static, SchedulingStrategy::SelfScheduling,
                       SchedulingStrategy::Guided, SchedulingStrategy::Trapezoid,
                       SchedulingStrategy::Factoring,
                       SchedulingStrategy::AdaptiveWeightedFactoring})
        {
            auto c = chunkSequence(n, p, s);
            std::size_t sum = 0;
            for (auto v : c)
            {
                ASSERT_GE(v, 1u) << schedulingName(s) << " n=" << n << " p=" << p;
                sum += v;
            }
            ASSERT_EQ(sum, n) << schedulingName(s) << " n=" << n << " p=" << p;
        }
    }
}

TEST(ChunkSequenceProperty, DecreasingStrategiesAreNonIncreasing)
{
    Xoshiro256pp rng(42424242);
    for (int trial = 0; trial < 200; ++trial)
    {
        std::size_t n = 1 + rng() % 50000;
        std::size_t p = 1 + rng() % 64;
        for (auto s : {SchedulingStrategy::Guided, SchedulingStrategy::Trapezoid,
                       SchedulingStrategy::Factoring})
        {
            auto c = chunkSequence(n, p, s);
            for (std::size_t i = 1; i < c.size(); ++i)
            {
                ASSERT_LE(c[i], c[i - 1]) << schedulingName(s) << " n=" << n
                                          << " p=" << p << " chunk " << i;
            }
        }
    }
}

// --- LoopScheduler ------------------------------------------------------------

class LoopSchedulerSweep : public ::testing::TestWithParam<SchedulingStrategy>
{
};

TEST_P(LoopSchedulerSweep, EveryIterationExactlyOnce)
{
    const std::size_t n = 5000, workers = 8;
    LoopScheduler sched(n, workers, GetParam());
    std::vector<std::atomic<int>> hits(n);

    std::vector<std::thread> threads;
    for (std::size_t w = 0; w < workers; ++w)
    {
        threads.emplace_back([&, w] {
            while (true)
            {
                auto [b, e] = sched.next(w);
                if (b == e) break;
                for (std::size_t i = b; i < e; ++i)
                    hits[i].fetch_add(1);
            }
        });
    }
    for (auto& t : threads)
        t.join();

    for (std::size_t i = 0; i < n; ++i)
    {
        ASSERT_EQ(hits[i].load(), 1) << "iteration " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, LoopSchedulerSweep,
                         ::testing::Values(SchedulingStrategy::Static,
                                           SchedulingStrategy::SelfScheduling,
                                           SchedulingStrategy::Guided,
                                           SchedulingStrategy::Trapezoid,
                                           SchedulingStrategy::Factoring,
                                           SchedulingStrategy::AdaptiveWeightedFactoring));

TEST(LoopScheduler, RejectsZeroWorkers)
{
    EXPECT_THROW(LoopScheduler(10, 0, SchedulingStrategy::Static), std::invalid_argument);
}

TEST(LoopScheduler, AwfWeightsNormalized)
{
    LoopScheduler sched(100, 4, SchedulingStrategy::AdaptiveWeightedFactoring,
                        {2.0, 2.0, 1.0, 1.0});
    auto w = sched.weights();
    double sum = std::accumulate(w.begin(), w.end(), 0.0);
    EXPECT_NEAR(sum, 4.0, 1e-12); // mean 1
    EXPECT_GT(w[0], w[2]);
}

TEST(LoopScheduler, AwfAdaptsToRates)
{
    // worker 0 measured 3x the rate of worker 1 (same busy time, 3x the
    // iterations); fully blended, the weights become the normalized rates
    std::vector<double> weights{1.0, 1.0};
    std::vector<std::size_t> iters{300, 100};
    std::vector<double> busy{1.0, 1.0};
    adaptAwfWeights(weights, iters, busy, /*blend*/ 1.0);
    LoopScheduler sched(100, 2, SchedulingStrategy::AdaptiveWeightedFactoring, weights);
    EXPECT_NEAR(sched.weights()[0], 1.5, 1e-12);
    EXPECT_NEAR(sched.weights()[1], 0.5, 1e-12);
    // faster worker now receives larger chunks
    auto [b0, e0] = sched.next(0);
    auto [b1, e1] = sched.next(1);
    EXPECT_GT(e0 - b0, e1 - b1);
}

TEST(LoopScheduler, SelfSchedulingMaximizesChunkCount)
{
    LoopScheduler ss(50, 4, SchedulingStrategy::SelfScheduling);
    LoopScheduler gss(50, 4, SchedulingStrategy::Guided);
    auto drain = [](LoopScheduler& s) {
        std::size_t chunks = 0;
        while (true)
        {
            auto [b, e] = s.next(0);
            if (b == e) break;
            ++chunks;
        }
        return chunks;
    };
    EXPECT_EQ(drain(ss), 50u);
    EXPECT_LT(drain(gss), 50u);
}

// --- measured execution ----------------------------------------------------------

TEST(ExecuteLoop, SkewedWorkloadDynamicBeatsStatic)
{
    // the last N/8 iterations are 50x as expensive as the rest: STATIC
    // hands the whole hot region to the last worker, while the decreasing
    // chunks of GSS/FAC cover the hot tail in small pieces (the canonical
    // configuration for these schedulers — expensive iterations at the end;
    // with the hot region at the *front* their large first chunk swallows
    // it and they do no better than static).
    const std::size_t n = 1024;
    auto body = [&](std::size_t i) {
        volatile double sink = 0;
        std::size_t work = (i >= n - n / 8) ? 50000 : 1000;
        for (std::size_t k = 0; k < work; ++k)
            sink = sink + double(k) * 1e-9;
    };

    auto stat = measuredLoop(n, 4, SchedulingStrategy::Static, body);
    auto fac  = measuredLoop(n, 4, SchedulingStrategy::Factoring, body);
    auto gss  = measuredLoop(n, 4, SchedulingStrategy::Guided, body);

    EXPECT_LT(stat.loadBalance(), 0.7); // static is badly imbalanced here
    EXPECT_GT(fac.loadBalance(), stat.loadBalance() + 0.1);
    EXPECT_GT(gss.loadBalance(), stat.loadBalance() + 0.1);
}

TEST(ExecuteLoop, ChunkCountsMatchStrategyCharacter)
{
    const std::size_t n = 1000;
    auto body = [](std::size_t) {};
    auto ss  = measuredLoop(n, 4, SchedulingStrategy::SelfScheduling, body);
    auto fac = measuredLoop(n, 4, SchedulingStrategy::Factoring, body);
    EXPECT_EQ(ss.chunks, n);      // one scheduling event per iteration
    EXPECT_LT(fac.chunks, n / 4); // far fewer scheduling events
}
