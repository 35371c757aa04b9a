/// SFC reorder + cluster neighbor-search tests (tree/sfc_sort.hpp,
/// tree/cluster_list.hpp): permutation round trips, sorter invariants, and
/// the subsystem's central claim — the cluster search produces the exact
/// per-particle neighbor sequences of the per-particle tree walk, on random
/// clouds, periodic lattices and ghost-extended WCSPH sets, across cluster
/// and worker-pool sizes. Plus the satellite gates: grow-only NeighborList
/// resets and the per-step overflow surfaced in StepReport.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/simulation.hpp"
#include "deepest_tree.hpp"
#include "ic/lattice.hpp"
#include "ic/sedov.hpp"
#include "math/rng.hpp"
#include "neighbor_oracle.hpp"
#include "sph/boundaries.hpp"
#include "tree/cluster_list.hpp"
#include "tree/neighbors.hpp"
#include "tree/sfc_sort.hpp"

using namespace sphexa;

namespace {

struct PoolSizeGuard
{
    std::size_t saved;
    explicit PoolSizeGuard(std::size_t n) : saved(WorkerPool::instance().size())
    {
        WorkerPool::instance().resize(n);
    }
    ~PoolSizeGuard() { WorkerPool::instance().resize(saved); }
};

ParticleSetD randomCloudSet(std::size_t n, std::uint64_t seed, double hval = 0.05)
{
    ParticleSetD ps;
    ps.resize(n);
    Xoshiro256pp rng(seed);
    for (std::size_t i = 0; i < n; ++i)
    {
        ps.x[i]  = rng.uniform();
        ps.y[i]  = rng.uniform();
        ps.z[i]  = rng.uniform();
        ps.h[i]  = hval;
        ps.id[i] = i;
    }
    return ps;
}

/// Exact element-wise comparison: same counts, same indices, same order.
void expectListsIdentical(const NeighborList<double>& a, const NeighborList<double>& b)
{
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(a.overflowCount(), b.overflowCount());
    for (std::size_t i = 0; i < a.size(); ++i)
    {
        auto na = a.neighbors(i);
        auto nb = b.neighbors(i);
        ASSERT_EQ(na.size(), nb.size()) << "particle " << i;
        for (std::size_t k = 0; k < na.size(); ++k)
        {
            ASSERT_EQ(na[k], nb[k]) << "particle " << i << " entry " << k;
        }
    }
}

void runBothSearches(const ParticleSetD& ps, const Box<double>& box,
                     unsigned clusterSize, unsigned ngmax = 384)
{
    Octree<double> tree;
    tree.build(ps.x, ps.y, ps.z, box);

    NeighborList<double> nlWalk(ps.size(), ngmax);
    oracle::findNeighborsGlobal(tree, ps.x, ps.y, ps.z, ps.h, nlWalk);

    NeighborList<double> nlCluster(ps.size(), ngmax);
    ClusterWorkspace<double> ws;
    findNeighborsClustered(tree, ps.x, ps.y, ps.z, ps.h, nlCluster, ws, clusterSize);

    EXPECT_EQ(ws.clusters, (ps.size() + clusterSize - 1) / clusterSize);
    EXPECT_GT(ws.candidatesVisited, 0u);
    expectListsIdentical(nlWalk, nlCluster);
}

} // namespace

// --- permutation round trips ------------------------------------------------

TEST(SfcSort, InvertPermutationIsAnInverse)
{
    Xoshiro256pp rng(7);
    std::vector<std::size_t> perm(257);
    std::iota(perm.begin(), perm.end(), std::size_t(0));
    for (std::size_t k = perm.size(); k > 1; --k)
    {
        std::swap(perm[k - 1], perm[rng.uniformInt(k)]);
    }
    auto inv = invertPermutation(perm);
    for (std::size_t k = 0; k < perm.size(); ++k)
    {
        EXPECT_EQ(inv[perm[k]], k);
        EXPECT_EQ(perm[inv[k]], k);
    }
}

TEST(SfcSort, InvertPermutationRejectsOutOfRange)
{
    std::vector<std::size_t> bad{0, 5, 1};
    EXPECT_THROW(invertPermutation(bad), std::invalid_argument);
}

TEST(SfcSort, ReorderThenInverseReorderIsBitwiseIdentity)
{
    auto ps = randomCloudSet(611, 21);
    // make every field distinguishable, not just positions
    for (std::size_t i = 0; i < ps.size(); ++i)
    {
        ps.vx[i]  = 0.1 * double(i);
        ps.rho[i] = 1.0 + 1e-3 * double(i);
        ps.u[i]   = 2.0 - 1e-4 * double(i);
        ps.nc[i]  = int(i % 97);
        ps.bin[i] = int(i % 5);
    }
    ParticleSetD orig = ps;

    Box<double> box{{0, 0, 0}, {1, 1, 1}};
    SfcSorter<double> sorter;
    ASSERT_TRUE(sorter.apply(ps, box, SfcCurve::Morton));

    ps.reorder(invertPermutation(sorter.perm()));
    auto origFields = orig.realFields();
    auto curFields  = ps.realFields();
    ASSERT_EQ(origFields.size(), curFields.size());
    for (std::size_t f = 0; f < origFields.size(); ++f)
    {
        for (std::size_t i = 0; i < orig.size(); ++i)
        {
            ASSERT_EQ((*origFields[f])[i], (*curFields[f])[i]) << "field " << f;
        }
    }
    EXPECT_EQ(orig.id, ps.id);
    EXPECT_EQ(orig.nc, ps.nc);
    EXPECT_EQ(orig.bin, ps.bin);
}

// --- sorter invariants --------------------------------------------------------

TEST(SfcSort, AppliedOrderIsSortedAndIdempotent)
{
    auto ps = randomCloudSet(1000, 33);
    Box<double> box{{0, 0, 0}, {1, 1, 1}};
    SfcSorter<double> sorter;
    ASSERT_TRUE(sorter.apply(ps, box, SfcCurve::Hilbert));

    // ids travel with the particles: slot k now holds original perm()[k]
    for (std::size_t k = 0; k < ps.size(); ++k)
    {
        EXPECT_EQ(ps.id[k], sorter.perm()[k]);
    }

    // a second pass finds the set already sorted (identity fast path) and
    // leaves its key buffer — now recomputed over the new order — sorted
    EXPECT_FALSE(sorter.apply(ps, box, SfcCurve::Hilbert));
    EXPECT_TRUE(std::is_sorted(sorter.keys().begin(), sorter.keys().end()));
    for (std::size_t k = 0; k < ps.size(); ++k)
    {
        EXPECT_EQ(sorter.perm()[k], k);
    }
}

// --- cluster search vs per-particle walk -------------------------------------

TEST(ClusterList, MatchesTreeWalkOnRandomCloud)
{
    auto ps = randomCloudSet(800, 3);
    Box<double> box{{0, 0, 0}, {1, 1, 1}};
    for (unsigned clusterSize : {1u, 7u, 32u, 801u})
    {
        runBothSearches(ps, box, clusterSize);
    }
}

TEST(ClusterList, MatchesTreeWalkOnSortedCloudAcrossPools)
{
    auto ps = randomCloudSet(1200, 5);
    Box<double> box{{0, 0, 0}, {1, 1, 1}};
    SfcSorter<double> sorter;
    sorter.apply(ps, box, SfcCurve::Morton);
    for (std::size_t pool : {1, 4})
    {
        PoolSizeGuard guard(pool);
        runBothSearches(ps, box, 32);
    }
}

TEST(ClusterList, MatchesTreeWalkOnPeriodicLattice)
{
    // fully periodic Sedov-style box: wrapped candidate distances exercise
    // the periodic branches of aabbDistanceSq
    ParticleSetD ps;
    Box<double> box{{-0.5, -0.5, -0.5}, {0.5, 0.5, 0.5}, true, true, true};
    cubicLattice(ps, 10, 10, 10, box);
    for (std::size_t i = 0; i < ps.size(); ++i)
        ps.h[i] = 0.11;
    runBothSearches(ps, box, 32);
}

TEST(ClusterList, MatchesTreeWalkWithMirrorGhosts)
{
    // WCSPH shape: ghosts appended at the tail (phase K runs after the
    // reorder, so this mixed real+ghost layout is exactly what phase B sees)
    ParticleSetD ps;
    Box<double> box{{0, 0, 0}, {1, 1, 1}};
    cubicLattice(ps, 8, 8, 8, box);
    for (std::size_t i = 0; i < ps.size(); ++i)
    {
        ps.h[i] = 0.08;
        ps.m[i] = 1.0;
    }
    BoundaryConfig<double> bc;
    bc.enabled   = true;
    bc.wallLo[2] = true;
    bc.wallHi[0] = true;
    std::size_t nGhosts = appendMirrorGhosts(ps, box, bc);
    ASSERT_GT(nGhosts, 0u);
    runBothSearches(ps, box, 32);
}

TEST(ClusterList, OverflowCountMatchesTreeWalk)
{
    auto ps = randomCloudSet(400, 11, /*hval*/ 0.2); // dense: lists overflow
    Box<double> box{{0, 0, 0}, {1, 1, 1}};
    Octree<double> tree;
    tree.build(ps.x, ps.y, ps.z, box);

    NeighborList<double> nlWalk(ps.size(), 16);
    oracle::findNeighborsGlobal(tree, ps.x, ps.y, ps.z, ps.h, nlWalk);
    ASSERT_GT(nlWalk.overflowCount(), 0u);

    NeighborList<double> nlCluster(ps.size(), 16);
    ClusterWorkspace<double> ws;
    findNeighborsClustered(tree, ps.x, ps.y, ps.z, ps.h, nlCluster, ws, 32);
    EXPECT_EQ(nlCluster.overflowCount(), nlWalk.overflowCount());
}

// --- subset search vs the per-particle Individual walk -----------------------

namespace {

using Index = NeighborList<double>::Index;

/// About \p fraction of [0, n) in shuffled order, at least one index.
std::vector<std::size_t> randomSubset(std::size_t n, double fraction, std::uint64_t seed)
{
    Xoshiro256pp rng(seed);
    std::vector<std::size_t> subset;
    for (std::size_t i = 0; i < n; ++i)
        if (rng.uniform() < fraction) subset.push_back(i);
    if (subset.empty()) subset.push_back(rng.uniformInt(n));
    for (std::size_t k = subset.size(); k > 1; --k)
        std::swap(subset[k - 1], subset[rng.uniformInt(k)]);
    return subset;
}

/// Lists whose row i is {i}: a self entry no search writes, so a row a
/// subset search left alone is recognizable.
NeighborList<double> markedLists(std::size_t n)
{
    NeighborList<double> nl(n, 384);
    for (std::size_t i = 0; i < n; ++i)
    {
        Index self = Index(i);
        nl.set(i, std::span<const Index>(&self, 1));
    }
    return nl;
}

/// Subsets of one particle and of ~1%, ~10%, ~50% and 100% of \p ps, under
/// pools {1, 2, 4}: every subset row equals the Individual walk's entry for
/// entry, every other row keeps its mark, and the all-index subset equals
/// the all-particle search.
void expectSubsetsMatchOracle(const ParticleSetD& ps, const Box<double>& box, std::uint64_t seed)
{
    std::size_t n = ps.size();
    Octree<double> tree;
    tree.build(ps.x, ps.y, ps.z, box);

    std::vector<std::vector<std::size_t>> subsets{{n / 2}};
    for (double fraction : {0.01, 0.1, 0.5})
        subsets.push_back(randomSubset(n, fraction, seed++));
    subsets.push_back(randomSubset(n, 2.0, seed)); // every index, shuffled

    NeighborList<double> all(n, 384);
    ClusterWorkspace<double> ws;
    findNeighborsClustered(tree, ps.x, ps.y, ps.z, ps.h, all, ws, kClusterSize);

    for (std::size_t pool : {1, 2, 4})
    {
        PoolSizeGuard guard(pool);
        for (const auto& subset : subsets)
        {
            std::vector<bool> inSubset(n, false);
            for (std::size_t i : subset)
                inSubset[i] = true;
            auto walk = markedLists(n);
            oracle::findNeighborsIndividual(tree, ps.x, ps.y, ps.z, ps.h, subset, walk);
            auto clustered = markedLists(n);
            findNeighborsClustered(tree, ps.x, ps.y, ps.z, ps.h, subset, clustered, ws,
                                   kClusterSize);

            for (std::size_t i = 0; i < n; ++i)
            {
                auto got = clustered.neighbors(i);
                if (!inSubset[i])
                {
                    ASSERT_EQ(got.size(), 1u) << "untouched row " << i;
                    ASSERT_EQ(got[0], Index(i)) << "untouched row " << i;
                    continue;
                }
                auto expected = walk.neighbors(i);
                ASSERT_EQ(got.size(), expected.size())
                    << "particle " << i << ", subset of " << subset.size() << ", pool " << pool;
                for (std::size_t k = 0; k < got.size(); ++k)
                    ASSERT_EQ(got[k], expected[k]) << "particle " << i << " entry " << k;
            }
            EXPECT_EQ(clustered.overflowCount(), walk.overflowCount());
            if (subset.size() == n) expectListsIdentical(clustered, all);
        }
    }
}

/// \p ps with its slots shuffled.
ParticleSetD shuffled(ParticleSetD ps, std::uint64_t seed)
{
    std::vector<std::size_t> perm(ps.size());
    std::iota(perm.begin(), perm.end(), std::size_t(0));
    Xoshiro256pp rng(seed);
    for (std::size_t k = perm.size(); k > 1; --k)
        std::swap(perm[k - 1], perm[rng.uniformInt(k)]);
    ps.reorder(perm);
    return ps;
}

} // namespace

TEST(ClusterSubset, MatchesIndividualWalkOnOpenCloud)
{
    auto ps = randomCloudSet(900, 41, 0.07);
    Box<double> box{{0, 0, 0}, {1, 1, 1}};
    SfcSorter<double> sorter;
    sorter.apply(ps, box, SfcCurve::Hilbert);
    expectSubsetsMatchOracle(ps, box, 1);
    expectSubsetsMatchOracle(shuffled(ps, 2), box, 11);
}

TEST(ClusterSubset, MatchesIndividualWalkOnPeriodicLattice)
{
    ParticleSetD ps;
    Box<double> box{{-0.5, -0.5, -0.5}, {0.5, 0.5, 0.5}, true, true, true};
    cubicLattice(ps, 10, 10, 10, box);
    jitterPositions(ps, box, 0.1, 0.3, 7);
    for (std::size_t i = 0; i < ps.size(); ++i)
        ps.h[i] = (i % 5 == 0 ? 0.14 : 0.1); // unequal radii: maxR of a cluster matters
    SfcSorter<double> sorter;
    sorter.apply(ps, box, SfcCurve::Hilbert);
    expectSubsetsMatchOracle(ps, box, 21);
    expectSubsetsMatchOracle(shuffled(ps, 3), box, 31);
}

TEST(ClusterSubset, MatchesIndividualWalkOnDeepestTree)
{
    // 21 levels: every window's walk fills the whole DFS stack
    auto ps = deepestTreeCloud();
    Box<double> box{{0, 0, 0}, {1, 1, 1}};
    expectSubsetsMatchOracle(ps, box, 51);
    expectSubsetsMatchOracle(shuffled(ps, 4), box, 61);
}

TEST(ClusterSubset, EmptySubsetFillsNothingAndOutOfRangeThrows)
{
    auto ps = randomCloudSet(300, 43, 0.1);
    Box<double> box{{0, 0, 0}, {1, 1, 1}};
    Octree<double> tree;
    tree.build(ps.x, ps.y, ps.z, box);
    ClusterWorkspace<double> ws;

    // an empty subset is no particles, not all of them
    auto nl = markedLists(ps.size());
    std::vector<std::size_t> none;
    findNeighborsClustered(tree, ps.x, ps.y, ps.z, ps.h, none, nl, ws, kClusterSize);
    EXPECT_EQ(ws.clusters, 0u);
    for (std::size_t i = 0; i < ps.size(); ++i)
    {
        ASSERT_EQ(nl.count(i), 1u) << i;
        ASSERT_EQ(nl.neighbors(i)[0], Index(i)) << i;
    }

    std::vector<std::size_t> outOfRange{3, ps.size()};
    EXPECT_THROW(
        findNeighborsClustered(tree, ps.x, ps.y, ps.z, ps.h, outOfRange, nl, ws, kClusterSize),
        std::invalid_argument);
}

// --- grow-only NeighborList storage ------------------------------------------

TEST(NeighborListStorage, ResetReusesHighWaterMarkAllocation)
{
    using Index = NeighborList<double>::Index;
    auto fill = [](NeighborList<double>& nl, std::size_t n) {
        std::vector<Index> row(64);
        for (std::size_t i = 0; i < n; ++i)
            nl.set(i, row);
    };
    NeighborList<double> nl(1000, 64);
    fill(nl, 1000);
    const auto* data      = nl.entryData();
    std::size_t capacity  = nl.entryCapacity();
    ASSERT_GE(capacity, 1000u * 64u);

    // shrink and re-grow within the high-water mark: no reallocation
    nl.reset(200, 64);
    nl.reset(1000, 64);
    EXPECT_EQ(nl.entryData(), data);
    EXPECT_EQ(nl.entryCapacity(), capacity);

    // counts and overflow are still fully reset
    EXPECT_EQ(nl.totalNeighbors(), 0u);
    EXPECT_EQ(nl.overflowCount(), 0u);

    // the same-shape refill packs into the same pages
    fill(nl, 1000);
    EXPECT_EQ(nl.entryData(), data);
    EXPECT_EQ(nl.entryCapacity(), capacity);

    // growing past the mark is the only path that may reallocate
    nl.reset(2000, 64);
    fill(nl, 2000);
    EXPECT_GE(nl.entryCapacity(), 2000u * 64u);
}

// --- overflow surfaced per step ----------------------------------------------

TEST(StepReportOverflow, TruncatedListsAreCountedInTheReport)
{
    // ngmax far below the converged neighbor count: every particle's list
    // truncates, and the driver must surface that in the step report
    // (plus a one-line stderr warning) instead of silently losing pairs
    ParticleSetD ps;
    SedovConfig<double> ic;
    ic.nSide   = 8;
    auto setup = makeSedov(ps, ic);

    SimulationConfig<double> cfg;
    cfg.targetNeighbors   = 50;
    cfg.neighborTolerance = 45; // wide band: h converges despite the cap
    cfg.ngmax             = 16;
    Simulation<double> sim(std::move(ps), setup.box, Eos<double>(setup.eos), cfg);
    auto rep = sim.computeForces();
    EXPECT_GT(rep.neighborOverflow, 0u);

    // healthy capacity: the counter must go back to zero
    ParticleSetD ps2;
    auto setup2 = makeSedov(ps2, ic);
    cfg.ngmax   = 384;
    Simulation<double> sim2(std::move(ps2), setup2.box, Eos<double>(setup2.eos), cfg);
    EXPECT_EQ(sim2.computeForces().neighborOverflow, 0u);
}
