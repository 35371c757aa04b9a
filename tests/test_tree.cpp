/// Octree and SFC-key tests: round trips, ordering invariants, tree
/// structural invariants, and neighbor-search equivalence against brute
/// force — including periodic boxes — as property tests over random clouds,
/// plus the maximal-depth tree that fills every walk's stack.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <ostream>
#include <set>

#include "core/simulation.hpp"
#include "deepest_tree.hpp"
#include "ic/sedov.hpp"
#include "math/rng.hpp"
#include "neighbor_oracle.hpp"
#include "sph/particles.hpp"
#include "tree/cluster_list.hpp"
#include "tree/gravity.hpp"
#include "tree/hilbert.hpp"
#include "tree/morton.hpp"
#include "tree/neighbors.hpp"
#include "tree/octree.hpp"
#include "tree/sfc_sort.hpp"

using namespace sphexa;

// --- Morton keys ------------------------------------------------------------

TEST(Morton, EncodeDecodeRoundTrip)
{
    Xoshiro256pp rng(1);
    for (int t = 0; t < 1000; ++t)
    {
        std::uint64_t x = rng.uniformInt(sfcCellsPerDim);
        std::uint64_t y = rng.uniformInt(sfcCellsPerDim);
        std::uint64_t z = rng.uniformInt(sfcCellsPerDim);
        std::uint64_t dx, dy, dz;
        mortonDecode(mortonEncode(x, y, z), dx, dy, dz);
        EXPECT_EQ(dx, x);
        EXPECT_EQ(dy, y);
        EXPECT_EQ(dz, z);
    }
}

TEST(Morton, KnownValues)
{
    EXPECT_EQ(mortonEncode(0, 0, 0), 0u);
    EXPECT_EQ(mortonEncode(0, 0, 1), 1u);
    EXPECT_EQ(mortonEncode(0, 1, 0), 2u);
    EXPECT_EQ(mortonEncode(1, 0, 0), 4u);
    EXPECT_EQ(mortonEncode(1, 1, 1), 7u);
}

TEST(Morton, OctantOrderIsDepthFirst)
{
    // the top-level octant of a key is its top 3 bits
    std::uint64_t big = sfcCellsPerDim / 2; // first cell of upper half
    std::uint64_t key = mortonEncode(big, 0, 0);
    EXPECT_EQ(key >> 60, 4u); // x-bit at the top octant
}

TEST(Morton, Monotonicity)
{
    // along each axis, increasing coordinate increases the key (other
    // coordinates zero).
    std::uint64_t prev = 0;
    for (std::uint64_t c = 1; c < 64; ++c)
    {
        std::uint64_t k = mortonEncode(c, 0, 0);
        EXPECT_GT(k, prev);
        prev = k;
    }
}

TEST(SfcKey, CellCoordClampsFiniteAndRejectsNonFinite)
{
    EXPECT_EQ(toCellCoord(-0.5), 0u);
    EXPECT_EQ(toCellCoord(0.5), sfcCellsPerDim / 2);
    EXPECT_EQ(toCellCoord(1.5), sfcCellsPerDim - 1);
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_THROW(toCellCoord(std::numeric_limits<double>::quiet_NaN()), std::domain_error);
    EXPECT_THROW(toCellCoord(inf), std::domain_error);
    EXPECT_THROW(toCellCoord(-inf), std::domain_error);
    Box<double> box{{0, 0, 0}, {1, 1, 1}};
    Vec3<double> bad{0.5, std::numeric_limits<double>::quiet_NaN(), 0.5};
    EXPECT_THROW(mortonKey(bad, box), std::domain_error);
    EXPECT_THROW(hilbertKey(bad, box), std::domain_error);
}

TEST(SfcKey, NonFinitePositionStopsTheForcePass)
{
    // a NaN coordinate must never reach the SFC key's integer cast: phase
    // L's sort throws instead, on a pool thread and on the caller alike
    const std::size_t saved = WorkerPool::instance().size();
    for (std::size_t pool : {1u, 4u})
    {
        WorkerPool::instance().resize(pool);
        ParticleSetD ps;
        SedovConfig<double> ic;
        ic.nSide   = 8;
        auto setup = makeSedov(ps, ic);
        ps.x[ps.size() / 2] = std::numeric_limits<double>::quiet_NaN();
        Simulation<double> sim(std::move(ps), setup.box, Eos<double>(setup.eos),
                               SimulationConfig<double>{});
        EXPECT_THROW(sim.computeForces(), std::domain_error) << "pool " << pool;
    }
    WorkerPool::instance().resize(saved);
}

// --- Hilbert keys -----------------------------------------------------------

TEST(Hilbert, EncodeDecodeRoundTrip)
{
    Xoshiro256pp rng(2);
    for (int t = 0; t < 1000; ++t)
    {
        std::uint64_t x = rng.uniformInt(sfcCellsPerDim);
        std::uint64_t y = rng.uniformInt(sfcCellsPerDim);
        std::uint64_t z = rng.uniformInt(sfcCellsPerDim);
        std::uint64_t dx, dy, dz;
        hilbertDecode(hilbertEncode(x, y, z), dx, dy, dz);
        EXPECT_EQ(dx, x);
        EXPECT_EQ(dy, y);
        EXPECT_EQ(dz, z);
    }
}

TEST(Hilbert, IsABijectionOnCoarseGrid)
{
    // On a 8x8x8 sub-grid (scaled to full resolution), keys must be unique.
    std::set<std::uint64_t> keys;
    std::uint64_t step = sfcCellsPerDim / 8;
    for (std::uint64_t x = 0; x < 8; ++x)
        for (std::uint64_t y = 0; y < 8; ++y)
            for (std::uint64_t z = 0; z < 8; ++z)
            {
                keys.insert(hilbertEncode(x * step, y * step, z * step));
            }
    EXPECT_EQ(keys.size(), 512u);
}

TEST(Hilbert, AdjacencyProperty)
{
    // Defining property of the Hilbert curve: consecutive cells along the
    // curve are face neighbors (unit step in exactly one axis). Verify on
    // the full resolution curve restricted to the first 4096 steps of a
    // coarse traversal: we decode consecutive keys at the deepest level.
    std::uint64_t px = 0, py = 0, pz = 0;
    hilbertDecode(0, px, py, pz);
    for (std::uint64_t k = 1; k < 4096; ++k)
    {
        std::uint64_t x, y, z;
        hilbertDecode(k, x, y, z);
        std::uint64_t manhattan = (x > px ? x - px : px - x) + (y > py ? y - py : py - y) +
                                  (z > pz ? z - pz : pz - z);
        ASSERT_EQ(manhattan, 1u) << "at key " << k;
        px = x; py = y; pz = z;
    }
}

TEST(Hilbert, BetterLocalityThanMorton)
{
    // Sum of |key(i) - key(j)| over face-neighbor cell pairs in a coarse
    // grid: Hilbert should not be worse than Morton (locality measure).
    const std::uint64_t n = 16;
    std::uint64_t scale = sfcCellsPerDim / n;
    auto span = [&](auto encode) {
        long double total = 0;
        for (std::uint64_t x = 0; x + 1 < n; ++x)
            for (std::uint64_t y = 0; y < n; ++y)
                for (std::uint64_t z = 0; z < n; ++z)
                {
                    auto a = encode(x * scale, y * scale, z * scale);
                    auto b = encode((x + 1) * scale, y * scale, z * scale);
                    total += a > b ? (long double)(a - b) : (long double)(b - a);
                }
        return total;
    };
    long double mortonSpan  = span([](auto a, auto b, auto c) { return mortonEncode(a, b, c); });
    long double hilbertSpan = span([](auto a, auto b, auto c) { return hilbertEncode(a, b, c); });
    EXPECT_LT(hilbertSpan, mortonSpan);
}

// --- Octree invariants ------------------------------------------------------

namespace {

struct Cloud
{
    std::vector<double> x, y, z, h;
};

Cloud randomCloud(std::size_t n, std::uint64_t seed, double hval = 0.05)
{
    Cloud c;
    Xoshiro256pp rng(seed);
    for (std::size_t i = 0; i < n; ++i)
    {
        c.x.push_back(rng.uniform());
        c.y.push_back(rng.uniform());
        c.z.push_back(rng.uniform());
        c.h.push_back(hval);
    }
    return c;
}

} // namespace

class OctreeSweep : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(OctreeSweep, OrderIsAPermutation)
{
    auto c = randomCloud(GetParam(), 10 + GetParam());
    Box<double> box{{0, 0, 0}, {1, 1, 1}};
    Octree<double> tree;
    tree.build(c.x, c.y, c.z, box);

    std::vector<char> seen(GetParam(), 0);
    for (auto i : tree.order())
    {
        ASSERT_LT(i, GetParam());
        ASSERT_FALSE(seen[i]);
        seen[i] = 1;
    }
}

TEST_P(OctreeSweep, SortedKeysAreSorted)
{
    auto c = randomCloud(GetParam(), 20 + GetParam());
    Box<double> box{{0, 0, 0}, {1, 1, 1}};
    Octree<double> tree;
    tree.build(c.x, c.y, c.z, box);
    EXPECT_TRUE(std::is_sorted(tree.sortedKeys().begin(), tree.sortedKeys().end()));
}

TEST_P(OctreeSweep, NodesPartitionParticles)
{
    auto c = randomCloud(GetParam(), 30 + GetParam());
    Box<double> box{{0, 0, 0}, {1, 1, 1}};
    Octree<double> tree;
    tree.build(c.x, c.y, c.z, box);

    // root covers everything
    EXPECT_EQ(tree.node(0).first, 0u);
    EXPECT_EQ(tree.node(0).count, GetParam());

    // children of every internal node exactly tile the parent's range
    for (std::size_t nIdx = 0; nIdx < tree.nodeCount(); ++nIdx)
    {
        const auto& nd = tree.node(std::uint32_t(nIdx));
        if (nd.nChildren == 0) continue;
        std::uint32_t covered = 0;
        std::uint32_t expectNext = nd.first;
        for (int ch = 0; ch < nd.nChildren; ++ch)
        {
            const auto& cd = tree.node(nd.child + ch);
            EXPECT_EQ(cd.first, expectNext);
            covered += cd.count;
            expectNext = cd.first + cd.count;
        }
        EXPECT_EQ(covered, nd.count);
    }
}

TEST_P(OctreeSweep, AabbsContainTheirParticles)
{
    auto c = randomCloud(GetParam(), 40 + GetParam());
    Box<double> box{{0, 0, 0}, {1, 1, 1}};
    Octree<double> tree;
    tree.build(c.x, c.y, c.z, box);

    for (std::size_t nIdx = 0; nIdx < tree.nodeCount(); ++nIdx)
    {
        const auto& nd = tree.node(std::uint32_t(nIdx));
        for (std::uint32_t k = nd.first; k < nd.first + nd.count; ++k)
        {
            auto i = tree.order()[k];
            EXPECT_GE(c.x[i], nd.lo.x - 1e-12);
            EXPECT_LE(c.x[i], nd.hi.x + 1e-12);
            EXPECT_GE(c.y[i], nd.lo.y - 1e-12);
            EXPECT_LE(c.y[i], nd.hi.y + 1e-12);
            EXPECT_GE(c.z[i], nd.lo.z - 1e-12);
            EXPECT_LE(c.z[i], nd.hi.z + 1e-12);
        }
    }
}

TEST_P(OctreeSweep, LeafSizeRespected)
{
    auto c = randomCloud(GetParam(), 50 + GetParam());
    Box<double> box{{0, 0, 0}, {1, 1, 1}};
    Octree<double>::BuildParams params;
    params.leafSize = 16;
    Octree<double> tree;
    tree.build(c.x, c.y, c.z, box, params);

    for (std::size_t nIdx = 0; nIdx < tree.nodeCount(); ++nIdx)
    {
        const auto& nd = tree.node(std::uint32_t(nIdx));
        if (nd.nChildren == 0)
        {
            // leaves can only exceed leafSize at max depth (duplicates)
            if (nd.depth < Octree<double>::maxDepth)
            {
                EXPECT_LE(nd.count, params.leafSize);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, OctreeSweep, ::testing::Values(1, 2, 17, 100, 1000, 5000));

TEST(Octree, HandlesDuplicatePositions)
{
    std::vector<double> x(100, 0.5), y(100, 0.5), z(100, 0.5);
    Box<double> box{{0, 0, 0}, {1, 1, 1}};
    Octree<double> tree;
    Octree<double>::BuildParams params;
    params.leafSize = 8;
    tree.build(x, y, z, box, params);
    EXPECT_EQ(tree.node(0).count, 100u);
    // all duplicates end in one (max-depth) leaf; no infinite recursion
    EXPECT_GT(tree.nodeCount(), 0u);
}

TEST(Octree, TiedKeysGiveTheSameIdOrderInEveryFrame)
{
    // every 4th particle sits 1e-9 from its predecessor, inside its SFC
    // cell: the tree must order such ties the same way (as ids) in a set
    // and in its phase-L sorted copy, or the two frames sum neighbors in
    // different orders
    ParticleSetD ps(4000);
    Xoshiro256pp rng(17);
    for (std::size_t i = 0; i < ps.size(); ++i)
    {
        bool twin = i % 4 == 3;
        ps.x[i]  = twin ? ps.x[i - 1] + 1e-9 : rng.uniform();
        ps.y[i]  = twin ? ps.y[i - 1] : rng.uniform();
        ps.z[i]  = twin ? ps.z[i - 1] : rng.uniform();
        ps.id[i] = i;
    }
    Box<double> box{{0, 0, 0}, {1, 1, 1}, true, true, true};
    ParticleSetD sorted = ps;
    SfcSorter<double>().apply(sorted, box, SfcCurve::Hilbert);

    Octree<double>::BuildParams params;
    params.curve = SfcCurve::Hilbert;
    auto treeIds = [&](const ParticleSetD& set) {
        Octree<double> tree;
        tree.build(set.x, set.y, set.z, box, params);
        std::size_t ties = 0;
        for (std::size_t k = 1; k < set.size(); ++k)
            ties += tree.sortedKeys()[k] == tree.sortedKeys()[k - 1];
        EXPECT_GT(ties, 900u);
        std::vector<std::uint64_t> ids;
        for (auto i : tree.order())
            ids.push_back(set.id[i]);
        return ids;
    };
    EXPECT_EQ(treeIds(ps), treeIds(sorted));
}

TEST(Octree, EmptyAndSingle)
{
    std::vector<double> x, y, z;
    Box<double> box{{0, 0, 0}, {1, 1, 1}};
    Octree<double> tree;
    tree.build(x, y, z, box);
    EXPECT_EQ(tree.nodeCount(), 1u);

    x = {0.3};
    y = {0.4};
    z = {0.5};
    tree.build(x, y, z, box);
    EXPECT_EQ(tree.node(0).count, 1u);
}

// --- neighbor search equivalence (property test) ----------------------------

namespace {

/// Which axes of the unit box are periodic. Prints as the bool it
/// generalizes when all or none are, else as its periodic axes
/// ("z-periodic"), which names the sweep's instances.
struct Periodicity
{
    bool x, y, z;
    bool all() const { return x && y && z; }
};

void PrintTo(const Periodicity& p, std::ostream* os)
{
    if (p.x == p.y && p.y == p.z)
        *os << (p.x ? "true" : "false");
    else
        *os << (p.x ? "x" : "") << (p.y ? "y" : "") << (p.z ? "z" : "") << "-periodic";
}

} // namespace

class NeighborEquivalence
    : public ::testing::TestWithParam<std::tuple<std::size_t, Periodicity, SfcCurve>>
{
};

TEST_P(NeighborEquivalence, TreeMatchesBruteForce)
{
    auto [n, pbc, curve] = GetParam();
    auto c = randomCloud(n, 7 * n + (pbc.all() ? 1 : 0), 0.08);
    Box<double> box{{0, 0, 0}, {1, 1, 1}, pbc.x, pbc.y, pbc.z};

    Octree<double>::BuildParams params;
    params.curve = curve;
    Octree<double> tree;
    tree.build(c.x, c.y, c.z, box, params);

    NeighborList<double> nlTree(n, 512), nlBrute(n, 512);
    oracle::findNeighborsGlobal(tree, c.x, c.y, c.z, c.h, nlTree);
    oracle::findNeighborsBruteForce<double>(c.x, c.y, c.z, c.h, box, nlBrute);

    for (std::size_t i = 0; i < n; ++i)
    {
        auto a = nlTree.neighbors(i);
        auto b = nlBrute.neighbors(i);
        std::set<std::uint32_t> sa(a.begin(), a.end());
        std::set<std::uint32_t> sb(b.begin(), b.end());
        ASSERT_EQ(sa, sb) << "particle " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Clouds, NeighborEquivalence,
    ::testing::Combine(::testing::Values(64, 500, 2000),
                       ::testing::Values(Periodicity{false, false, false},
                                         Periodicity{true, true, true}),
                       ::testing::Values(SfcCurve::Morton, SfcCurve::Hilbert)));

// one periodic axis: the wrap must fire on z alone
INSTANTIATE_TEST_SUITE_P(
    MixedPeriodicity, NeighborEquivalence,
    ::testing::Combine(::testing::Values(3000), ::testing::Values(Periodicity{false, false, true}),
                       ::testing::Values(SfcCurve::Morton, SfcCurve::Hilbert)));

TEST(NeighborSearch, IndividualWalkUpdatesOnlyActive)
{
    auto c = randomCloud(500, 23, 0.1);
    Box<double> box{{0, 0, 0}, {1, 1, 1}};
    Octree<double> tree;
    tree.build(c.x, c.y, c.z, box);

    NeighborList<double> nl(c.x.size(), 256);
    oracle::findNeighborsGlobal(tree, c.x, c.y, c.z, c.h, nl);
    auto before = nl.count(0);

    // enlarge h of particle 0 only, re-search an active subset without it
    c.h[0] *= 2;
    std::vector<std::size_t> active{1, 2, 3};
    oracle::findNeighborsIndividual(tree, c.x, c.y, c.z, c.h, active, nl);
    EXPECT_EQ(nl.count(0), before); // untouched

    active = {0};
    oracle::findNeighborsIndividual(tree, c.x, c.y, c.z, c.h, active, nl);
    EXPECT_GT(nl.count(0), before); // larger radius found more
}

// --- the deepest tree: the walks' stack bound -------------------------------

namespace {

std::set<std::uint32_t> neighborSet(const NeighborList<double>& nl, std::size_t i)
{
    auto row = nl.neighbors(i);
    return {row.begin(), row.end()};
}

} // namespace

TEST(DeepestTree, NeighborWalksMatchBruteForce)
{
    auto c = deepestTreeCloud();
    std::size_t n = c.x.size();
    ASSERT_EQ(n, 217u);
    Box<double> box{{0, 0, 0}, {1, 1, 1}};
    Octree<double> tree;
    tree.build(c.x, c.y, c.z, box);
    ASSERT_EQ(tree.depth(), Octree<double>::maxDepth);
    ASSERT_EQ(tree.node(0).nChildren, 8);

    NeighborList<double> brute(n, 256), walk(n, 256), individual(n, 256), clustered(n, 256);
    oracle::findNeighborsBruteForce<double>(c.x, c.y, c.z, c.h, box, brute);
    oracle::findNeighborsGlobal(tree, c.x, c.y, c.z, c.h, walk);
    std::vector<std::size_t> all(n);
    std::iota(all.begin(), all.end(), std::size_t(0));
    oracle::findNeighborsIndividual(tree, c.x, c.y, c.z, c.h, all, individual);
    ClusterWorkspace<double> ws;
    findNeighborsClustered(tree, c.x, c.y, c.z, c.h, clustered, ws, kClusterSize);

    EXPECT_EQ(brute.overflowCount(), 0u);
    for (std::size_t i = 0; i < n; ++i)
    {
        auto expected = neighborSet(brute, i);
        ASSERT_EQ(expected.size(), n - 1) << i; // the radius covers the box
        ASSERT_EQ(neighborSet(walk, i), expected) << i;
        ASSERT_EQ(neighborSet(individual, i), expected) << i;
        ASSERT_EQ(neighborSet(clustered, i), expected) << i;
    }
}

TEST(DeepestTree, GravityWalkOpeningEveryNodeMatchesDirectSum)
{
    auto c = deepestTreeCloud();
    std::size_t n = c.x.size();
    ParticleSet<double> ps(n);
    for (std::size_t i = 0; i < n; ++i)
    {
        ps.x[i]  = c.x[i];
        ps.y[i]  = c.y[i];
        ps.z[i]  = c.z[i];
        ps.m[i]  = 1.0 / double(n);
        ps.id[i] = i;
    }
    Octree<double> tree;
    tree.build(ps.x, ps.y, ps.z, Box<double>{{0, 0, 0}, {1, 1, 1}});

    GravityParams<double> params;
    params.theta     = 0.0; // accept no multipole: open every node
    params.softening = 1e-3;
    ParticleSet<double> ref = ps;
    GravitySolver<double>::directSum(ref, params);

    GravitySolver<double> solver;
    solver.prepare(tree, ps, params);
    GravityStats stats;
    solver.accumulate(ps, &stats);
    EXPECT_EQ(stats.p2pInteractions, n * (n - 1));
    EXPECT_EQ(stats.m2pInteractions, 0u);
    for (std::size_t i = 0; i < n; ++i)
    {
        double scale = std::abs(ref.ax[i]) + std::abs(ref.ay[i]) + std::abs(ref.az[i]);
        ASSERT_NEAR(ps.ax[i], ref.ax[i], 1e-12 * scale) << i;
        ASSERT_NEAR(ps.ay[i], ref.ay[i], 1e-12 * scale) << i;
        ASSERT_NEAR(ps.az[i], ref.az[i], 1e-12 * scale) << i;
    }
}

TEST(NeighborList, OverflowDetected)
{
    // 100 coincident-ish particles with huge h and tiny ngmax
    auto c = randomCloud(100, 31, 2.0);
    Box<double> box{{0, 0, 0}, {1, 1, 1}};
    Octree<double> tree;
    tree.build(c.x, c.y, c.z, box);
    NeighborList<double> nl(c.x.size(), 8);
    oracle::findNeighborsGlobal(tree, c.x, c.y, c.z, c.h, nl);
    EXPECT_GT(nl.overflowCount(), 0u);
    for (std::size_t i = 0; i < c.x.size(); ++i)
    {
        EXPECT_LE(nl.count(i), 8u);
    }
}

TEST(NeighborList, OverflowCountExactUnderConcurrentWriters)
{
    // regression: overflow_ is bumped atomically in set(); with many
    // threads writing oversized lists concurrently the count must still be
    // exact (a plain ++ would drop increments). The writers run on the
    // WorkerPool: ThreadSanitizer cannot see libgomp's join, so a raw
    // OpenMP loop here reads as a race.
    const std::size_t n = 20000;
    const unsigned ngmax = 4;
    NeighborList<double> nl(n, ngmax);

    using Index = NeighborList<double>::Index;
    std::vector<Index> oversized(ngmax + 3); // every set() overflows
    for (std::size_t k = 0; k < oversized.size(); ++k)
        oversized[k] = Index(k);

    parallelFor(n, [&](std::size_t i, std::size_t) { nl.set(i, oversized); },
                {SchedulingStrategy::SelfScheduling});

    EXPECT_EQ(nl.overflowCount(), n);
    for (std::size_t i = 0; i < n; ++i)
    {
        ASSERT_EQ(nl.count(i), ngmax); // truncated, never past capacity
    }

    // reset() clears the overflow counter along with the lists
    nl.reset(n, ngmax);
    EXPECT_EQ(nl.overflowCount(), 0u);
    EXPECT_EQ(nl.totalNeighbors(), 0u);
}

TEST(NeighborList, TotalNeighborsConsistent)
{
    auto c = randomCloud(400, 37, 0.1);
    Box<double> box{{0, 0, 0}, {1, 1, 1}};
    Octree<double> tree;
    tree.build(c.x, c.y, c.z, box);
    NeighborList<double> nl(c.x.size(), 256);
    oracle::findNeighborsGlobal(tree, c.x, c.y, c.z, c.h, nl);

    std::size_t total = 0;
    for (std::size_t i = 0; i < c.x.size(); ++i)
        total += nl.count(i);
    EXPECT_EQ(nl.totalNeighbors(), total);
    // neighbor relation is symmetric for uniform h
    EXPECT_EQ(total % 2, 0u);
}
