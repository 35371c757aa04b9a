/// Phase D neighbor-list symmetrization (symmetrizeNeighborList,
/// tree/neighbors.hpp) against a test-local copy of the original serial
/// O(N k^2) pass: for every entry j of row(i) scan row(j) for i, collect the
/// misses per row in ascending i, stable-sort each run by id and rewrite the
/// row through a merged copy. The parallel pass must reproduce its rows and
/// its overflow count bit for bit — on lists from both search modes, on
/// periodic pairs at exactly half a box length, on smoothing lengths that
/// vary 4x, on the dam break's mirror ghosts and on truncated (full) rows —
/// and must do so for every worker-pool size and scheduling strategy.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "ic/dam_break.hpp"
#include "ic/lattice.hpp"
#include "math/rng.hpp"
#include "neighbor_oracle.hpp"
#include "sph/boundaries.hpp"
#include "sph/smoothing_length.hpp"
#include "tree/cluster_list.hpp"
#include "tree/neighbors.hpp"

using namespace sphexa;

namespace {

using Index = NeighborList<double>::Index;

struct PoolSizeGuard
{
    std::size_t saved;
    explicit PoolSizeGuard(std::size_t n) : saved(WorkerPool::instance().size())
    {
        WorkerPool::instance().resize(n);
    }
    ~PoolSizeGuard() { WorkerPool::instance().resize(saved); }
};

/// The original serial pass, kept verbatim as the oracle.
void symmetrizeOracle(NeighborList<double>& nl, std::span<const std::uint64_t> ids)
{
    std::size_t n = nl.size();
    std::vector<std::vector<Index>> missing(n);
    for (std::size_t i = 0; i < n; ++i)
    {
        for (auto j : nl.neighbors(i))
        {
            auto njs   = nl.neighbors(j);
            bool found = std::find(njs.begin(), njs.end(), Index(i)) != njs.end();
            if (!found) missing[j].push_back(Index(i));
        }
    }
    std::vector<Index> merged;
    for (std::size_t i = 0; i < n; ++i)
    {
        if (missing[i].empty()) continue;
        if (!ids.empty())
        {
            std::stable_sort(missing[i].begin(), missing[i].end(),
                             [&](Index a, Index b) { return ids[a] < ids[b]; });
        }
        auto cur = nl.neighbors(i);
        merged.assign(cur.begin(), cur.end());
        merged.insert(merged.end(), missing[i].begin(), missing[i].end());
        nl.set(i, merged);
    }
}

void expectListsIdentical(const NeighborList<double>& got, const NeighborList<double>& ref)
{
    ASSERT_EQ(got.size(), ref.size());
    ASSERT_EQ(got.overflowCount(), ref.overflowCount());
    for (std::size_t i = 0; i < got.size(); ++i)
    {
        auto a = got.neighbors(i);
        auto b = ref.neighbors(i);
        ASSERT_EQ(a.size(), b.size()) << "row " << i;
        for (std::size_t k = 0; k < a.size(); ++k)
        {
            ASSERT_EQ(a[k], b[k]) << "row " << i << " entry " << k;
        }
    }
}

enum class Search
{
    TreeWalk,
    ClusterList
};

/// A particle set plus the box its searches run in.
struct Scene
{
    ParticleSetD ps;
    Box<double> box;
    unsigned ngmax = 384;
    std::vector<std::uint64_t> ids; ///< shuffled: id order != slot order

    void shuffleIds(std::uint64_t seed)
    {
        ids.resize(ps.size());
        std::iota(ids.begin(), ids.end(), std::uint64_t(0));
        Xoshiro256pp rng(seed);
        for (std::size_t k = ids.size(); k > 1; --k)
            std::swap(ids[k - 1], ids[rng.uniformInt(k)]);
    }

    NeighborList<double> search(Search mode) const
    {
        Octree<double> tree;
        tree.build(ps.x, ps.y, ps.z, box);
        NeighborList<double> nl(ps.size(), ngmax);
        if (mode == Search::TreeWalk)
        {
            oracle::findNeighborsGlobal(tree, ps.x, ps.y, ps.z, ps.h, nl);
        }
        else
        {
            ClusterWorkspace<double> ws;
            findNeighborsClustered(tree, ps.x, ps.y, ps.z, ps.h, nl, ws, 32);
        }
        return nl;
    }

    /// The new pass on a copy of \p lists.
    NeighborList<double> symmetrized(const NeighborList<double>& lists,
                                     std::span<const std::uint64_t> order,
                                     const LoopPolicy& policy = {}) const
    {
        NeighborList<double> nl = lists;
        SymmetrizeWorkspace<double> ws;
        symmetrizeNeighborList(nl, ps.x, ps.y, ps.z, ps.h, box, ws, order, policy);
        return nl;
    }

    /// Both search modes, with and without ids: the pass equals the
    /// oracle and, where pairs were missing, actually extended the lists.
    void expectMatchesOracle() const
    {
        for (Search mode : {Search::TreeWalk, Search::ClusterList})
        {
            auto lists = search(mode);
            for (std::span<const std::uint64_t> order :
                 {std::span<const std::uint64_t>{}, std::span<const std::uint64_t>(ids)})
            {
                NeighborList<double> ref = lists;
                symmetrizeOracle(ref, order);
                ASSERT_GT(ref.totalNeighbors(), lists.totalNeighbors())
                    << "scene has no missing pairs";
                expectListsIdentical(symmetrized(lists, order), ref);
            }
        }
    }
};

Scene randomScene(std::size_t n, bool periodic, std::uint64_t seed)
{
    Scene s;
    s.box = Box<double>{{0, 0, 0}, {1, 1, 1}, periodic, periodic, periodic};
    s.ps.resize(n);
    Xoshiro256pp rng(seed);
    for (std::size_t i = 0; i < n; ++i)
    {
        s.ps.x[i]  = rng.uniform();
        s.ps.y[i]  = rng.uniform();
        s.ps.z[i]  = rng.uniform();
        s.ps.h[i]  = 0.03 * (1.0 + 3.0 * rng.uniform()); // h varies 4x
        s.ps.id[i] = i;
    }
    s.shuffleIds(seed + 1);
    return s;
}

} // namespace

TEST(Symmetrize, PeriodicLatticeWithPairsAtHalfTheBox)
{
    // side 4: coordinates 0.125 + 0.25 k, so two-spacing pairs sit exactly
    // L/2 apart (+L/2 from one side, -L/2 from the other, neither wraps);
    // 2h straddles L/2 so only the larger-h partner of such a pair lists it.
    // Side 6 puts the half-box pairs at inexact spacings instead.
    for (std::size_t side : {4u, 6u})
    {
        Scene s;
        s.box = Box<double>{{0, 0, 0}, {1, 1, 1}, true, true, true};
        cubicLattice(s.ps, side, side, side, s.box);
        for (std::size_t i = 0; i < s.ps.size(); ++i)
            s.ps.h[i] = (i % 3 == 0) ? 0.26 : 0.24;
        s.shuffleIds(side);
        s.expectMatchesOracle();

        if (side == 4)
        {
            // the appended reciprocal of an exact half-box pair is present
            auto nl     = s.symmetrized(s.search(Search::TreeWalk), {});
            bool listed = false;
            for (auto j : nl.neighbors(1)) // h = 0.24: 2h < L/2 on its own
                listed |= std::abs(s.ps.x[j] - s.ps.x[1]) == 0.5 &&
                          s.ps.y[j] == s.ps.y[1] && s.ps.z[j] == s.ps.z[1];
            EXPECT_TRUE(listed);
        }
    }
}

TEST(Symmetrize, RandomCloudWithFourfoldSmoothingLengths)
{
    randomScene(1500, /*periodic*/ false, 11).expectMatchesOracle();
    randomScene(1500, /*periodic*/ true, 12).expectMatchesOracle();
}

TEST(Symmetrize, DamBreakWithMirrorGhosts)
{
    // the WCSPH shape of phase D: reals plus mirror ghosts at the tail, h
    // iterated to convergence at the free surface and the walls
    Scene s;
    DamBreakConfig<double> dc;
    dc.nx      = 8;
    dc.ny      = 16;
    dc.nz      = 4;
    auto setup = makeDamBreak(s.ps, dc);
    s.box      = setup.box;
    auto cfg   = damBreakConfig(dc, setup);
    ASSERT_GT(appendMirrorGhosts(s.ps, s.box, cfg.boundaries), 0u);

    Octree<double> tree;
    tree.build(s.ps.x, s.ps.y, s.ps.z, s.box);
    NeighborList<double> hLists(s.ps.size(), s.ngmax);
    SmoothingLengthParams<double> hp;
    hp.targetNeighbors = 60;
    hp.tolerance       = 5;
    ClusterWorkspace<double> clusters;
    updateSmoothingLengths(s.ps, tree, hLists, clusters, hp);
    s.shuffleIds(5);
    s.expectMatchesOracle();

    // the h iteration's own lists (a global walk plus individual re-walks)
    // are search output too
    NeighborList<double> ref = hLists;
    symmetrizeOracle(ref, s.ids);
    expectListsIdentical(s.symmetrized(hLists, s.ids), ref);
}

TEST(Symmetrize, FullRowsFallBackToTheExactScan)
{
    // ngmax far below the neighbor counts: searched rows truncate, the
    // O(1) predicate would wrongly find the dropped entries, and appends
    // to full rows count fresh overflows
    Scene s  = randomScene(600, /*periodic*/ false, 21);
    s.ngmax  = 24;
    for (Search mode : {Search::TreeWalk, Search::ClusterList})
    {
        auto lists = s.search(mode);
        ASSERT_GT(lists.overflowCount(), 0u);
        ASSERT_LT(lists.overflowCount(), s.ps.size()); // some rows have room

        NeighborList<double> ref = lists;
        symmetrizeOracle(ref, s.ids);
        EXPECT_GT(ref.overflowCount(), lists.overflowCount());
        expectListsIdentical(s.symmetrized(lists, s.ids), ref);
    }
}

TEST(Symmetrize, BitwiseInvariantAcrossPoolsAndStrategies)
{
    Scene s    = randomScene(2000, /*periodic*/ true, 31);
    auto lists = s.search(Search::ClusterList);
    NeighborList<double> ref = lists;
    symmetrizeOracle(ref, s.ids);

    for (std::size_t pool : {1u, 2u, 4u})
    {
        PoolSizeGuard guard(pool);
        for (auto strategy :
             {SchedulingStrategy::Static, SchedulingStrategy::SelfScheduling,
              SchedulingStrategy::Guided, SchedulingStrategy::Trapezoid,
              SchedulingStrategy::Factoring, SchedulingStrategy::AdaptiveWeightedFactoring})
        {
            SCOPED_TRACE(testing::Message()
                         << "pool " << pool << " " << schedulingName(strategy));
            std::vector<double> awf;
            PhaseLoadStats stats;
            LoopPolicy policy{strategy, &awf, &stats};
            expectListsIdentical(s.symmetrized(lists, s.ids, policy), ref);
            EXPECT_GT(stats.invocations, 0u);
        }
    }
}

TEST(Symmetrize, SteadyStateReusesTheWorkspace)
{
    Scene s    = randomScene(1000, /*periodic*/ false, 41);
    auto lists = s.search(Search::TreeWalk);
    SymmetrizeWorkspace<double> ws;

    NeighborList<double> first = lists;
    symmetrizeNeighborList(first, s.ps.x, s.ps.y, s.ps.z, s.ps.h, s.box, ws, s.ids);
    ASSERT_FALSE(ws.sources.empty());
    const Index* sources        = ws.sources.data();
    const std::size_t* rowStart = ws.rowStart.data();

    NeighborList<double> second = lists;
    symmetrizeNeighborList(second, s.ps.x, s.ps.y, s.ps.z, s.ps.h, s.box, ws, s.ids);
    expectListsIdentical(second, first);
    EXPECT_EQ(ws.sources.data(), sources);
    EXPECT_EQ(ws.rowStart.data(), rowStart);
}

TEST(Symmetrize, SymmetricListsAreLeftUnchanged)
{
    // equal h everywhere: every search row is already reciprocal
    Scene s = randomScene(800, /*periodic*/ true, 51);
    for (std::size_t i = 0; i < s.ps.size(); ++i)
        s.ps.h[i] = 0.05;
    auto lists = s.search(Search::TreeWalk);
    expectListsIdentical(s.symmetrized(lists, s.ids), lists);
}
