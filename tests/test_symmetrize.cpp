/// Phase D's missing-pair buckets (findMissingPairs, tree/neighbors.hpp)
/// against a test-local copy of the original serial O(N k^2) pass: for
/// every entry j of row(i) scan row(j) for i, collect the misses per row in
/// ascending i, stable-sort each run by id and rewrite the row through a
/// merged copy. Each row followed by its kept bucket must reproduce the
/// oracle's row, and the search's overflow count plus the cut rows the
/// oracle's overflow count, bit for bit — on lists from both search modes,
/// on periodic pairs at exactly half a box length, on smoothing lengths
/// that vary 4x, on the dam break's mirror ghosts and on truncated (full)
/// rows — and must do so for every worker-pool size and scheduling
/// strategy. Phase D leaves the lists as the search left them, and phases
/// E-G give the same bits over the rows alone as over the merged rows.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "backend/kernel_backend.hpp"
#include "backend/lane_kernel.hpp"
#include "core/simulation.hpp"
#include "ic/dam_break.hpp"
#include "ic/lattice.hpp"
#include "ic/sedov.hpp"
#include "math/rng.hpp"
#include "neighbor_oracle.hpp"
#include "sph/boundaries.hpp"
#include "sph/density.hpp"
#include "sph/divcurl.hpp"
#include "sph/iad.hpp"
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

/// Row i of \p lists followed by its kept bucket of \p pairs is the
/// oracle's row i; the cut rows are the overflows, and the kept entries
/// the entries, that the oracle's rewrites added.
void expectMergedMatchesOracle(const NeighborList<double>& lists,
                               const MissingPairs<double>& pairs, const NeighborList<double>& ref)
{
    ASSERT_EQ(lists.size(), ref.size());
    ASSERT_EQ(lists.overflowCount() + pairs.cutRows, ref.overflowCount());
    ASSERT_EQ(lists.totalNeighbors() + pairs.keptEntries, ref.totalNeighbors());
    for (std::size_t i = 0; i < lists.size(); ++i)
    {
        auto row   = lists.neighbors(i);
        auto extra = pairs.kept(lists, i);
        auto want  = ref.neighbors(i);
        ASSERT_EQ(row.size() + extra.size(), want.size()) << "row " << i;
        for (std::size_t k = 0; k < want.size(); ++k)
        {
            Index got = k < row.size() ? row[k] : extra[k - row.size()];
            ASSERT_EQ(got, want[k]) << "row " << i << " entry " << k;
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

    /// Phase D's buckets over \p lists.
    MissingPairs<double> missingPairs(const NeighborList<double>& lists,
                                      std::span<const std::uint64_t> order,
                                      const LoopPolicy& policy = {}) const
    {
        MissingPairs<double> pairs;
        findMissingPairs(lists, ps.x, ps.y, ps.z, ps.h, box, pairs, order, policy);
        return pairs;
    }

    /// Both search modes, with and without ids: the buckets complete the
    /// rows as the oracle does, and the scene has pairs to complete.
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
                expectMergedMatchesOracle(lists, missingPairs(lists, order), ref);
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

/// The WCSPH shape of phase D: reals plus mirror ghosts at the tail, h
/// iterated to convergence at the free surface and the walls. \p hLists
/// receives the h iteration's own lists (a global walk plus individual
/// re-walks), which are search output too.
Scene damBreakScene(NeighborList<double>& hLists)
{
    Scene s;
    DamBreakConfig<double> dc;
    dc.nx      = 8;
    dc.ny      = 16;
    dc.nz      = 4;
    auto setup = makeDamBreak(s.ps, dc);
    s.box      = setup.box;
    auto cfg   = damBreakConfig(dc, setup);
    EXPECT_GT(appendMirrorGhosts(s.ps, s.box, cfg.boundaries), 0u);

    Octree<double> tree;
    tree.build(s.ps.x, s.ps.y, s.ps.z, s.box);
    hLists.reset(s.ps.size(), s.ngmax);
    SmoothingLengthParams<double> hp;
    hp.targetNeighbors = 60;
    hp.tolerance       = 5;
    ClusterWorkspace<double> clusters;
    updateSmoothingLengths(s.ps, tree, hLists, clusters, hp);
    s.shuffleIds(5);
    return s;
}

/// A jittered periodic lattice with h iterated to about 60 neighbors.
Scene jitteredLatticeScene()
{
    Scene s;
    s.box = Box<double>{{0, 0, 0}, {1, 1, 1}, true, true, true};
    cubicLattice(s.ps, 10, 10, 10, s.box);
    jitterPositions(s.ps, s.box, 0.1, 0.3, 7);
    for (std::size_t i = 0; i < s.ps.size(); ++i)
        s.ps.h[i] = initialSmoothingLength(s.ps.size(), s.box, 60u);
    Octree<double> tree;
    tree.build(s.ps.x, s.ps.y, s.ps.z, s.box);
    NeighborList<double> nl(s.ps.size(), s.ngmax);
    SmoothingLengthParams<double> hp;
    hp.targetNeighbors = 60;
    hp.tolerance       = 5;
    ClusterWorkspace<double> clusters;
    updateSmoothingLengths(s.ps, tree, nl, clusters, hp);
    s.shuffleIds(9);
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
            // the reciprocal of an exact half-box pair is in the bucket
            auto lists  = s.search(Search::TreeWalk);
            auto pairs  = s.missingPairs(lists, {});
            bool listed = false;
            for (auto j : pairs.kept(lists, 1)) // h = 0.24: 2h < L/2 on its own
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
    NeighborList<double> hLists;
    Scene s = damBreakScene(hLists);
    s.expectMatchesOracle();

    NeighborList<double> ref = hLists;
    symmetrizeOracle(ref, s.ids);
    expectMergedMatchesOracle(hLists, s.missingPairs(hLists, s.ids), ref);
}

TEST(Symmetrize, FullRowsFallBackToTheExactScan)
{
    // ngmax far below the neighbor counts: searched rows truncate, the
    // O(1) predicate would wrongly find the dropped entries, and buckets
    // of full rows count fresh overflows
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
        expectMergedMatchesOracle(lists, s.missingPairs(lists, s.ids), ref);
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
            expectMergedMatchesOracle(lists, s.missingPairs(lists, s.ids, policy), ref);
            EXPECT_GT(stats.invocations, 0u);
        }
    }
}

TEST(Symmetrize, SteadyStateReusesTheWorkspace)
{
    Scene s    = randomScene(1000, /*periodic*/ false, 41);
    auto lists = s.search(Search::TreeWalk);
    MissingPairs<double> pairs;

    findMissingPairs(lists, s.ps.x, s.ps.y, s.ps.z, s.ps.h, s.box, pairs, s.ids);
    ASSERT_FALSE(pairs.sources.empty());
    const MissingPairs<double> first = pairs;
    const Index* sources             = pairs.sources.data();
    const std::size_t* rowStart      = pairs.rowStart.data();

    findMissingPairs(lists, s.ps.x, s.ps.y, s.ps.z, s.ps.h, s.box, pairs, s.ids);
    EXPECT_EQ(pairs.rowStart, first.rowStart);
    EXPECT_EQ(pairs.sources, first.sources);
    EXPECT_EQ(pairs.keptEntries, first.keptEntries);
    EXPECT_EQ(pairs.cutRows, first.cutRows);
    EXPECT_EQ(pairs.sources.data(), sources);
    EXPECT_EQ(pairs.rowStart.data(), rowStart);
}

TEST(Symmetrize, SymmetricListsAreLeftUnchanged)
{
    // equal h everywhere: every search row is already reciprocal
    Scene s = randomScene(800, /*periodic*/ true, 51);
    for (std::size_t i = 0; i < s.ps.size(); ++i)
        s.ps.h[i] = 0.05;
    auto lists = s.search(Search::TreeWalk);
    auto pairs = s.missingPairs(lists, s.ids);
    EXPECT_EQ(pairs.rowStart.back(), 0u);
    EXPECT_EQ(pairs.keptEntries, 0u);
    EXPECT_EQ(pairs.cutRows, 0u);
}

TEST(Symmetrize, PhaseDLeavesTheListsAsTheSearchLeftThem)
{
    // the shipped phase D op between snapshots of the lists: after it they
    // are bitwise what phases B and C left, down to the arena's pages. A
    // few steps into the blast, h varies and rows miss pairs
    ParticleSetD ps;
    SedovConfig<double> ic;
    ic.nSide   = 10;
    auto setup = makeSedov(ps, ic);
    Simulation<double> sim(std::move(ps), setup.box, Eos<double>(setup.eos),
                           SimulationConfig<double>{});
    sim.run(5);

    struct Snapshot
    {
        NeighborList<double> lists;
        std::size_t capacity = 0, dead = 0;
    };
    Snapshot searched, afterD;
    std::size_t kept = 0, cut = 0;
    auto snapshot = [](Snapshot& s) {
        return PhaseOp<double>{Phase::D_NeighborSymmetrize, [&s](StepContext<double>& ctx) {
                                   s = {ctx.nl, ctx.nl.entryCapacity(), ctx.nl.deadEntries()};
                               }};
    };
    sim.setPipeline(PipelineFactory<double>::custom(
        {phase_ops::sfcReorder<double>(), phase_ops::treeBuild<double>(),
         phase_ops::neighborSearch<double>(), phase_ops::smoothingLength<double>(),
         snapshot(searched), phase_ops::neighborSymmetrize<double>(), snapshot(afterD),
         {Phase::D_NeighborSymmetrize, [&](StepContext<double>& ctx) {
              ASSERT_NE(ctx.missingPairs, nullptr);
              kept = ctx.missingPairs->keptEntries;
              cut  = ctx.missingPairs->cutRows;
          }}}));
    auto rep = sim.computeForces();

    ASSERT_GT(kept, 0u) << "scene has no missing pairs";
    expectListsIdentical(afterD.lists, searched.lists);
    EXPECT_EQ(afterD.capacity, searched.capacity);
    EXPECT_EQ(afterD.dead, searched.dead);
    // the report counts the kept bucket entries and the cut rows on top
    EXPECT_EQ(rep.neighborInteractions, searched.lists.totalNeighbors() + kept);
    EXPECT_EQ(rep.neighborOverflow, searched.lists.overflowCount() + cut);
}

TEST(Symmetrize, DensityIadAndDivCurlReadTheRowsAlone)
{
    // a kept bucket entry of row j lies at q = r/h_j >= 2, where every
    // kernel shape is exactly 0, so phases E-G give the same bits over the
    // rows alone as over the rows followed by their buckets
    NeighborList<double> hLists;
    std::vector<Scene> scenes;
    scenes.push_back(jitteredLatticeScene());
    scenes.push_back(randomScene(1200, /*periodic*/ true, 61));
    scenes.push_back(damBreakScene(hLists));
    const std::pair<const char*, std::vector<double> ParticleSetD::*> outputs[] = {
        {"rho", &ParticleSetD::rho},     {"gradh", &ParticleSetD::gradh},
        {"vol", &ParticleSetD::vol},     {"c11", &ParticleSetD::c11},
        {"c12", &ParticleSetD::c12},     {"c13", &ParticleSetD::c13},
        {"c22", &ParticleSetD::c22},     {"c23", &ParticleSetD::c23},
        {"c33", &ParticleSetD::c33},     {"divv", &ParticleSetD::divv},
        {"curlv", &ParticleSetD::curlv}, {"balsara", &ParticleSetD::balsara}};

    for (std::size_t sc = 0; sc < scenes.size(); ++sc)
    {
        Scene& s  = scenes[sc];
        auto& ps  = s.ps;
        Xoshiro256pp rng(70 + sc);
        for (std::size_t i = 0; i < ps.size(); ++i)
        {
            ps.m[i]  = (1.0 + 0.1 * rng.uniform()) / double(ps.size());
            ps.vx[i] = 0.1 * rng.normal();
            ps.vy[i] = 0.1 * rng.normal();
            ps.vz[i] = 0.1 * rng.normal();
            ps.c[i]  = 1.0 + rng.uniform();
        }
        computeVolumeElementWeights(ps, VolumeElements::Standard);
        auto lists = s.search(Search::ClusterList);
        auto pairs = s.missingPairs(lists, s.ids);
        ASSERT_GT(pairs.keptEntries, 0u) << "scene " << sc << " has no missing pairs";
        auto merged = oracle::mergedRows(lists, pairs);

        for (KernelType type : {KernelType::Sinc, KernelType::CubicSpline, KernelType::WendlandC2,
                                KernelType::WendlandC4, KernelType::WendlandC6,
                                KernelType::DebrunSpiky})
        {
            Kernel<double> kernel(type);
            LaneKernel<double> lanes(kernel);
            for (ComputeBackend<double> be :
                 {ComputeBackend<double>{}, ComputeBackend<double>{KernelBackend::Simd, &lanes}})
            {
                for (GradientMode mode : {GradientMode::KernelDerivative, GradientMode::IAD})
                {
                    SCOPED_TRACE(testing::Message()
                                 << "scene " << sc << " " << kernelName(type)
                                 << (be.kind == KernelBackend::Simd ? " Simd " : " Scalar ")
                                 << gradientModeName(mode));
                    auto phasesEtoG = [&](const NeighborList<double>& nl) {
                        ParticleSetD out = ps;
                        computeDensity(out, nl, kernel, s.box, {}, {}, be);
                        computeIadCoefficients(out, nl, kernel, s.box, {}, {}, be);
                        computeDivCurl(out, nl, kernel, s.box, mode, {}, {}, be);
                        return out;
                    };
                    ParticleSetD alone = phasesEtoG(lists);
                    ParticleSetD full  = phasesEtoG(merged);
                    for (const auto& [name, field] : outputs)
                    {
                        const auto& a = alone.*field;
                        const auto& b = full.*field;
                        ASSERT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
                            << name;
                    }
                }
            }
        }
    }
}
