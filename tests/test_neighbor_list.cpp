/// NeighborList container tests: the flat-row accessor (NeighborList::row)
/// the backend kernels consume — one lookup returning both the entry
/// pointer and the count, aliasing the same storage as neighbors(i),
/// iterable, packed and stable across steady-state resets — and the arena
/// behind it, checked against a vector-of-vectors model.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <numeric>
#include <utility>
#include <vector>

#include "core/simulation.hpp"
#include "ic/dam_break.hpp"
#include "ic/evrard.hpp"
#include "ic/sedov.hpp"
#include "math/rng.hpp"
#include "neighbor_oracle.hpp"
#include "sph/boundaries.hpp"
#include "tree/neighbors.hpp"

using namespace sphexa;

namespace {

using Index = NeighborList<double>::Index;

/// Fill particle i with neighbors i+1 .. i+k (mod n), a recognizable ramp.
void fillRamp(NeighborList<double>& nl, std::size_t n, std::size_t k)
{
    std::vector<Index> buf;
    for (std::size_t i = 0; i < n; ++i)
    {
        buf.clear();
        for (std::size_t j = 1; j <= k; ++j)
            buf.push_back(Index((i + j) % n));
        nl.set(i, buf);
    }
}

} // namespace

TEST(NeighborListRow, MatchesNeighborsSpanExactly)
{
    const std::size_t n = 17;
    NeighborList<double> nl(n, 32);
    fillRamp(nl, n, 7);

    for (std::size_t i = 0; i < n; ++i)
    {
        auto row  = nl.row(i);
        auto span = nl.neighbors(i);
        ASSERT_EQ(row.count, span.size());
        ASSERT_EQ(row.size(), span.size());
        // same storage, not a copy: the pointer aliases the flat list
        EXPECT_EQ(row.data, span.data());
        for (std::size_t k = 0; k < span.size(); ++k)
            EXPECT_EQ(row.data[k], span[k]);
    }
}

TEST(NeighborListRow, IsIterableAndSpanConvertible)
{
    NeighborList<double> nl(4, 8);
    std::vector<Index> nbs{3, 1, 2};
    nl.set(0, nbs);

    auto row = nl.row(0);
    EXPECT_FALSE(row.empty());
    std::vector<Index> seen(row.begin(), row.end());
    EXPECT_EQ(seen, nbs);

    std::span<const Index> s = row.span();
    ASSERT_EQ(s.size(), nbs.size());
    EXPECT_TRUE(std::equal(s.begin(), s.end(), nbs.begin()));
}

TEST(NeighborListRow, EmptyRowHasZeroCount)
{
    NeighborList<double> nl(3, 8);
    // counts are zeroed by reset; no set() calls
    for (std::size_t i = 0; i < 3; ++i)
    {
        auto row = nl.row(i);
        EXPECT_EQ(row.count, 0u);
        EXPECT_TRUE(row.empty());
        EXPECT_EQ(row.begin(), row.end());
    }
}

TEST(NeighborListRow, RowsArePacked)
{
    const unsigned ngmax = 16;
    NeighborList<double> nl(5, ngmax);
    fillRamp(nl, 5, 3);
    for (std::size_t i = 1; i < 5; ++i)
    {
        EXPECT_EQ(nl.row(i).data, nl.row(0).data + i * 3);
    }
}

TEST(NeighborListRow, CountsCapAtNgmaxAndFlagOverflow)
{
    const unsigned ngmax = 4;
    NeighborList<double> nl(2, ngmax);
    std::vector<Index> many(10);
    std::iota(many.begin(), many.end(), Index(0));
    nl.set(0, many);

    auto row = nl.row(0);
    EXPECT_EQ(row.count, std::size_t(ngmax));
    EXPECT_EQ(nl.overflowCount(), 1u);
    for (unsigned k = 0; k < ngmax; ++k)
        EXPECT_EQ(row.data[k], many[k]);
}

TEST(NeighborListRow, StableAcrossSteadyStateReset)
{
    NeighborList<double> nl(8, 16);
    fillRamp(nl, 8, 5);
    const Index* before = nl.row(3).data;

    // same-shape reset reuses the high-water-mark allocation
    nl.reset(8, 16);
    EXPECT_EQ(nl.row(3).count, 0u); // counts rezeroed

    fillRamp(nl, 8, 5);
    EXPECT_EQ(nl.row(3).count, 5u);
    EXPECT_EQ(nl.row(3).data, before); // the refill packs the same place
}

// --- the arena against a vector-of-vectors model -----------------------------

namespace {

/// What the lists must hold: each row already cut at ngmax, plus the
/// overflow tally the cuts produced.
struct Model
{
    std::vector<std::vector<Index>> rows;
    std::size_t overflow = 0;

    void set(std::size_t i, const std::vector<Index>& nbs, unsigned ngmax)
    {
        rows[i].assign(nbs.begin(), nbs.begin() + std::min<std::size_t>(nbs.size(), ngmax));
        overflow += nbs.size() > ngmax ? 1 : 0;
    }
};

/// Rows equal the model, the tallies agree, no two rows share an entry,
/// and the arena holds every claimed entry.
void expectMatchesModel(const NeighborList<double>& nl, const Model& model)
{
    ASSERT_EQ(nl.size(), model.rows.size());
    EXPECT_EQ(nl.overflowCount(), model.overflow);
    std::size_t live = 0;
    std::vector<std::pair<const Index*, std::size_t>> spans;
    for (std::size_t i = 0; i < nl.size(); ++i)
    {
        auto row        = nl.neighbors(i);
        const auto& ref = model.rows[i];
        ASSERT_EQ(row.size(), ref.size()) << "row " << i;
        ASSERT_TRUE(std::equal(row.begin(), row.end(), ref.begin())) << "row " << i;
        live += ref.size();
        if (!row.empty()) spans.emplace_back(row.data(), row.size());
    }
    EXPECT_EQ(nl.totalNeighbors(), live);
    EXPECT_LE(live + nl.deadEntries(), nl.entryCapacity());
    std::sort(spans.begin(), spans.end(), [](const auto& a, const auto& b) {
        return std::less<const Index*>{}(a.first, b.first);
    });
    for (std::size_t k = 1; k < spans.size(); ++k)
    {
        ASSERT_FALSE(std::less<const Index*>{}(spans[k].first,
                                               spans[k - 1].first + spans[k - 1].second))
            << "rows overlap";
    }
}

} // namespace

TEST(NeighborListArena, RandomizedAgainstVectorOfVectorsModel)
{
    // every writer — set, reset, full and subset fills, concurrent
    // single-row writes — against the model, with rows that grow, shrink
    // and overflow, on pools {1, 2, 4}. Rows of up
    // to ngmax = 700 entries spread the lists over several pages, so moves,
    // page claims and compaction all happen.
    const unsigned ngmax = 700;
    const std::size_t saved = WorkerPool::instance().size();
    for (std::size_t pool : {1u, 2u, 4u})
    {
        WorkerPool::instance().resize(pool);
        Xoshiro256pp rng(17 + pool);
        std::size_t n = 120;
        NeighborList<double> nl(n, ngmax);
        Model model{std::vector<std::vector<Index>>(n), 0};

        auto randomRow = [&](std::size_t maxLen) {
            std::vector<Index> r(rng.uniformInt(maxLen + 1));
            for (auto& e : r)
                e = Index(rng.uniformInt(1u << 20));
            return r;
        };
        auto randomRows = [&](std::size_t count) {
            std::vector<std::vector<Index>> rows(count);
            for (auto& r : rows)
                r = randomRow(rng.uniformInt(4) == 0 ? ngmax + 40 : ngmax / 3);
            return rows;
        };

        for (int op = 0; op < 160; ++op)
        {
            switch (rng.uniformInt(5))
            {
                case 0: // serial single-row rewrite
                {
                    std::size_t i = rng.uniformInt(n);
                    auto r        = randomRow(ngmax + 20);
                    nl.set(i, r);
                    model.set(i, r, ngmax);
                    break;
                }
                case 1: // full fill
                {
                    auto rows = randomRows(n);
                    nl.beginFill(n, true);
                    parallelFor(n, [&](std::size_t i, std::size_t w) { nl.place(i, rows[i], w); },
                                {SchedulingStrategy::SelfScheduling});
                    nl.endFill();
                    for (std::size_t i = 0; i < n; ++i)
                        model.set(i, rows[i], ngmax);
                    break;
                }
                case 2: // subset fill over distinct rows
                {
                    std::vector<std::size_t> active;
                    for (std::size_t i = 0; i < n; ++i)
                        if (rng.uniformInt(3) == 0) active.push_back(i);
                    auto rows = randomRows(active.size());
                    nl.beginFill(active.size(), false);
                    parallelFor(active.size(),
                                [&](std::size_t a, std::size_t w) { nl.place(active[a], rows[a], w); },
                                {SchedulingStrategy::Guided});
                    nl.endFill();
                    EXPECT_LE(nl.deadEntries(), nl.totalNeighbors()) << "endFill compacts";
                    for (std::size_t a = 0; a < active.size(); ++a)
                        model.set(active[a], rows[a], ngmax);
                    break;
                }
                case 3: // concurrent single-row writes to distinct rows
                {
                    auto rows = randomRows(n);
                    parallelFor(n, [&](std::size_t i, std::size_t) { nl.set(i, rows[i]); });
                    for (std::size_t i = 0; i < n; ++i)
                        model.set(i, rows[i], ngmax);
                    break;
                }
                default: // reset, sometimes to a new row count
                {
                    if (rng.uniformInt(2) == 0) n = 40 + rng.uniformInt(160);
                    nl.reset(n, ngmax);
                    model = Model{std::vector<std::vector<Index>>(n), 0};
                    break;
                }
            }
            expectMatchesModel(nl, model);
            if (::testing::Test::HasFatalFailure())
            {
                WorkerPool::instance().resize(saved);
                FAIL() << "op " << op << " pool " << pool;
            }
        }
    }
    WorkerPool::instance().resize(saved);
}

TEST(NeighborListArena, CopiesAndMovesKeepTheRows)
{
    // the distributed driver keeps one list per rank in a vector, and the
    // symmetrize tests copy lists: both must carry the rows, independently
    NeighborList<double> nl(50, 64);
    fillRamp(nl, 50, 9);
    NeighborList<double> copy = nl;
    std::vector<Index> other{1, 2};
    copy.set(7, other);
    EXPECT_EQ(nl.count(7), 9u); // the original is untouched
    EXPECT_EQ(copy.count(7), 2u);
    EXPECT_NE(copy.row(0).data, nl.row(0).data);

    NeighborList<double> moved = std::move(copy);
    EXPECT_EQ(moved.count(7), 2u);
    for (std::size_t i = 0; i < 50; ++i)
    {
        if (i == 7) continue;
        auto a = nl.neighbors(i);
        auto b = moved.neighbors(i);
        ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << "row " << i;
    }
    std::vector<NeighborList<double>> perRank(3, nl);
    perRank.resize(8); // reallocates: the lists move
    EXPECT_EQ(perRank[2].count(49), 9u);
}

TEST(NeighborListArena, RowGrowingPastItsPageEndMoves)
{
    // rows never straddle pages: a row at the cursor's tip grows in place
    // only while its page has room, and moves to a fresh page otherwise
    const unsigned ngmax = 700;
    const std::size_t page = NeighborList<double>::minPageEntries;
    const std::size_t full = page / ngmax; // rows of ngmax that fit one page
    NeighborList<double> nl(full + 4, ngmax);
    Model model{std::vector<std::vector<Index>>(full + 4), 0};
    std::vector<Index> big(ngmax);
    std::iota(big.begin(), big.end(), Index(0));
    for (std::size_t i = 0; i < full; ++i)
    {
        nl.set(i, big);
        model.set(i, big, ngmax);
    }
    const std::size_t left = page - full * ngmax; // free tail of the first page
    std::vector<Index> head(left - 8, Index(3)), tail(50, Index(5)), small(10, Index(7));
    nl.set(full, head);
    model.set(full, head, ngmax);
    const Index* before = nl.row(full).data;

    std::vector<Index> longer = head; // 8 entries of room left: the row must move
    longer.insert(longer.end(), tail.begin(), tail.end());
    nl.set(full, longer);
    model.set(full, longer, ngmax);
    EXPECT_NE(nl.row(full).data, before);
    nl.set(full + 1, small);
    model.set(full + 1, small, ngmax);
    expectMatchesModel(nl, model);
    EXPECT_EQ(nl.entryCapacity(), 2 * page);
}

// --- the arena's size bound in the pipelines ---------------------------------

namespace {

/// Entries of a search at the initial conditions' smoothing lengths — the
/// set-up's first fill, the largest list these runs hold.
std::size_t firstFillEntries(const ParticleSetD& ps, const Box<double>& box)
{
    Octree<double> tree;
    tree.build(ps.x, ps.y, ps.z, box);
    NeighborList<double> nl(ps.size(), 384);
    oracle::findNeighborsGlobal(tree, ps.x, ps.y, ps.z, ps.h, nl);
    return nl.totalNeighbors();
}

/// The arena holds at most twice the first fill plus one open page per
/// cursor (each worker's, the single-row writers') and one more, and stays
/// below the rows x ngmax slots it replaced.
void expectArenaWithinBound(const NeighborList<double>& nl, std::size_t firstFill,
                            std::size_t rows, unsigned ngmax, int step)
{
    const std::size_t page  = NeighborList<double>::minPageEntries;
    const std::size_t slack = (WorkerPool::instance().size() + 2) * page;
    EXPECT_LE(nl.entryCapacity(), 2 * firstFill + slack) << "step " << step;
    EXPECT_LT(nl.entryCapacity(), rows * std::size_t(ngmax)) << "step " << step;
}

struct PoolOfFour
{
    std::size_t saved = WorkerPool::instance().size();
    PoolOfFour() { WorkerPool::instance().resize(4); }
    ~PoolOfFour() { WorkerPool::instance().resize(saved); }
};

} // namespace

TEST(NeighborListArena, SedovRunStaysWithinBound)
{
    PoolOfFour pool;
    ParticleSetD ps;
    SedovConfig<double> ic;
    ic.nSide         = 12;
    auto setup       = makeSedov(ps, ic);
    std::size_t cold = firstFillEntries(ps, setup.box);
    std::size_t rows = ps.size();
    SimulationConfig<double> cfg;
    Simulation<double> sim(std::move(ps), setup.box, Eos<double>(setup.eos), cfg);
    sim.computeForces();
    for (int step = 0; step <= 12; ++step)
    {
        expectArenaWithinBound(sim.neighborList(), cold, rows, cfg.ngmax, step);
        sim.advance();
    }
}

TEST(NeighborListArena, DamBreakGhostBracketStaysWithinBound)
{
    // phase K resets the lists to reals + ghosts every step and back to the
    // reals after the force pass; the pages persist across the bracket
    PoolOfFour pool;
    ParticleSetD ps;
    DamBreakConfig<double> ic;
    ic.nx      = 12;
    ic.ny      = 24;
    ic.nz      = 4;
    auto setup = makeDamBreak(ps, ic);
    auto cfg   = damBreakConfig(ic, setup);
    cfg.timestep.initialDt = 1e-4;
    ParticleSetD withGhosts = ps;
    appendMirrorGhosts(withGhosts, setup.box, cfg.boundaries);
    std::size_t cold = firstFillEntries(withGhosts, setup.box);
    Simulation<double> sim(std::move(ps), setup.box, cfg);
    sim.computeForces();
    for (int step = 0; step <= 12; ++step)
    {
        expectArenaWithinBound(sim.neighborList(), cold, withGhosts.size(), cfg.ngmax, step);
        sim.advance();
    }
}

TEST(NeighborListArena, BinnedEvrardCycleStaysWithinBound)
{
    // subset refills rewrite the active rows in place or move them while
    // the inactive rows persist; every fill ends with dead <= live
    PoolOfFour pool;
    ParticleSetD ps;
    EvrardConfig<double> ic;
    ic.nSide = 12;
    auto setup = makeEvrard(ps, ic);
    SimulationConfig<double> cfg;
    cfg.timestep.mode     = TimesteppingMode::Individual;
    cfg.neighborMode      = NeighborMode::IndividualTreeWalk;
    cfg.selfGravity       = true;
    cfg.gravity.softening = 0.02;
    cfg.targetNeighbors   = 60;
    std::size_t cold = firstFillEntries(ps, setup.box);
    std::size_t rows = ps.size();
    Simulation<double> sim(std::move(ps), setup.box, Eos<double>(setup.eos), cfg);
    sim.computeForces();

    // run until a cycle with subset steps has closed with a full sync
    const auto& ctl     = sim.timestepController();
    std::uint64_t start = ctl.cycleStart();
    bool subsetSeen = false, cycleClosed = false;
    for (int step = 0; step < 64 && !cycleClosed; ++step)
    {
        auto rep = sim.advance();
        subsetSeen |= rep.activeParticles < rows;
        cycleClosed = subsetSeen && ctl.cycleStart() != start;
        const auto& nl = sim.neighborList();
        EXPECT_LE(nl.deadEntries(), nl.totalNeighbors()) << "step " << step;
        expectArenaWithinBound(nl, cold, rows, cfg.ngmax, step);
    }
    EXPECT_TRUE(cycleClosed);
}
