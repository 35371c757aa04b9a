/// NeighborList container tests, centered on the flat-row accessor
/// (NeighborList::row) the backend kernels consume: one lookup returning
/// both the entry pointer and the count, aliasing the same storage as
/// neighbors(i), iterable, and stable across steady-state resets.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

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

TEST(NeighborListRow, RowsAreNgmaxStrided)
{
    const unsigned ngmax = 16;
    NeighborList<double> nl(5, ngmax);
    fillRamp(nl, 5, 3);
    for (std::size_t i = 1; i < 5; ++i)
    {
        EXPECT_EQ(nl.row(i).data, nl.row(0).data + i * ngmax);
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
    EXPECT_EQ(nl.row(3).data, before);
    EXPECT_EQ(nl.row(3).count, 0u); // counts rezeroed

    fillRamp(nl, 8, 5);
    EXPECT_EQ(nl.row(3).count, 5u);
}

// --- in-place append (the phase D extension) ---------------------------------

namespace {

/// The extension as a full rewrite: set(i, neighbors(i) ++ extra), skipped
/// for an empty extra — the reference append() must reproduce.
void setMerged(NeighborList<double>& nl, std::size_t i, const std::vector<Index>& extra)
{
    if (extra.empty()) return;
    auto cur = nl.neighbors(i);
    std::vector<Index> merged(cur.begin(), cur.end());
    merged.insert(merged.end(), extra.begin(), extra.end());
    nl.set(i, merged);
}

void expectSameLists(const NeighborList<double>& a, const NeighborList<double>& b)
{
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(a.overflowCount(), b.overflowCount());
    for (std::size_t i = 0; i < a.size(); ++i)
    {
        auto ra = a.neighbors(i);
        auto rb = b.neighbors(i);
        ASSERT_EQ(ra.size(), rb.size()) << "row " << i;
        EXPECT_TRUE(std::equal(ra.begin(), ra.end(), rb.begin())) << "row " << i;
    }
}

} // namespace

TEST(NeighborListAppend, ExtendsAPartlyFilledRowInPlace)
{
    NeighborList<double> nl(3, 8);
    std::vector<Index> head{4, 1, 2};
    nl.set(1, head);
    const Index* data = nl.row(1).data;

    std::vector<Index> extra{7, 0};
    nl.append(1, extra);

    auto row = nl.row(1);
    EXPECT_EQ(row.data, data); // same storage, no copy through a temporary
    std::vector<Index> seen(row.begin(), row.end());
    EXPECT_EQ(seen, (std::vector<Index>{4, 1, 2, 7, 0}));
    EXPECT_EQ(nl.overflowCount(), 0u);
    EXPECT_EQ(nl.count(0), 0u); // neighbouring rows untouched
    EXPECT_EQ(nl.count(2), 0u);
}

TEST(NeighborListAppend, TruncatesAtNgmaxAndCountsOneOverflowPerRow)
{
    const unsigned ngmax = 4;
    NeighborList<double> nl(3, ngmax), ref(3, ngmax);
    std::vector<Index> head{9, 8, 7};
    for (auto* l : {&nl, &ref})
    {
        l->set(0, head);
        l->set(1, head);
        l->set(2, head);
    }

    // row 0: overshoots by two, row 1: fills exactly, row 2: empty extra
    std::vector<Index> over{1, 2, 3}, exact{5}, none;
    nl.append(0, over);
    nl.append(1, exact);
    nl.append(2, none);
    setMerged(ref, 0, over);
    setMerged(ref, 1, exact);
    setMerged(ref, 2, none);

    expectSameLists(nl, ref);
    EXPECT_EQ(nl.overflowCount(), 1u);
    std::vector<Index> row0(nl.row(0).begin(), nl.row(0).end());
    EXPECT_EQ(row0, (std::vector<Index>{9, 8, 7, 1}));
    EXPECT_EQ(nl.count(1), ngmax);
}

TEST(NeighborListAppend, FullRowDropsEverythingAndCountsOnce)
{
    const unsigned ngmax = 4;
    NeighborList<double> nl(2, ngmax), ref(2, ngmax);
    std::vector<Index> full{0, 1, 2, 3}, extra{6, 7};
    nl.set(0, full);
    ref.set(0, full);

    nl.append(0, extra);
    setMerged(ref, 0, extra);
    expectSameLists(nl, ref);
    EXPECT_EQ(nl.overflowCount(), 1u);

    // an empty extension of a full row is not a truncation
    nl.append(0, {});
    EXPECT_EQ(nl.overflowCount(), 1u);
}

TEST(NeighborListAppend, ConcurrentAppendsToDistinctRows)
{
    const std::size_t n  = 2000;
    const unsigned ngmax = 12;
    NeighborList<double> nl(n, ngmax), ref(n, ngmax);
    fillRamp(nl, n, 5);
    fillRamp(ref, n, 5);

    // row i gains i % 11 entries: rows with more than seven overflow
    auto extraFor = [](std::size_t i) {
        std::vector<Index> e(i % 11);
        std::iota(e.begin(), e.end(), Index(i));
        return e;
    };
    std::size_t truncated = 0;
    for (std::size_t i = 0; i < n; ++i)
    {
        setMerged(ref, i, extraFor(i));
        truncated += (i % 11) > ngmax - 5 ? 1 : 0;
    }

    std::vector<std::vector<Index>> extras(n);
    for (std::size_t i = 0; i < n; ++i)
        extras[i] = extraFor(i);
    parallelFor(n, [&](std::size_t i, std::size_t) { nl.append(i, extras[i]); },
                {SchedulingStrategy::SelfScheduling});

    expectSameLists(nl, ref);
    EXPECT_EQ(nl.overflowCount(), truncated);
}
