#pragma once

/// \file neighbors.hpp
/// Neighbor lists (step 2 of Algorithm 1) and the pairs they miss
/// (phase D).
///
/// Both discovery modes of the paper's Tables 1/2 — the Global tree walk
/// (SPHYNX, SPH-flow: every particle searches each step) and the
/// Individual tree walk (ChaNGa: only an active subset searches, with
/// individual time-stepping) — fill these lists through the one cluster
/// search of tree/cluster_list.hpp, over all particles or over a subset.
/// The per-particle walks it replaced are the test oracle
/// tests/neighbor_oracle.hpp.
///
/// Neighbor lists live in one grow-only arena (NeighborList): row i is
/// (offset, count), packed by the fills rather than strided by ngmax, so
/// the lists cost what the neighborhoods hold. ngmax is the per-row cap;
/// a longer neighborhood is truncated and counted as one overflow.
///
/// Fills run through parallelFor (parallel/parallel_for.hpp) with
/// per-worker arena cursors, each row written by one iteration, so the
/// lists are bitwise identical for any pool size and strategy (only where
/// a row sits in the arena depends on the schedule).
/// findMissingPairs (phase D) buckets the sources each row lacks for pair
/// symmetry, with the same invariance, and leaves the lists as the search
/// left them.

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "backend/simd_tile.hpp"
#include "domain/box.hpp"
#include "parallel/parallel_for.hpp"
#include "tree/octree.hpp"

namespace sphexa {

/// Neighbor lists packed into one grow-only arena.
///
/// Row i is (offset, count): its entries sit at [offset, offset + count)
/// inside a place of room(i) >= count entries. The arena is a sequence of
/// fixed-size pages, allocated on first use and never freed or moved, so
/// no write ever reallocates entries another thread may be writing. Rows
/// are placed through cursors, each bump-allocating inside a page of its
/// own and claiming the next free page when a row does not fit (rows never
/// straddle pages):
///
///  - a parallel fill (beginFill / place / endFill) gives every worker its
///    own cursor, so the rows one worker writes consecutively — a
///    cluster's members in the cluster search — form one packed block, and
///    the only shared operation is one page claim per filled page;
///  - set() is the single-row writer (tests, oracles, serial callers); it
///    places rows through one cursor under a lock, so it is safe for
///    distinct rows from concurrent callers.
///
/// A row rewritten with no more entries than its room stays in place; one
/// that outgrows its place moves to fresh space, leaving dead entries
/// behind. A fill that rewrites every row reclaims every page first; after
/// any other fill, endFill() compacts the arena once dead entries
/// outnumber live ones. reset() keeps the pages (the high-water mark), so a
/// steady-state reset + refill allocates nothing — bench_neighbors
/// asserts the no-churn property.
template<class T>
class NeighborList
{
public:
    using Index = typename Octree<T>::Index;

    /// Smallest page, in entries. A page holds at least two rows of ngmax.
    static constexpr std::size_t minPageEntries = std::size_t(1) << 14;

    explicit NeighborList(std::size_t n = 0, unsigned ngmax = 256) { reset(n, ngmax); }

    /// Size the lists for \p n empty rows and zero the overflow counter.
    /// Allocated pages are kept, and the next writes reuse them from the
    /// first; stale entries are never read past a count, so nothing is
    /// zeroed. Only a change of page size (ngmax beyond half a page) drops
    /// the pages.
    void reset(std::size_t n, unsigned ngmax)
    {
        std::size_t page = std::max(minPageEntries, 2 * std::bit_ceil(std::size_t(ngmax)));
        if (page != pageSize() || pages_.empty())
        {
            pages_.assign(1, {});
            shift_ = unsigned(std::countr_zero(page));
        }
        n_     = n;
        ngmax_ = ngmax;
        offset_.assign(n, 0);
        count_.assign(n, 0);
        room_.assign(n, 0);
        releasePages();
        overflow_ = 0;
    }

    /// Zero the overflow counter only (start of each search pass); keeps
    /// lists and counts, unlike reset().
    void resetOverflow() { overflow_ = 0; }

    /// Allocated arena, in entries: the pages of the high-water mark.
    std::size_t entryCapacity() const
    {
        std::size_t pages = 0;
        for (const auto& p : pages_)
            pages += p.empty() ? 0 : 1;
        return pages * pageSize();
    }
    /// Address of the arena's first page (stable across resets).
    const Index* entryData() const { return pages_.front().data(); }
    /// Entries of the pages in use that hold no live entry: the space of
    /// moved or shrunk rows and the unused ends of full pages.
    std::size_t deadEntries() const { return claimedEntries() - totalNeighbors(); }

    unsigned ngmax() const { return ngmax_; }
    std::size_t size() const { return n_; }

    /// Number of neighbors found for particle i (capped at ngmax).
    unsigned count(std::size_t i) const { return count_[i]; }

    /// Neighbor indices of particle i.
    std::span<const Index> neighbors(std::size_t i) const { return {at(offset_[i]), count_[i]}; }

    /// One particle's neighbor row — entry pointer and count from a single
    /// lookup, the flat contiguous form the backend kernels consume
    /// (src/backend/*_kernel.hpp). Iterable like neighbors(i).
    struct Row
    {
        const Index* data;
        std::size_t  count;

        std::span<const Index> span() const { return {data, count}; }
        const Index* begin() const { return data; }
        const Index* end() const { return data + count; }
        std::size_t size() const { return count; }
        bool empty() const { return count == 0; }
    };

    /// Row accessor: both the entries and the count of particle i in one call.
    Row row(std::size_t i) const { return {at(offset_[i]), count_[i]}; }

    /// Number of particles whose neighborhood exceeded ngmax in the last fill.
    std::size_t overflowCount() const { return overflow_; }

    /// Total number of neighbor entries (interaction count proxy).
    std::size_t totalNeighbors() const
    {
        std::size_t s = 0;
        for (auto c : count_)
            s += c;
        return s;
    }

    /// Row i := \p nbs, truncated at ngmax (one overflow when truncated).
    void set(std::size_t i, std::span<const Index> nbs)
    {
        std::lock_guard<std::mutex> lock(shared_.mutex);
        ensurePageSlot();
        write(shared_.cursor, i, nbs);
    }

    // --- parallel fills -----------------------------------------------------

    /// Open a fill that writes at most \p rows rows through place(). With
    /// \p everyRow the fill rewrites all rows [0, size()): every row is
    /// emptied and every page reclaimed first, so the fill packs the arena
    /// from its start. Serial; sizes the page table for the fill's worst
    /// case, so place() never reallocates it.
    void beginFill(std::size_t rows, bool everyRow)
    {
        if (everyRow)
        {
            count_.assign(n_, 0);
            room_.assign(n_, 0);
            releasePages();
        }
        cursors_.resize(WorkerPool::instance().size());
        std::size_t perPage = pageSize() - ngmax_ + 1; // a page closes with more than this
        std::size_t bound   = pagesInUse_ + rows * ngmax_ / perPage + cursors_.size() + 1;
        if (pages_.size() < bound) pages_.resize(bound);
    }

    /// Row i := \p nbs through worker \p w's cursor: in place when the
    /// row's place holds it, else in fresh space of the worker's pages.
    /// Inside a fill, safe concurrently for distinct i from distinct w.
    void place(std::size_t i, std::span<const Index> nbs, std::size_t w)
    {
        write(cursors_[w].value, i, nbs);
    }

    /// Close a fill (serial): compact when dead entries outnumber live ones.
    void endFill()
    {
        std::size_t live = totalNeighbors();
        if (claimedEntries() - live > live) compact();
    }

private:
    /// Bump allocator over one page: [next, end) is its free tail, in
    /// arena offsets (page << shift | slot). Empty when next == end.
    struct Cursor
    {
        std::size_t next = 0, end = 0;
    };

    /// The single-row writer's cursor and its lock. Copying a list gives
    /// the copy a fresh lock.
    struct SharedCursor
    {
        Cursor cursor;
        std::mutex mutex;

        SharedCursor() = default;
        SharedCursor(const SharedCursor& o) : cursor(o.cursor) {}
        SharedCursor& operator=(const SharedCursor& o)
        {
            cursor = o.cursor;
            return *this;
        }
    };

    std::size_t pageSize() const { return std::size_t(1) << shift_; }

    const Index* at(std::size_t off) const
    {
        return pages_[off >> shift_].data() + (off & (pageSize() - 1));
    }
    Index* at(std::size_t off) { return pages_[off >> shift_].data() + (off & (pageSize() - 1)); }

    void write(Cursor& cur, std::size_t i, std::span<const Index> nbs)
    {
        unsigned c = unsigned(std::min<std::size_t>(nbs.size(), ngmax_));
        if (c > room_[i]) makeRoom(cur, i, c);
        std::copy_n(nbs.begin(), c, at(offset_[i]));
        count_[i] = c;
        if (nbs.size() > ngmax_) countOverflow();
    }

    /// Give row i a place of \p c > room(i) entries, for a rewrite: grow it
    /// in place when it ends at the cursor's tip with space to spare, else
    /// move it to fresh space from the cursor.
    void makeRoom(Cursor& cur, std::size_t i, unsigned c)
    {
        // a cursor's tip is never its page's first slot, so a row ending
        // there lies in the cursor's page
        std::size_t off = offset_[i];
        bool atTip      = room_[i] > 0 && off + room_[i] == cur.next && off + c <= cur.end;
        if (atTip)
        {
            cur.next = off + c;
        }
        else
        {
            offset_[i] = take(cur, c);
        }
        room_[i] = c;
    }

    /// \p c contiguous entries from \p cur, claiming the next free page
    /// when the cursor's page cannot hold them.
    std::size_t take(Cursor& cur, std::size_t c)
    {
        if (cur.end - cur.next < c)
        {
            std::size_t k =
                std::atomic_ref<std::size_t>(pagesInUse_).fetch_add(1, std::memory_order_relaxed);
            if (k >= pages_.size())
            {
                throw std::logic_error("NeighborList: place() outside beginFill/endFill");
            }
            if (pages_[k].empty()) pages_[k].resize(pageSize());
            cur.next = k << shift_;
            cur.end  = cur.next + pageSize();
        }
        std::size_t off = cur.next;
        cur.next += c;
        return off;
    }

    /// The single-row writer claims pages outside a fill: keep one slot.
    void ensurePageSlot()
    {
        if (pages_.size() <= pagesInUse_) pages_.resize(pagesInUse_ + 1);
    }

    /// Every page free again; the cursors start over from the first page.
    void releasePages()
    {
        pagesInUse_ = 0;
        for (auto& c : cursors_)
            c.value = {};
        shared_.cursor = {};
    }

    /// Entries of the pages in use, less the cursors' free tails.
    std::size_t claimedEntries() const
    {
        std::size_t claimed = pagesInUse_ * pageSize();
        for (const auto& c : cursors_)
            claimed -= c.value.end - c.value.next;
        return claimed - (shared_.cursor.end - shared_.cursor.next);
    }

    /// Slide every live row down to the front of the arena, in arena
    /// order, so rows only move toward lower offsets and never over a row
    /// not yet moved; rows stay inside one page. Frees the pages beyond.
    void compact()
    {
        std::vector<std::size_t> order;
        order.reserve(n_);
        for (std::size_t i = 0; i < n_; ++i)
        {
            room_[i] = 0;
            if (count_[i] > 0)
                order.push_back(i);
            else
                offset_[i] = 0;
        }
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) { return offset_[a] < offset_[b]; });
        const std::size_t mask = pageSize() - 1;
        std::size_t next       = 0;
        for (std::size_t i : order)
        {
            unsigned c = count_[i];
            if ((next & mask) + c > pageSize()) next = (next | mask) + 1;
            if (next != offset_[i]) std::memmove(at(next), at(offset_[i]), c * sizeof(Index));
            offset_[i] = next;
            room_[i]   = c;
            next += c;
        }
        releasePages();
        pagesInUse_ = (next + mask) >> shift_;
        if (next & mask) shared_.cursor = {next, (next | mask) + 1};
    }

    // place()/set() count truncations concurrently for distinct rows;
    // atomic_ref makes the shared overflow tally atomic while keeping the
    // member a plain (copyable) size_t.
    void countOverflow()
    {
        std::atomic_ref<std::size_t>(overflow_).fetch_add(1, std::memory_order_relaxed);
    }

    std::size_t n_{0};
    unsigned    ngmax_{256};
    unsigned    shift_{unsigned(std::countr_zero(minPageEntries))};
    std::vector<std::size_t> offset_;
    std::vector<unsigned>    count_;
    std::vector<unsigned>    room_;
    std::vector<std::vector<Index>> pages_; ///< page table; empty = not yet allocated
    std::size_t pagesInUse_{0};             ///< pages [0, pagesInUse_) are claimed
    std::vector<WorkerSlot<Cursor>> cursors_; ///< one per pool worker
    SharedCursor shared_;
    std::size_t  overflow_{0};
};

/// Phase D's output: the pairs the neighbor lists miss, bucketed by the
/// row that lacks them. Row j's bucket holds every i whose row lists j
/// while row j lacks i. A row followed by its kept bucket (kept()) is the
/// row a pair-symmetric list would hold, and phase H sums that sequence.
/// Phases E-G read the rows alone: a kept entry lies at q = r/h_j >= 2,
/// where every kernel shape is exactly 0. Grow-only like the lists
/// themselves, so a steady-state pass allocates nothing. Owned by a driver
/// and referenced by its StepContexts; a default-constructed value is valid
/// and warms up on first use.
template<class T>
struct MissingPairs
{
    using Index = typename NeighborList<T>::Index;

    std::vector<std::size_t> rowStart; ///< bucket of row j: [rowStart[j], rowStart[j+1])
    std::vector<Index> sources;        ///< missing sources, bucketed by row
    std::size_t keptEntries = 0;       ///< bucket entries inside their rows' room
    std::size_t cutRows     = 0;       ///< rows whose bucket outgrows that room
    std::vector<Index> staging;        ///< phase H's merged rows, ngmax per worker

    /// Row j's bucket up to the ngmax - count(j) entries row j has room for.
    std::span<const Index> kept(const NeighborList<T>& nl, std::size_t j) const
    {
        std::size_t size = rowStart[j + 1] - rowStart[j];
        return {sources.data() + rowStart[j],
                std::min<std::size_t>(size, nl.ngmax() - nl.count(j))};
    }
};

/// Find the pairs the neighbor lists miss (phase D): wherever row(i) lists
/// j but row(j) lacks i, put i into row j's bucket of \p pairs. The lists
/// stay as the search left them. Exact momentum conservation needs the
/// missing pairs when smoothing lengths differ, since a pair can satisfy
/// r < 2 h_i but not r < 2 h_j.
///
/// Precondition: every row is the output of a search over these positions
/// and smoothing lengths in \p box (findNeighborsClustered, over all
/// particles or over the h iteration's subsets), so row(j) holds exactly the i
/// with d2(j, i) < (2 h_j)^2, truncated at ngmax. Whether i is in row(j) is
/// then decided in O(1) by evaluating that predicate from j's side with
/// the searches' own arithmetic: minimum-image differences x_j - x_i and
/// the left-to-right sum of squares, bitwise the value the search from j
/// compared. Only a full row (count == ngmax, possibly truncated) falls
/// back to scanning its entries.
///
/// Three parallel sweeps: count each row's missing sources, find them
/// again and drop them into per-row buckets of one shared array, then
/// order each bucket by (ids[i], i) — ascending slot order when \p ids is
/// empty. The buckets are therefore a function of the pair set and the ids
/// alone, bitwise invariant under pool size and strategy, and with the ids
/// of an SFC-reordered set they do not depend on the storage permutation
/// either. The serial prefix sum between the first two sweeps tallies the
/// kept entries and the cut rows: a bucket longer than its row's room
/// counts one overflow, also when the search already truncated the row.
template<class T>
void findMissingPairs(const NeighborList<T>& nl, std::type_identity_t<std::span<const T>> x,
                      std::type_identity_t<std::span<const T>> y,
                      std::type_identity_t<std::span<const T>> z,
                      std::type_identity_t<std::span<const T>> h, const Box<T>& box,
                      MissingPairs<T>& pairs, std::span<const std::uint64_t> ids = {},
                      const LoopPolicy& policy = {})
{
    using Index = typename NeighborList<T>::Index;
    std::size_t n = nl.size();
    pairs.rowStart.assign(n + 1, 0);
    pairs.keptEntries = 0;
    pairs.cutRows     = 0;
    if (n == 0) return;
    const unsigned ngmax = nl.ngmax();
    const backend::PeriodicWrap<T> wrap(box);

    // visit every (j, i) with j in row(i) but i missing from row(j)
    auto forEachMissing = [&](auto&& visit) {
        parallelFor(
            n,
            [&](std::size_t i, std::size_t) {
                for (Index j : nl.row(i))
                {
                    T dx       = wrap.x(x[j] - x[i]);
                    T dy       = wrap.y(y[j] - y[i]);
                    T dz       = wrap.z(z[j] - z[i]);
                    T radius   = T(2) * h[j];
                    bool found = dx * dx + dy * dy + dz * dz < radius * radius;
                    if (found && nl.count(j) == ngmax)
                    {
                        auto rj = nl.row(j);
                        found   = std::find(rj.begin(), rj.end(), Index(i)) != rj.end();
                    }
                    if (!found) visit(j, Index(i));
                }
            },
            policy);
    };
    auto atomicAt = [&](std::size_t j) { return std::atomic_ref<std::size_t>(pairs.rowStart[j]); };

    forEachMissing([&](Index j, Index) { atomicAt(j).fetch_add(1, std::memory_order_relaxed); });
    std::size_t total = 0;
    for (std::size_t j = 0; j < n; ++j)
    {
        std::size_t size = pairs.rowStart[j];
        std::size_t room = ngmax - nl.count(j);
        pairs.keptEntries += std::min(size, room);
        pairs.cutRows += size > room ? 1 : 0;
        total += size;
        pairs.rowStart[j] = total; // bucket end; the fill below moves it to the start
    }
    pairs.rowStart[n] = total;
    if (total == 0) return;

    // the order inside a bucket depends on which worker got there first;
    // the per-bucket sort below removes it
    pairs.sources.resize(total);
    forEachMissing([&](Index j, Index i) {
        pairs.sources[atomicAt(j).fetch_sub(1, std::memory_order_relaxed) - 1] = i;
    });

    parallelFor(
        n,
        [&](std::size_t j, std::size_t) {
            Index* first = pairs.sources.data() + pairs.rowStart[j];
            Index* last  = pairs.sources.data() + pairs.rowStart[j + 1];
            if (first == last) return;
            if (ids.empty())
            {
                std::sort(first, last);
            }
            else
            {
                std::sort(first, last, [&](Index a, Index b) {
                    return ids[a] != ids[b] ? ids[a] < ids[b] : a < b;
                });
            }
        },
        policy);
}

} // namespace sphexa
