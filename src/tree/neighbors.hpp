#pragma once

/// \file neighbors.hpp
/// Neighbor discovery (step 2 of Algorithm 1): tree walks over the octree.
///
/// Per Table 1/2 of the paper, both discovery modes are provided:
///  - Global tree walk (SPHYNX, SPH-flow): every particle searches each step.
///  - Individual tree walk (ChaNGa): only an active subset searches — the
///    mode used with individual (multi-) time-stepping.
///
/// Neighbor lists are stored flat with a fixed per-particle capacity
/// (ngmax), the layout used by the production SPH-EXA mini-app; overflow is
/// recorded rather than silently truncated.
///
/// The walks run through parallelFor (parallel/parallel_for.hpp) with
/// per-worker scratch buffers: iteration i writes only list slot i, so the
/// produced lists are bitwise identical for any pool size and strategy.
/// symmetrizeNeighborList (phase D) completes the lists pairwise, in
/// place and with the same invariance.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "backend/simd_tile.hpp"
#include "domain/box.hpp"
#include "parallel/parallel_for.hpp"
#include "tree/octree.hpp"

namespace sphexa {

/// Flat fixed-capacity neighbor lists.
template<class T>
class NeighborList
{
public:
    using Index = typename Octree<T>::Index;

    explicit NeighborList(std::size_t n = 0, unsigned ngmax = 256) { reset(n, ngmax); }

    /// Size the lists for \p n particles and zero the counts. The entry
    /// storage only ever GROWS: steady-state resets (every step, plus the
    /// WCSPH ghost bracket growing and shrinking the set within a step)
    /// reuse the high-water-mark allocation instead of reassigning
    /// n*ngmax entries — entries are never read past their count, so
    /// stale storage needs no zeroing (bench_neighbors asserts the
    /// no-churn property).
    void reset(std::size_t n, unsigned ngmax)
    {
        n_     = n;
        ngmax_ = ngmax;
        if (list_.size() < n * std::size_t(ngmax)) list_.resize(n * std::size_t(ngmax));
        count_.assign(n, 0);
        overflow_ = 0;
    }

    /// Zero the overflow counter only (start of each search pass); keeps
    /// lists and counts, unlike reset().
    void resetOverflow() { overflow_ = 0; }

    /// Allocated entry storage, in entries (high-water mark across resets).
    std::size_t entryCapacity() const { return list_.capacity(); }
    /// Address of the entry storage (stable across steady-state resets).
    const Index* entryData() const { return list_.data(); }

    unsigned ngmax() const { return ngmax_; }
    std::size_t size() const { return n_; }

    /// Number of neighbors found for particle i (capped at ngmax).
    unsigned count(std::size_t i) const { return count_[i]; }

    /// Neighbor indices of particle i.
    std::span<const Index> neighbors(std::size_t i) const
    {
        return {list_.data() + i * ngmax_, count_[i]};
    }

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
    Row row(std::size_t i) const { return {list_.data() + i * ngmax_, count_[i]}; }

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

    void set(std::size_t i, std::span<const Index> nbs)
    {
        unsigned c = unsigned(std::min<std::size_t>(nbs.size(), ngmax_));
        for (unsigned k = 0; k < c; ++k)
            list_[i * ngmax_ + k] = nbs[k];
        count_[i] = c;
        if (nbs.size() > ngmax_) countOverflow();
    }

    /// Extend row i in place by \p extra, past its current count: the
    /// result set(i, neighbors(i) ++ extra) would give, without the copy.
    /// Entries beyond ngmax are dropped and the row counts one overflow,
    /// as a truncated set() does; an empty \p extra changes nothing. Safe
    /// to call concurrently for distinct i.
    void append(std::size_t i, std::span<const Index> extra)
    {
        if (extra.empty()) return;
        unsigned c    = count_[i];
        unsigned kept = unsigned(std::min<std::size_t>(extra.size(), ngmax_ - c));
        std::copy_n(extra.begin(), kept, list_.begin() + i * ngmax_ + c);
        count_[i] = c + kept;
        if (kept < extra.size()) countOverflow();
    }

private:
    // set()/append() run concurrently for distinct rows from parallelFor
    // workers; atomic_ref makes the shared overflow tally atomic while
    // keeping the member a plain (copyable) size_t.
    void countOverflow()
    {
        std::atomic_ref<std::size_t>(overflow_).fetch_add(1, std::memory_order_relaxed);
    }

    std::size_t n_{0};
    unsigned    ngmax_{256};
    std::vector<Index>    list_;
    std::vector<unsigned> count_;
    std::size_t           overflow_{0};
};

/// Fill neighbor lists for all particles ("global tree walk").
///
/// The search radius of particle i is 2 h_i (kernel support). Self is
/// excluded from the list; SPH sums add the self contribution analytically.
template<class T>
void findNeighborsGlobal(const Octree<T>& tree, std::type_identity_t<std::span<const T>> x, std::type_identity_t<std::span<const T>> y,
                         std::type_identity_t<std::span<const T>> z, std::type_identity_t<std::span<const T>> h, NeighborList<T>& nl,
                         const LoopPolicy& policy = {})
{
    using Index = typename Octree<T>::Index;
    std::size_t n = x.size();
    std::vector<std::vector<Index>> scratch(parallelForWorkers());
    for (auto& s : scratch)
        s.reserve(nl.ngmax());
    parallelFor(n, [&](std::size_t i, std::size_t w) {
        auto& local = scratch[w];
        local.clear();
        Vec3<T> pos{x[i], y[i], z[i]};
        T radius = T(2) * h[i];
        tree.forEachNeighbor(pos, radius, [&](Index j, T) {
            if (j != Index(i)) local.push_back(j);
        });
        nl.set(i, local);
    }, policy);
}

/// Fill neighbor lists only for the \p active particles ("individual tree
/// walk", ChaNGa-style): the inactive entries keep their previous lists.
/// This is the phase-B search of every subset walk — the binned-integration
/// pipeline (PipelineFactory::individual, where \p active is the time-step
/// controller's force set) and the distributed driver's per-rank walk. No
/// ClusterList counterpart exists: clusters are runs of consecutive
/// SFC-sorted slots and an active bin scatters across them, so the
/// per-particle walk remains the subset path (open item in the ROADMAP).
template<class T>
void findNeighborsIndividual(const Octree<T>& tree, std::type_identity_t<std::span<const T>> x,
                             std::type_identity_t<std::span<const T>> y, std::type_identity_t<std::span<const T>> z,
                             std::type_identity_t<std::span<const T>> h, std::type_identity_t<std::span<const std::size_t>> active,
                             NeighborList<T>& nl, const LoopPolicy& policy = {})
{
    using Index = typename Octree<T>::Index;
    std::vector<std::vector<Index>> scratch(parallelForWorkers());
    for (auto& s : scratch)
        s.reserve(nl.ngmax());
    parallelFor(active.size(), [&](std::size_t a, std::size_t w) {
        std::size_t i = active[a];
        auto& local = scratch[w];
        local.clear();
        Vec3<T> pos{x[i], y[i], z[i]};
        T radius = T(2) * h[i];
        tree.forEachNeighbor(pos, radius, [&](Index j, T) {
            if (j != Index(i)) local.push_back(j);
        });
        nl.set(i, local);
    }, policy);
}

/// Brute-force O(N^2) reference used by tests and the neighbor ablation.
template<class T>
void findNeighborsBruteForce(std::type_identity_t<std::span<const T>> x, std::type_identity_t<std::span<const T>> y,
                             std::type_identity_t<std::span<const T>> z, std::type_identity_t<std::span<const T>> h, const Box<T>& box,
                             NeighborList<T>& nl)
{
    using Index = typename Octree<T>::Index;
    std::size_t n = x.size();
    std::vector<std::vector<Index>> scratch(parallelForWorkers());
    parallelFor(n, [&](std::size_t i, std::size_t w) {
        auto& local = scratch[w];
        local.clear();
        Vec3<T> pi{x[i], y[i], z[i]};
        T r2 = T(4) * h[i] * h[i];
        for (std::size_t j = 0; j < n; ++j)
        {
            if (j == i) continue;
            Vec3<T> d = box.delta(pi, Vec3<T>{x[j], y[j], z[j]});
            if (norm2(d) < r2) local.push_back(Index(j));
        }
        nl.set(i, local);
    });
}

/// Persistent scratch of symmetrizeNeighborList: the missing sources,
/// bucketed by the row that lacks them. Grow-only like the lists
/// themselves, so a steady-state pass allocates nothing. Owned by a driver
/// and referenced by its StepContexts; a default-constructed workspace is
/// valid and warms up on first use.
template<class T>
struct SymmetrizeWorkspace
{
    using Index = typename NeighborList<T>::Index;

    std::vector<std::size_t> rowStart; ///< bucket of row j: [rowStart[j], rowStart[j+1])
    std::vector<Index> sources;        ///< missing sources, bucketed by row
};

/// Make neighbor lists pair-symmetric (phase D): wherever row(i) lists j
/// but row(j) lacks i, append i to row(j). Exact momentum conservation
/// needs this when smoothing lengths differ, since a pair can satisfy
/// r < 2 h_i but not r < 2 h_j.
///
/// Precondition: every row is the output of a search over these positions
/// and smoothing lengths in \p box (findNeighborsGlobal, findNeighborsClustered or
/// the re-walks of updateSmoothingLengths), so row(j) holds exactly the i
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
/// empty — and append it. The extension is therefore a function of the
/// pair set and the ids alone, bitwise invariant under pool size and
/// strategy, and with the ids of an SFC-reordered set it does not depend
/// on the storage permutation either. Appends truncate at ngmax and count
/// one overflow per truncated row (NeighborList::append).
template<class T>
void symmetrizeNeighborList(NeighborList<T>& nl, std::type_identity_t<std::span<const T>> x,
                            std::type_identity_t<std::span<const T>> y,
                            std::type_identity_t<std::span<const T>> z,
                            std::type_identity_t<std::span<const T>> h, const Box<T>& box,
                            SymmetrizeWorkspace<T>& ws, std::span<const std::uint64_t> ids = {},
                            const LoopPolicy& policy = {})
{
    using Index = typename NeighborList<T>::Index;
    std::size_t n = nl.size();
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
    auto atomicAt = [&](std::size_t j) { return std::atomic_ref<std::size_t>(ws.rowStart[j]); };

    ws.rowStart.assign(n + 1, 0);
    forEachMissing([&](Index j, Index) { atomicAt(j).fetch_add(1, std::memory_order_relaxed); });
    std::size_t total = 0;
    for (std::size_t j = 0; j < n; ++j)
    {
        total += ws.rowStart[j];
        ws.rowStart[j] = total; // bucket end; the fill below moves it to the start
    }
    ws.rowStart[n] = total;
    if (total == 0) return;

    // the order inside a bucket depends on which worker got there first;
    // the per-bucket sort below removes it
    ws.sources.resize(total);
    forEachMissing([&](Index j, Index i) {
        ws.sources[atomicAt(j).fetch_sub(1, std::memory_order_relaxed) - 1] = i;
    });

    parallelFor(
        n,
        [&](std::size_t j, std::size_t) {
            Index* first = ws.sources.data() + ws.rowStart[j];
            Index* last  = ws.sources.data() + ws.rowStart[j + 1];
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
            nl.append(j, std::span<const Index>(first, last));
        },
        policy);
}

} // namespace sphexa
