#pragma once

/// \file cluster_list.hpp
/// The neighbor search of every walk (phases B and C, both drivers): a
/// cluster (pseudo-Verlet) search over the octree, the "cluster" half of
/// the sorted-reorder + cluster subsystem (tree/sfc_sort.hpp).
///
/// A cluster is a window of clusterSize consecutive tree.order() positions
/// (after the phase L reorder, a run of consecutive slots), or, in a
/// subset search, the subset's members inside one such window: a binned
/// step's active set, the h iteration's unconverged particles, a
/// distributed rank's owned particles. So no cluster is looser than its
/// full window. Instead of one octree walk per particle, the search walks
/// the tree once per CLUSTER: nodes are pruned by cluster-AABB-to-node-AABB
/// distance against the cluster's largest support radius, surviving leaves
/// are gathered into a packed candidate buffer, and every member then
/// scans that contiguous buffer — amortizing the traversal over the
/// members and turning the scattered per-leaf gathers into dense streaming
/// loops (Gonnet's sorted cell-pair lists, arXiv:1404.2303; Shamrock's
/// cluster pipeline, arXiv:2503.09713).
///
/// Output equivalence is EXACT, not just set-equal: candidate leaves are
/// visited in the same depth-first order as the per-particle walk
/// (tests/neighbor_oracle.hpp) and members test candidates with the same
/// predicate, and since box-box pruning distances never exceed the
/// member's point-box distances (aabbDistanceSq, domain/box.hpp), every
/// leaf a per-particle walk visits survives cluster pruning. Each particle
/// therefore receives the same neighbor indices in the same order as its
/// own walk would give it, whichever cluster it falls in — so every
/// downstream SPH sum is bitwise the per-particle walk's (lists gated by
/// tests/test_cluster_list.cpp, the step end to end by
/// Propagator.SingleRankAndOneRankDistributedAreBitwiseIdentical).
///
/// The search runs through parallelFor (one iteration per cluster); each
/// cluster writes only its own members' rows, so results are bitwise
/// invariant under pool size and scheduling strategy like every other hot
/// loop. The rows go through the worker's arena cursor one after another,
/// so each cluster's rows form one packed block of the arena (split only
/// where a page ends), claimed with no shared operation per row.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "backend/simd_tile.hpp"
#include "domain/box.hpp"
#include "parallel/parallel_for.hpp"
#include "tree/neighbors.hpp"
#include "tree/octree.hpp"

namespace sphexa {

/// Particles per cluster window: large enough to amortize one tree
/// traversal, small enough to keep the cluster's candidate superset tight
/// (~2x the per-particle candidates at 32). The gravity solver cuts its
/// target groups at the same size.
inline constexpr unsigned kClusterSize = 32;

/// A subset of a tree's particles in tree order, cut at windows of
/// consecutive tree positions: the one tree-order filter of the clustered
/// walks. The neighbor search makes one cluster of each window's members;
/// the gravity solver cuts members() into groups of kClusterSize.
/// Grow-only, so a steady-state filter allocates nothing.
template<class Index>
class TreeOrderSubset
{
public:
    /// The particles listed in \p subset (any order; duplicates count
    /// once), in the order of \p order (a tree's order()), cut every
    /// \p window positions. Throws std::invalid_argument, naming
    /// \p caller, on an index >= order.size().
    void assign(std::span<const Index> order, std::span<const std::size_t> subset,
                std::size_t window, const char* caller)
    {
        marked_.assign(order.size(), 0);
        for (std::size_t i : subset)
        {
            if (i >= order.size())
            {
                throw std::invalid_argument(std::string(caller) + ": index " +
                                            std::to_string(i) + " out of range");
            }
            marked_[i] = 1;
        }
        members_.clear();
        starts_.clear();
        for (std::size_t first = 0; first < order.size(); first += window)
        {
            std::size_t before = members_.size();
            std::size_t last   = std::min(order.size(), first + window);
            for (std::size_t k = first; k < last; ++k)
                if (marked_[order[k]]) members_.push_back(order[k]);
            if (members_.size() > before) starts_.push_back(before);
        }
        starts_.push_back(members_.size());
    }

    /// The subset's particles in tree order.
    std::span<const Index> members() const { return members_; }
    /// Number of windows holding a member.
    std::size_t windows() const { return starts_.empty() ? 0 : starts_.size() - 1; }
    /// The members inside the w-th window that holds any.
    std::span<const Index> window(std::size_t w) const
    {
        return {members_.data() + starts_[w], starts_[w + 1] - starts_[w]};
    }

private:
    std::vector<std::uint8_t> marked_;
    std::vector<Index> members_;
    std::vector<std::size_t> starts_; ///< offset of each window's first member, then the end
};

/// Persistent scratch of the cluster search: per-worker candidate buffers
/// and the subset filter, which survive across steps, so a steady-state
/// search allocates nothing. Owned by a driver (like the AWF weight store)
/// and referenced by its StepContexts; a default-constructed workspace is
/// valid and warms up on first use.
template<class T>
struct ClusterWorkspace
{
    using Index = typename Octree<T>::Index;

    struct WorkerScratch
    {
        std::vector<Index> candidates; ///< candidate indices, traversal order
        std::vector<T>     cx, cy, cz; ///< packed candidate coordinates
        std::vector<T>     d2;         ///< per-candidate squared distances
        std::vector<Index> list;       ///< per-member neighbor staging
    };

    std::vector<WorkerScratch> workers;
    TreeOrderSubset<Index> subset; ///< a subset search's clusters

    /// Sweep statistics of the last search (diagnostics / bench output).
    std::size_t clusters = 0;
    std::size_t candidatesVisited = 0;
};

namespace detail {

/// The search over \p nClusters clusters, cluster c holding the particles
/// clusterOf(c): one loop iteration per cluster, which writes its members'
/// rows and no other. \p rows and \p everyRow open the fill
/// (NeighborList::beginFill).
template<class T, class ClusterOf>
void searchClusters(const Octree<T>& tree, std::span<const T> x, std::span<const T> y,
                    std::span<const T> z, std::span<const T> h, NeighborList<T>& nl,
                    ClusterWorkspace<T>& ws, std::size_t nClusters, ClusterOf clusterOf,
                    std::size_t rows, bool everyRow, const LoopPolicy& policy)
{
    using Index = typename Octree<T>::Index;

    ws.clusters          = nClusters;
    ws.candidatesVisited = 0;
    if (nClusters == 0) return;
    if (x.size() != tree.particleCount())
    {
        throw std::invalid_argument("findNeighborsClustered: tree built over " +
                                    std::to_string(tree.particleCount()) +
                                    " particles, arrays hold " + std::to_string(x.size()));
    }
    const Box<T>& box = tree.box();
    const auto& nodes = tree.nodes();
    const auto& order = tree.order();
    ws.workers.resize(WorkerPool::instance().size());

    // Periodic-wrap constants hoisted out of the member scan, shared with
    // the Simd backend tiles (backend/simd_tile.hpp): a non-periodic axis
    // gets an infinite half-width so its wrap selects never fire; a periodic
    // axis reproduces Box::delta exactly — same L/2 threshold, same single-
    // subtraction corrections, just expressed as selects so the inner loop
    // stays branch-free (and vectorizable).
    const backend::PeriodicWrap<T> wrap(box);

    std::vector<WorkerSlot<std::size_t>> visited(ws.workers.size());

    nl.beginFill(rows, everyRow);
    parallelFor(
        nClusters,
        [&](std::size_t c, std::size_t worker) {
            auto& scr                      = ws.workers[worker];
            std::span<const Index> members = clusterOf(c);

            // tight cluster AABB and the largest member support radius
            Vec3<T> lo{x[members[0]], y[members[0]], z[members[0]]};
            Vec3<T> hi = lo;
            T maxR     = T(0);
            for (Index i : members)
            {
                Vec3<T> p{x[i], y[i], z[i]};
                lo   = min(lo, p);
                hi   = max(hi, p);
                maxR = std::max(maxR, T(2) * h[i]);
            }
            T maxR2 = maxR * maxR;

            // one DFS per cluster, same stack discipline as the per-particle
            // walk so surviving leaves appear in the identical traversal order
            scr.candidates.clear();
            scr.cx.clear();
            scr.cy.clear();
            scr.cz.clear();
            Index stack[Octree<T>::walkStackSize];
            int   sp    = 0;
            stack[sp++] = 0;
            while (sp > 0)
            {
                const auto& nd = nodes[stack[--sp]];
                if (aabbDistanceSq(lo, hi, nd.lo, nd.hi, box) > maxR2) continue;
                if (nd.nChildren == 0)
                {
                    for (Index k = nd.first; k < nd.first + nd.count; ++k)
                    {
                        Index j = order[k];
                        Vec3<T> pj{x[j], y[j], z[j]};
                        // one point-box test here saves a point-point test
                        // per member below: a candidate farther than maxR
                        // from the cluster AABB can be accepted by no member
                        // (point-box <= the member's point-point distance
                        // under monotone FP rounding — the same conservative
                        // bound the per-particle walk's leaf pruning uses),
                        // and dropping it keeps the surviving candidates a
                        // subsequence in traversal order, preserving exact
                        // list equality. This trims the leaf-granularity
                        // overhang that would otherwise triple member scans.
                        if (distanceSqToBox(pj, lo, hi, box) > maxR2) continue;
                        scr.candidates.push_back(j);
                        scr.cx.push_back(pj.x);
                        scr.cy.push_back(pj.y);
                        scr.cz.push_back(pj.z);
                    }
                }
                else
                {
                    for (int ch = 0; ch < nd.nChildren; ++ch)
                        stack[sp++] = nd.child + Index(ch);
                }
            }
            visited[worker].value += scr.candidates.size();

            // Every member streams the packed candidate buffer in two
            // branch-free passes. Pass 1 computes the minimum-image squared
            // distance of every candidate: the wrap selects pick among the
            // identical FP values Box::delta's branches would produce, and
            // the sum keeps norm2's left-to-right association — so d2 is
            // bitwise the value the per-particle walk compares. Pass 2 is an
            // ordered compaction (write always, advance on accept) with the
            // walk's exact predicate, so accepted candidates land in
            // traversal order with no data-dependent branch. This is where
            // the cluster search beats the walk: the walk retests ~O(r^3)
            // scattered candidates per particle through branchy code, while
            // this loop streams a filtered contiguous buffer the whole
            // cluster shares.
            std::size_t nCand = scr.candidates.size();
            if (scr.d2.size() < nCand) scr.d2.resize(nCand);
            if (scr.list.size() < nCand) scr.list.resize(nCand);
            const T* cxp     = scr.cx.data();
            const T* cyp     = scr.cy.data();
            const T* czp     = scr.cz.data();
            const Index* cdp = scr.candidates.data();
            T* d2p           = scr.d2.data();
            Index* outp      = scr.list.data();
            for (Index i : members)
            {
                T pix    = x[i];
                T piy    = y[i];
                T piz    = z[i];
                T radius = T(2) * h[i];
                T r2     = radius * radius;
                for (std::size_t k = 0; k < nCand; ++k)
                {
                    T dx   = wrap.x(pix - cxp[k]);
                    T dy   = wrap.y(piy - cyp[k]);
                    T dz   = wrap.z(piz - czp[k]);
                    d2p[k] = dx * dx + dy * dy + dz * dz;
                }
                std::size_t cnt = 0;
                for (std::size_t k = 0; k < nCand; ++k)
                {
                    outp[cnt] = cdp[k];
                    cnt += std::size_t((d2p[k] < r2) & (cdp[k] != i));
                }
                nl.place(i, std::span<const Index>(outp, cnt), worker);
            }
        },
        policy);
    nl.endFill();

    for (const auto& v : visited)
        ws.candidatesVisited += v.value;
}

} // namespace detail

/// Fill the neighbor rows of every particle; self is excluded, and the
/// search radius of particle i is 2 h_i (kernel support). The arrays must
/// be the ones the tree was built over. Clusters are windows of
/// \p clusterSize consecutive tree.order() positions — tight in any
/// storage order, and runs of consecutive slots after phase L.
template<class T>
void findNeighborsClustered(const Octree<T>& tree, std::type_identity_t<std::span<const T>> x,
                            std::type_identity_t<std::span<const T>> y,
                            std::type_identity_t<std::span<const T>> z,
                            std::type_identity_t<std::span<const T>> h, NeighborList<T>& nl,
                            ClusterWorkspace<T>& ws, unsigned clusterSize,
                            const LoopPolicy& policy = {})
{
    using Index       = typename Octree<T>::Index;
    const auto& order = tree.order();
    std::size_t n     = order.size();
    std::size_t m     = std::max(1u, clusterSize);
    detail::searchClusters<T>(
        tree, x, y, z, h, nl, ws, (n + m - 1) / m,
        [&](std::size_t c) {
            return std::span<const Index>(order.data() + c * m, std::min(m, n - c * m));
        },
        n, n == nl.size(), policy);
}

/// Fill the rows of the particles in \p subset only (any order); every
/// other row keeps its list. Each window of \p clusterSize tree positions
/// makes one cluster of the subset members inside it, and each member's
/// row is the one the all-particle search gives it. An empty subset fills
/// nothing: it is no particles, not all of them (StepContext::skipEmptyWalk).
/// Throws std::invalid_argument on an index >= the tree's particle count.
template<class T>
void findNeighborsClustered(const Octree<T>& tree, std::type_identity_t<std::span<const T>> x,
                            std::type_identity_t<std::span<const T>> y,
                            std::type_identity_t<std::span<const T>> z,
                            std::type_identity_t<std::span<const T>> h,
                            std::span<const std::size_t> subset, NeighborList<T>& nl,
                            ClusterWorkspace<T>& ws, unsigned clusterSize,
                            const LoopPolicy& policy = {})
{
    ws.subset.assign(tree.order(), subset, std::max(1u, clusterSize), "findNeighborsClustered");
    detail::searchClusters<T>(
        tree, x, y, z, h, nl, ws, ws.subset.windows(),
        [&](std::size_t c) { return ws.subset.window(c); }, ws.subset.members().size(), false,
        policy);
}

} // namespace sphexa
