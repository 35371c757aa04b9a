#pragma once

/// \file cluster_list.hpp
/// Cluster (pseudo-Verlet) neighbor search: the "cluster" half of the
/// sorted-reorder + cluster subsystem (tree/sfc_sort.hpp), and the one
/// Global search of the pipeline (phase B after the phase L reorder).
///
/// Fixed-size runs of consecutive SFC-sorted particles form clusters with
/// tight AABBs. Instead of one octree walk per particle (findNeighborsGlobal
/// in tree/neighbors.hpp), the search walks the tree once per CLUSTER:
/// nodes are pruned by cluster-AABB-to-node-AABB distance against the
/// cluster's largest support radius, surviving leaves are gathered into a
/// packed candidate buffer, and every member then scans that contiguous
/// buffer — amortizing the traversal over clusterSize particles and turning
/// the scattered per-leaf gathers into dense streaming loops (Gonnet's
/// sorted cell-pair lists, arXiv:1404.2303; Shamrock's cluster pipeline,
/// arXiv:2503.09713).
///
/// Output equivalence is EXACT, not just set-equal: candidate leaves are
/// visited in the same depth-first order as Octree::forEachNeighbor and
/// members test candidates with the same predicate, and since box-box
/// pruning distances never exceed the member's point-box distances
/// (aabbDistanceSq, domain/box.hpp), every leaf a per-particle walk visits
/// survives cluster pruning. Each particle therefore receives the same
/// neighbor indices in the same order as findNeighborsGlobal — so every
/// downstream SPH sum is bitwise what the per-particle walk would give
/// (lists gated by tests/test_cluster_list.cpp, the step end to end by
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
#include <span>
#include <type_traits>
#include <vector>

#include "backend/simd_tile.hpp"
#include "domain/box.hpp"
#include "parallel/parallel_for.hpp"
#include "tree/neighbors.hpp"
#include "tree/octree.hpp"

namespace sphexa {

/// Particles per cluster of the Global search: large enough to amortize one
/// tree traversal, small enough to keep the cluster's candidate superset
/// tight (~2x the per-particle candidates at 32).
inline constexpr unsigned kClusterSize = 32;

/// Persistent scratch of the cluster search: per-worker candidate buffers
/// that survive across steps, so a steady-state search allocates nothing.
/// Owned by a driver (like the AWF weight store) and referenced by its
/// StepContexts; a default-constructed workspace is valid and warms up on
/// first use.
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

    /// Sweep statistics of the last search (diagnostics / bench output).
    std::size_t clusters = 0;
    std::size_t candidatesVisited = 0;
};

/// Fill neighbor lists for all particles via cluster interaction lists.
/// Drop-in replacement for findNeighborsGlobal over the same octree: the
/// arrays must be the ones the tree was built over. Clusters are runs of
/// \p clusterSize consecutive particles — tight when the set is SFC-sorted
/// (tree/sfc_sort.hpp), merely suboptimal when it is not.
template<class T>
void findNeighborsClustered(const Octree<T>& tree, std::type_identity_t<std::span<const T>> x,
                            std::type_identity_t<std::span<const T>> y,
                            std::type_identity_t<std::span<const T>> z,
                            std::type_identity_t<std::span<const T>> h, NeighborList<T>& nl,
                            ClusterWorkspace<T>& ws, unsigned clusterSize,
                            const LoopPolicy& policy = {})
{
    using Index = typename Octree<T>::Index;

    std::size_t n = x.size();
    if (n == 0) return;
    std::size_t m         = std::max(1u, clusterSize);
    std::size_t nClusters = (n + m - 1) / m;
    const Box<T>& box     = tree.box();
    const auto& nodes     = tree.nodes();
    const auto& order     = tree.order();

    ws.workers.resize(WorkerPool::instance().size());
    ws.clusters = nClusters;

    // Periodic-wrap constants hoisted out of the member scan, shared with
    // the Simd backend tiles (backend/simd_tile.hpp): a non-periodic axis
    // gets an infinite half-width so its wrap selects never fire; a periodic
    // axis reproduces Box::delta exactly — same L/2 threshold, same single-
    // subtraction corrections, just expressed as selects so the inner loop
    // stays branch-free (and vectorizable).
    const backend::PeriodicWrap<T> wrap(box);

    std::vector<WorkerSlot<std::size_t>> visited(ws.workers.size());

    nl.beginFill(n, n == nl.size());
    parallelFor(
        nClusters,
        [&](std::size_t c, std::size_t worker) {
            auto& scr         = ws.workers[worker];
            std::size_t first = c * m;
            std::size_t last  = std::min(n, first + m);

            // tight cluster AABB and the largest member support radius
            Vec3<T> lo{x[first], y[first], z[first]};
            Vec3<T> hi = lo;
            T maxR     = T(0);
            for (std::size_t i = first; i < last; ++i)
            {
                Vec3<T> p{x[i], y[i], z[i]};
                lo   = min(lo, p);
                hi   = max(hi, p);
                maxR = std::max(maxR, T(2) * h[i]);
            }
            T maxR2 = maxR * maxR;

            // one DFS per cluster, same stack discipline as forEachNeighbor
            // so surviving leaves appear in the identical traversal order
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
                        // one point-box test here saves clusterSize point-
                        // point tests below: a candidate farther than maxR
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
            for (std::size_t i = first; i < last; ++i)
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
                    cnt += std::size_t((d2p[k] < r2) & (cdp[k] != Index(i)));
                }
                nl.place(i, std::span<const Index>(outp, cnt), worker);
            }
        },
        policy);
    nl.endFill();

    ws.candidatesVisited = 0;
    for (const auto& v : visited)
        ws.candidatesVisited += v.value;
}

} // namespace sphexa
