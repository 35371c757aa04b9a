#pragma once

/// \file neighbor_oracle.hpp
/// Test oracle of phases B and C: the per-particle tree walks that the
/// cluster search of tree/cluster_list.hpp replaced — the Global tree walk
/// (every particle) and the Individual tree walk (a subset, ChaNGa-style)
/// of the paper's Tables 1/2 — plus the O(N^2) brute force. Each particle
/// walks the tree alone, prunes a node by its point-box distance and
/// accepts j != i with |x_i - x_j|^2 < (2 h_i)^2 (minimum image), leaves in
/// depth-first order. The cluster search must give every row entry for
/// entry (tests/test_cluster_list.cpp); bench_neighbors times it as the
/// per-particle baseline. mergedRows writes out the rows phase H sums
/// after phase D: each row followed by its kept missing-pair bucket.

#include <cstddef>
#include <span>
#include <type_traits>
#include <vector>

#include "domain/box.hpp"
#include "math/vec.hpp"
#include "parallel/parallel_for.hpp"
#include "tree/neighbors.hpp"
#include "tree/octree.hpp"

namespace sphexa::oracle {

/// Visit every particle within \p radius of \p pos (minimum image in
/// periodic boxes): f(particle index, squared distance), leaves in DFS
/// order. \p x, \p y, \p z are the positions the tree was built over.
template<class T, class F>
void forEachNeighbor(const Octree<T>& tree, std::span<const T> x, std::span<const T> y,
                     std::span<const T> z, const Vec3<T>& pos, T radius, F&& f)
{
    using Index        = typename Octree<T>::Index;
    const auto& nodes  = tree.nodes();
    const auto& order  = tree.order();
    const Box<T>& box  = tree.box();
    if (nodes.empty() || order.empty()) return;
    T r2 = radius * radius;
    Index stack[Octree<T>::walkStackSize];
    int   sp    = 0;
    stack[sp++] = 0;
    while (sp > 0)
    {
        const auto& nd = nodes[stack[--sp]];
        if (distanceSqToBox(pos, nd.lo, nd.hi, box) > r2) continue;
        if (nd.nChildren == 0)
        {
            for (Index k = nd.first; k < nd.first + nd.count; ++k)
            {
                Index j   = order[k];
                T   dist2 = norm2(box.delta(pos, Vec3<T>{x[j], y[j], z[j]}));
                if (dist2 < r2) f(j, dist2);
            }
        }
        else
        {
            for (int c = 0; c < nd.nChildren; ++c)
                stack[sp++] = nd.child + Index(c);
        }
    }
}

/// The rows of particles indexOf(0..count) by their own walks, one fill.
template<class T, class IndexOf>
void walkRows(const Octree<T>& tree, std::span<const T> x, std::span<const T> y,
              std::span<const T> z, std::span<const T> h, std::size_t count, IndexOf indexOf,
              NeighborList<T>& nl, bool everyRow, const LoopPolicy& policy)
{
    using Index = typename Octree<T>::Index;
    std::vector<std::vector<Index>> scratch(parallelForWorkers());
    nl.beginFill(count, everyRow);
    parallelFor(
        count,
        [&](std::size_t a, std::size_t w) {
            std::size_t i = indexOf(a);
            auto& row     = scratch[w];
            row.clear();
            forEachNeighbor(tree, x, y, z, Vec3<T>{x[i], y[i], z[i]}, T(2) * h[i],
                            [&](Index j, T) {
                                if (j != Index(i)) row.push_back(j);
                            });
            nl.place(i, row, w);
        },
        policy);
    nl.endFill();
}

/// The Global tree walk: one walk per particle, every row.
template<class T>
void findNeighborsGlobal(const Octree<T>& tree, std::type_identity_t<std::span<const T>> x,
                         std::type_identity_t<std::span<const T>> y,
                         std::type_identity_t<std::span<const T>> z,
                         std::type_identity_t<std::span<const T>> h, NeighborList<T>& nl,
                         const LoopPolicy& policy = {})
{
    std::size_t n = x.size();
    walkRows<T>(tree, x, y, z, h, n, [](std::size_t i) { return i; }, nl, n == nl.size(),
                policy);
}

/// The Individual tree walk: one walk per particle of \p active only; the
/// other rows keep their lists.
template<class T>
void findNeighborsIndividual(const Octree<T>& tree, std::type_identity_t<std::span<const T>> x,
                             std::type_identity_t<std::span<const T>> y,
                             std::type_identity_t<std::span<const T>> z,
                             std::type_identity_t<std::span<const T>> h,
                             std::span<const std::size_t> active, NeighborList<T>& nl,
                             const LoopPolicy& policy = {})
{
    walkRows<T>(tree, x, y, z, h, active.size(), [&](std::size_t a) { return active[a]; }, nl,
                false, policy);
}

/// O(N^2) brute force: every pair tested, no tree.
template<class T>
void findNeighborsBruteForce(std::type_identity_t<std::span<const T>> x,
                             std::type_identity_t<std::span<const T>> y,
                             std::type_identity_t<std::span<const T>> z,
                             std::type_identity_t<std::span<const T>> h, const Box<T>& box,
                             NeighborList<T>& nl)
{
    using Index = typename Octree<T>::Index;
    std::size_t n = x.size();
    std::vector<std::vector<Index>> scratch(parallelForWorkers());
    nl.beginFill(n, n == nl.size());
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
        nl.place(i, local, w);
    });
    nl.endFill();
}

/// A copy of \p nl whose row i is row i followed by its kept bucket of
/// \p pairs (MissingPairs::kept), written with set(): the pair-symmetric
/// lists phase H sums. The copy keeps \p nl's overflow count.
template<class T>
NeighborList<T> mergedRows(const NeighborList<T>& nl, const MissingPairs<T>& pairs)
{
    NeighborList<T> out = nl;
    std::vector<typename NeighborList<T>::Index> row;
    for (std::size_t i = 0; i < nl.size(); ++i)
    {
        auto extra = pairs.kept(nl, i);
        if (extra.empty()) continue;
        row.assign(nl.row(i).begin(), nl.row(i).end());
        row.insert(row.end(), extra.begin(), extra.end());
        out.set(i, row);
    }
    return out;
}

} // namespace sphexa::oracle
