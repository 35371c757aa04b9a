#pragma once

/// \file octree.hpp
/// SFC-ordered octree over the particle set.
///
/// Step 1 of the paper's Algorithm 1 ("Build tree"). Particles are sorted by
/// a space-filling-curve key (Morton or Hilbert); octree nodes are key
/// ranges, so every node's particles are contiguous in the sorted order and
/// every subtree is a contiguous slice — the property both the neighbor walk
/// (step 2) and the SFC domain decomposition rely on.
///
/// The key pass runs in parallel above 4096 particles; the node split is
/// serial, as SPHYNX v1.3.1's phase A was (idle threads in the paper's
/// Fig. 4). Splitting the root's subtrees in parallel measured no faster
/// from 5.6k to 1e6 particles, so the split stays serial.
///
/// Neighbor queries over the built tree live in tree/cluster_list.hpp; the
/// SFC keys are defined in tree/morton.hpp and tree/hilbert.hpp
/// (docs/ARCHITECTURE.md §3).

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>
#include <vector>

#include "domain/box.hpp"
#include "parallel/parallel_for.hpp"
#include "tree/hilbert.hpp"
#include "tree/morton.hpp"

namespace sphexa {

template<class T>
class Octree
{
public:
    using KeyType = std::uint64_t;
    using Index   = std::uint32_t;

    static constexpr int maxDepth = sfcBitsPerDim; // 21

    /// Stack capacity of every depth-first walk over the tree (the cluster
    /// search, the gravity walk, the tests' per-particle oracles). Internal
    /// nodes sit at depths 0..maxDepth-1, and expanding one pops it and
    /// pushes at most 8 children, so a walk holds at most 1 + 7 * maxDepth
    /// pending nodes.
    static constexpr std::size_t walkStackSize = 1 + 7 * maxDepth;

    struct Node
    {
        Vec3<T> lo{};        ///< tight AABB of contained particles
        Vec3<T> hi{};
        Index first{0};      ///< first particle (in SFC order) in this node
        Index count{0};      ///< number of particles in this node
        Index child{0};      ///< index of first child node; 0 for leaves
        std::uint8_t nChildren{0};
        std::uint8_t depth{0};
    };

    struct BuildParams
    {
        unsigned leafSize = 64; ///< max particles per leaf
        SfcCurve curve    = SfcCurve::Morton;
    };

    Octree() = default;

    /// Build the tree over the given positions. Positions are NOT modified;
    /// the SFC permutation is available via order().
    void build(std::span<const T> x, std::span<const T> y, std::span<const T> z,
               const Box<T>& box, const BuildParams& params = {})
    {
        n_      = x.size();
        box_    = box;
        params_ = params;

        keys_.resize(n_);
        order_.resize(n_);

        // parallel key pass above the small-N threshold (slot-i writes, so
        // the result is identical for any pool size); serial below it
        if (n_ > 4096)
        {
            parallelFor(n_, [&](std::size_t i, std::size_t) {
                keys_[i] = sfcKey(params.curve, Vec3<T>{x[i], y[i], z[i]}, box);
            });
        }
        else
        {
            for (std::size_t i = 0; i < n_; ++i)
                keys_[i] = sfcKey(params.curve, Vec3<T>{x[i], y[i], z[i]}, box);
        }

        // (key, index) order. Phase L leaves key ties in id order
        // (SfcSorter), so a set that stores its ties in id order, as the
        // initial conditions do, and its sorted copy give the same tree
        // order of ids. After phase L the keys are already in order and the
        // identity is exactly this order, so the sort is skipped.
        std::iota(order_.begin(), order_.end(), Index(0));
        if (!std::is_sorted(keys_.begin(), keys_.end()))
        {
            std::sort(order_.begin(), order_.end(), [&](Index a, Index b) {
                return keys_[a] != keys_[b] ? keys_[a] < keys_[b] : a < b;
            });
        }

        sortedKeys_.resize(n_);
        for (std::size_t i = 0; i < n_; ++i)
            sortedKeys_[i] = keys_[order_[i]];

        nodes_.clear();
        nodes_.reserve(2 * n_ / std::max(1u, params.leafSize) + 64);
        nodes_.push_back(Node{{}, {}, 0, Index(n_), 0, 0, 0});
        if (n_ > params.leafSize) buildBelow(0, 0);

        computeAabbs(x, y, z);
    }

    std::size_t particleCount() const { return n_; }
    std::size_t nodeCount() const { return nodes_.size(); }
    const Node& node(Index i) const { return nodes_[i]; }
    const std::vector<Node>& nodes() const { return nodes_; }

    /// Particle indices in SFC order: order()[k] is the original index of the
    /// k-th particle along the curve.
    const std::vector<Index>& order() const { return order_; }

    /// SFC key of original particle i.
    KeyType key(Index i) const { return keys_[i]; }
    const std::vector<KeyType>& sortedKeys() const { return sortedKeys_; }

    const Box<T>& box() const { return box_; }

    int depth() const
    {
        std::uint8_t d = 0;
        for (const auto& nd : nodes_)
            d = std::max(d, nd.depth);
        return d;
    }

private:
    /// Depth-first build of the subtree below nodes_[nodeIdx], whose first
    /// SFC key is \p keyBase: its non-empty octants are appended as
    /// consecutive nodes and linked to it, then each child that needs
    /// splitting (more than leafSize particles, less than maxDepth deep) is
    /// built in octant order, so its subtree follows its siblings.
    void buildBelow(Index nodeIdx, KeyType keyBase)
    {
        const Index first = nodes_[nodeIdx].first;
        const Index last  = first + nodes_[nodeIdx].count;
        const int   depth = nodes_[nodeIdx].depth;
        // Key width of one child octant at this depth.
        KeyType childWidth = KeyType(1) << (3 * (maxDepth - depth - 1));

        Index childStart = Index(nodes_.size());
        Index split[8]{};
        KeyType splitBase[8]{};
        int nSplit = 0;
        Index segFirst = first;
        for (int c = 0; c < 8; ++c)
        {
            KeyType upper = keyBase + KeyType(c + 1) * childWidth;
            Index segLast;
            if (c == 7) { segLast = last; }
            else
            {
                auto it = std::lower_bound(sortedKeys_.begin() + segFirst,
                                           sortedKeys_.begin() + last, upper);
                segLast = Index(it - sortedKeys_.begin());
            }
            if (segLast > segFirst)
            {
                Node child;
                child.first = segFirst;
                child.count = segLast - segFirst;
                child.depth = std::uint8_t(depth + 1);
                Index childIdx = Index(nodes_.size());
                nodes_.push_back(child);
                if (child.count > params_.leafSize && depth + 1 < maxDepth)
                {
                    split[nSplit]       = childIdx;
                    splitBase[nSplit++] = keyBase + KeyType(c) * childWidth;
                }
            }
            segFirst = segLast;
        }
        nodes_[nodeIdx].child     = childStart;
        nodes_[nodeIdx].nChildren = std::uint8_t(nodes_.size() - childStart);
        for (int i = 0; i < nSplit; ++i)
            buildBelow(split[i], splitBase[i]);
    }

    void computeAabbs(std::span<const T> x, std::span<const T> y, std::span<const T> z)
    {
        // Children are always stored after their parent, so a reverse sweep
        // sees children before parents.
        for (std::size_t i = nodes_.size(); i-- > 0;)
        {
            Node& nd = nodes_[i];
            if (nd.nChildren == 0)
            {
                Vec3<T> lo{std::numeric_limits<T>::max(), std::numeric_limits<T>::max(),
                           std::numeric_limits<T>::max()};
                Vec3<T> hi{std::numeric_limits<T>::lowest(), std::numeric_limits<T>::lowest(),
                           std::numeric_limits<T>::lowest()};
                for (Index k = nd.first; k < nd.first + nd.count; ++k)
                {
                    Index j = order_[k];
                    Vec3<T> p{x[j], y[j], z[j]};
                    lo = min(lo, p);
                    hi = max(hi, p);
                }
                if (nd.count == 0) { lo = hi = box_.center(); }
                nd.lo = lo;
                nd.hi = hi;
            }
            else
            {
                Vec3<T> lo = nodes_[nd.child].lo;
                Vec3<T> hi = nodes_[nd.child].hi;
                for (int c = 1; c < nd.nChildren; ++c)
                {
                    lo = min(lo, nodes_[nd.child + c].lo);
                    hi = max(hi, nodes_[nd.child + c].hi);
                }
                nd.lo = lo;
                nd.hi = hi;
            }
        }
    }

    std::size_t n_{0};
    Box<T>      box_{};
    BuildParams params_{};

    std::vector<KeyType> keys_;       ///< key per original particle index
    std::vector<KeyType> sortedKeys_; ///< keys in SFC order
    std::vector<Index>   order_;      ///< SFC permutation
    std::vector<Node>    nodes_;
};

} // namespace sphexa
