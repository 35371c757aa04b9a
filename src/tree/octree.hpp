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
/// The build is sequential by default, mirroring the SPHYNX v1.3.1 behaviour
/// the paper's Extrae analysis exposed (serial phase A with idle threads,
/// Fig. 4); a task-parallel build is available as the "improved" variant
/// (BuildParams::parallelBuild), and Octree.ParallelBuildEquivalent in
/// tests/test_tree.cpp checks that it builds the same tree.
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
        unsigned leafSize = 64;             ///< max particles per leaf
        SfcCurve curve    = SfcCurve::Morton;
        bool     parallelBuild = false;     ///< task-parallel subtree builds
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
        if (n_ > params.leafSize)
        {
            if (params.parallelBuild)
                buildParallel();
            else
                buildBelow(nodes_, 0, 0);
        }

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

    std::size_t leafCount() const
    {
        std::size_t c = 0;
        for (const auto& nd : nodes_)
            if (nd.nChildren == 0) ++c;
        return c;
    }

    int depth() const
    {
        std::uint8_t d = 0;
        for (const auto& nd : nodes_)
            d = std::max(d, nd.depth);
        return d;
    }

private:
    /// A node still to be split: its index and the SFC key its octant
    /// starts at.
    struct Pending
    {
        Index   node;
        KeyType base;
    };

    /// The children of one split that still need splitting: more than
    /// leafSize particles, less than maxDepth deep.
    struct Split
    {
        Pending child[8];
        int     count = 0;
    };

    /// Split out[nodeIdx] into its non-empty octants: appends them to \p out
    /// as consecutive nodes, links the parent to them, and returns those
    /// that need splitting further. \p keyBase is the node's first key.
    Split splitNode(std::vector<Node>& out, Index nodeIdx, KeyType keyBase) const
    {
        const Index first = out[nodeIdx].first;
        const Index last  = first + out[nodeIdx].count;
        const int   depth = out[nodeIdx].depth;
        // Key width of one child octant at this depth.
        KeyType childWidth = KeyType(1) << (3 * (maxDepth - depth - 1));

        Index childStart = Index(out.size());
        Split split;
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
                Index childIdx = Index(out.size());
                out.push_back(child);
                if (child.count > params_.leafSize && depth + 1 < maxDepth)
                {
                    split.child[split.count++] = {childIdx, keyBase + KeyType(c) * childWidth};
                }
            }
            segFirst = segLast;
        }
        out[nodeIdx].child     = childStart;
        out[nodeIdx].nChildren = std::uint8_t(out.size() - childStart);
        return split;
    }

    /// Depth-first serial build of the subtree below out[nodeIdx]: every
    /// node's children are consecutive, and each child's subtree follows
    /// its siblings in octant order.
    void buildBelow(std::vector<Node>& out, Index nodeIdx, KeyType keyBase) const
    {
        Split split = splitNode(out, nodeIdx, keyBase);
        for (int i = 0; i < split.count; ++i)
            buildBelow(out, split.child[i].node, split.child[i].base);
    }

    /// Task-parallel build: split the root, build each root child's subtree
    /// into its own vector (nodes_ must not reallocate under concurrent
    /// writers), then splice the subtrees in octant order, which gives the
    /// serial build's node array.
    void buildParallel()
    {
        Split split = splitNode(nodes_, 0, 0);
        std::vector<std::vector<Node>> subtrees(split.count);
        LoopPolicy taskPolicy;
        taskPolicy.strategy = SchedulingStrategy::SelfScheduling; // 1 subtree per chunk
        parallelFor(std::size_t(split.count), [&](std::size_t i, std::size_t) {
            // index 0 is a placeholder copy of the subtree's root
            subtrees[i] = {nodes_[split.child[i].node]};
            buildBelow(subtrees[i], 0, split.child[i].base);
        }, taskPolicy);
        for (int i = 0; i < split.count; ++i)
        {
            spliceSubtree(split.child[i].node, subtrees[i]);
        }
    }

    /// Splice a detached subtree under \p attachAt: subtree node 0 replaces
    /// the attach node; remaining nodes are appended with shifted indices.
    void spliceSubtree(Index attachAt, const std::vector<Node>& sub)
    {
        if (sub.size() <= 1) return;
        Index base = Index(nodes_.size());
        // Subtree root's children start at sub index 1 -> global base.
        Node root = sub[0];
        nodes_[attachAt].child     = base + root.child - 1;
        nodes_[attachAt].nChildren = root.nChildren;
        for (std::size_t i = 1; i < sub.size(); ++i)
        {
            Node nd = sub[i];
            if (nd.nChildren > 0) nd.child = base + nd.child - 1;
            nodes_.push_back(nd);
        }
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
