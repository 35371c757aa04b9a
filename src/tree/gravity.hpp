#pragma once

/// \file gravity.hpp
/// Barnes-Hut self-gravity (step 4 of Algorithm 1), O(N log N): the solver
/// SPH "naturally couples with" per the paper's introduction.
///
/// Per-node multipoles (tree/multipole.hpp) are accepted under a geometric
/// multipole-acceptance criterion; rejected nodes are opened, and leaves
/// fall back to direct particle-particle sums with Plummer softening. The
/// expansion order is a runtime parameter so the SPHYNX (4-pole) and
/// ChaNGa (16-pole) configurations of Table 1 both map onto this solver.
///
/// The tree is walked once per GROUP of kClusterSize consecutive targets in
/// the tree's SFC order, as ChaNGa walks once per bucket (Barnes 1990). A
/// node is accepted for the whole group only when its box is disjoint from
/// the group's AABB and size < theta * d(com, group AABB). Every member
/// lies in that AABB, so each member's own test would accept the node too:
/// a member only ever sees finer sources than its own walk would, and at
/// equal theta its force error is typically lower. The group's interaction
/// list — accepted nodes, then leaves, each in DFS order — is evaluated for
/// the members kLaneWidth at a time by the lane tiles of
/// backend/gravity_kernel.hpp. Groups come from tree order, not storage
/// order, so a set and any permutation of it get the same groups and the
/// same bits (docs/ARCHITECTURE.md §5).

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "backend/gravity_kernel.hpp"
#include "parallel/parallel_for.hpp"
#include "sph/particles.hpp"
#include "tree/cluster_list.hpp"
#include "tree/multipole.hpp"
#include "tree/octree.hpp"

namespace sphexa {

template<class T>
struct GravityParams
{
    T G = T(1);                  ///< gravitational constant
    T theta = T(0.5);            ///< opening angle (MAC)
    T softening = T(0);          ///< Plummer softening length
    MultipoleOrder order = MultipoleOrder::Quadrupole;
};

/// Work statistics of a gravity solve (feeds the cluster simulator).
struct GravityStats
{
    std::size_t p2pInteractions = 0; ///< direct particle pairs evaluated
    std::size_t m2pInteractions = 0; ///< node multipole evaluations
};

/// Gravity solver bound to an octree built over the particle set.
template<class T>
class GravitySolver
{
public:
    using Index = typename Octree<T>::Index;

    /// Precompute per-node multipoles (direct P2M per node; each particle
    /// contributes to its ~depth ancestors). The tree must be built over
    /// exactly the particles of \p ps.
    void prepare(const Octree<T>& tree, const ParticleSet<T>& ps, const GravityParams<T>& params)
    {
        requireSameSet(tree, ps, "prepare");
        tree_   = &tree;
        params_ = params;
        std::size_t nNodes = tree.nodeCount();
        multipoles_.resize(nNodes);

        const auto& order = tree.order();
        LoopPolicy policy;
        policy.strategy = SchedulingStrategy::Guided; // node cost ~ particle count
        parallelFor(nNodes, [&](std::size_t nIdx, std::size_t) {
            const auto& nd = tree.node(Index(nIdx));
            multipoles_[nIdx] =
                computeMultipole<T>(ps.x, ps.y, ps.z, ps.m,
                                    std::span<const Index>(order.data() + nd.first, nd.count),
                                    params_.order);
        }, policy);
    }

    /// Accumulate gravitational acceleration into ax/ay/az and return the
    /// total potential energy U = 1/2 sum m_i phi_i. When \p targets is
    /// non-empty, only those particles receive forces (the binned step's
    /// active set, the workload probe's per-rank sets). Either way the
    /// targets are taken in tree order and cut into groups of kClusterSize,
    /// one loop iteration per group.
    T accumulate(ParticleSet<T>& ps, GravityStats* stats = nullptr,
                 std::span<const std::size_t> targets = {},
                 const LoopPolicy& policy = {SchedulingStrategy::Guided})
    {
        if (!tree_) throw std::logic_error("GravitySolver::accumulate before prepare");
        const Octree<T>& tree = *tree_;
        requireSameSet(tree, ps, "accumulate");

        // the targets in tree order: the tree's own order for all
        // particles, else the subset filter the neighbor search shares
        std::span<const Index> members = tree.order();
        if (!targets.empty())
        {
            targets_.assign(tree.order(), targets, kClusterSize, "GravitySolver::accumulate");
            members = targets_.members();
        }
        std::size_t count   = members.size();
        std::size_t nGroups = (count + kClusterSize - 1) / kClusterSize;

        // Exact reduction, pool-size invariant: each target's potential
        // contribution lands in its tree-order slot and the slots are summed
        // serially afterwards, so the total is bitwise identical for any
        // pool size and scheduling strategy (the interaction COUNTS are
        // integers, so per-worker slots suffice for them).
        potScratch_.assign(count, T(0));
        lists_.resize(parallelForWorkers());
        for (auto& s : lists_)
            s.value.counts = {};

        const T eps2 = params_.softening * params_.softening;
        parallelFor(nGroups, [&](std::size_t g, std::size_t w) {
            WorkerLists& s = lists_[w].value;
            std::size_t first = g * kClusterSize;
            std::size_t n     = std::min<std::size_t>(kClusterSize, count - first);
            const Index* group = members.data() + first;
            walkGroup(ps, group, n, s);

            std::size_t leafParticles = 0;
            for (Index leaf : s.leaves)
                leafParticles += tree.node(leaf).count;
            // every member's own leaf is on the list: its self pair is skipped
            s.counts.p2pInteractions += n * (leafParticles - 1);
            s.counts.m2pInteractions += n * s.accepted.size();

            for (std::size_t base = 0; base < n; base += backend::kLaneWidth)
            {
                backend::GravityTile<T> t(group, base, n, ps.x.data(), ps.y.data(),
                                          ps.z.data());
                backend::m2p(t, multipoles_.data(), s.accepted.data(), s.accepted.size(),
                             params_.order);
                backend::p2p(t, tree.nodes().data(), s.leaves.data(), s.leaves.size(),
                             tree.order().data(), ps.x.data(), ps.y.data(), ps.z.data(),
                             ps.m.data(), eps2);
                for (std::size_t l = 0; l < t.valid; ++l)
                {
                    std::size_t i = t.i[l];
                    ps.ax[i] += params_.G * t.ax[l];
                    ps.ay[i] += params_.G * t.ay[l];
                    ps.az[i] += params_.G * t.az[l];
                    potScratch_[first + base + l] = T(0.5) * ps.m[i] * params_.G * t.pot[l];
                }
            }
        }, policy);

        T totalPot = T(0);
        for (std::size_t k = 0; k < count; ++k)
            totalPot += potScratch_[k];

        if (stats)
        {
            stats->p2pInteractions = 0;
            stats->m2pInteractions = 0;
            for (const auto& s : lists_)
            {
                stats->p2pInteractions += s.value.counts.p2pInteractions;
                stats->m2pInteractions += s.value.counts.m2pInteractions;
            }
        }
        return totalPot;
    }

    /// Reference O(N^2) direct sum (tests, ablation baseline). Returns the
    /// total potential energy; accelerations go to ax/ay/az (overwritten).
    static T directSum(ParticleSet<T>& ps, const GravityParams<T>& params)
    {
        std::size_t n = ps.size();
        T eps2 = params.softening * params.softening;
        // per-particle potential slots + serial index-order sum: bitwise
        // identical total for any pool size (same idiom as accumulate())
        std::vector<T> pots(n, T(0));

        parallelFor(n, [&](std::size_t i, std::size_t) {
            Vec3<T> pi{ps.x[i], ps.y[i], ps.z[i]};
            Vec3<T> acc{};
            T pot = T(0);
            for (std::size_t j = 0; j < n; ++j)
            {
                if (j == i) continue;
                Vec3<T> d = pi - Vec3<T>{ps.x[j], ps.y[j], ps.z[j]};
                T r2   = norm2(d) + eps2;
                T invR = T(1) / std::sqrt(r2);
                T invR3 = invR / r2;
                acc -= ps.m[j] * invR3 * d;
                pot -= ps.m[j] * invR;
            }
            ps.ax[i] = params.G * acc.x;
            ps.ay[i] = params.G * acc.y;
            ps.az[i] = params.G * acc.z;
            pots[i] = T(0.5) * ps.m[i] * params.G * pot;
        });

        T totalPot = T(0);
        for (std::size_t i = 0; i < n; ++i)
            totalPot += pots[i];
        return totalPot;
    }

    const Multipole<T>& nodeMultipole(Index n) const { return multipoles_[n]; }

private:
    /// One worker's interaction list of the group it is walking: node
    /// indices only, since sources are read in place.
    struct WorkerLists
    {
        std::vector<Index> accepted; ///< accepted multipoles, DFS order
        std::vector<Index> leaves;   ///< opened leaves, DFS order
        GravityStats counts;
    };

    static void requireSameSet(const Octree<T>& tree, const ParticleSet<T>& ps,
                               const char* where)
    {
        if (tree.particleCount() != ps.size())
        {
            throw std::invalid_argument(std::string("GravitySolver::") + where +
                                        ": tree built over " +
                                        std::to_string(tree.particleCount()) +
                                        " particles, set holds " +
                                        std::to_string(ps.size()));
        }
    }

    /// Walk the tree once for the group members[0..n): a node is accepted
    /// when its box is disjoint from the group's AABB and
    /// size^2 < theta^2 * d^2(com, AABB); an unaccepted leaf goes to the
    /// leaf list, an unaccepted internal node is opened.
    void walkGroup(const ParticleSet<T>& ps, const Index* members, std::size_t n,
                   WorkerLists& s) const
    {
        const Octree<T>& tree = *tree_;
        Vec3<T> lo{ps.x[members[0]], ps.y[members[0]], ps.z[members[0]]};
        Vec3<T> hi = lo;
        for (std::size_t k = 1; k < n; ++k)
        {
            Index i = members[k];
            lo = {std::min(lo.x, ps.x[i]), std::min(lo.y, ps.y[i]), std::min(lo.z, ps.z[i])};
            hi = {std::max(hi.x, ps.x[i]), std::max(hi.y, ps.y[i]), std::max(hi.z, ps.z[i])};
        }
        const T theta2 = params_.theta * params_.theta;

        s.accepted.clear();
        s.leaves.clear();
        Index stack[Octree<T>::walkStackSize];
        int   sp    = 0;
        stack[sp++] = 0;
        while (sp > 0)
        {
            Index nIdx = stack[--sp];
            const auto& nd = tree.node(nIdx);
            if (nd.count == 0) continue;

            bool disjoint = nd.hi.x < lo.x || nd.lo.x > hi.x || nd.hi.y < lo.y ||
                            nd.lo.y > hi.y || nd.hi.z < lo.z || nd.lo.z > hi.z;
            bool accept = false;
            if (disjoint)
            {
                const Vec3<T>& c = multipoles_[nIdx].com;
                auto gap = [](T p, T l, T h) { return p < l ? l - p : (p > h ? p - h : T(0)); };
                Vec3<T> d{gap(c.x, lo.x, hi.x), gap(c.y, lo.y, hi.y), gap(c.z, lo.z, hi.z)};
                Vec3<T> ext = nd.hi - nd.lo;
                T size = std::max({ext.x, ext.y, ext.z});
                accept = size * size < theta2 * norm2(d);
            }
            if (accept) s.accepted.push_back(nIdx);
            else if (nd.nChildren == 0) s.leaves.push_back(nIdx);
            else
            {
                for (int c = 0; c < nd.nChildren; ++c)
                    stack[sp++] = nd.child + Index(c);
            }
        }
    }

    const Octree<T>* tree_{nullptr};
    GravityParams<T> params_{};
    std::vector<Multipole<T>> multipoles_;
    std::vector<T> potScratch_; ///< per-target potential slots, tree order (exact reduction)
    std::vector<WorkerSlot<WorkerLists>> lists_; ///< per-worker interaction lists
    TreeOrderSubset<Index> targets_; ///< a subset call's targets in tree order
};

} // namespace sphexa
