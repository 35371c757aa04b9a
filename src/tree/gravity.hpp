#pragma once

/// \file gravity.hpp
/// Barnes-Hut self-gravity (step 4 of Algorithm 1), O(N log N): the solver
/// SPH "naturally couples with" per the paper's introduction.
///
/// Per-node multipoles (tree/multipole.hpp) are accepted under the classic
/// geometric multipole-acceptance criterion size/d < theta; rejected nodes
/// are opened, leaves fall back to direct particle-particle sums with
/// Plummer softening. The expansion order is a runtime parameter so the
/// SPHYNX (4-pole) and ChaNGa (16-pole) configurations of Table 1 both map
/// onto this solver.

#include <cmath>
#include <span>
#include <vector>

#include "parallel/parallel_for.hpp"
#include "sph/particles.hpp"
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
    /// contributes to its ~depth ancestors).
    void prepare(const Octree<T>& tree, const ParticleSet<T>& ps, const GravityParams<T>& params)
    {
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
    /// non-empty, only those particles receive forces (the distributed
    /// driver's per-rank walk and the workload probe use this).
    T accumulate(ParticleSet<T>& ps, GravityStats* stats = nullptr,
                 std::span<const std::size_t> targets = {},
                 const LoopPolicy& policy = {SchedulingStrategy::Guided})
    {
        std::size_t count = targets.empty() ? ps.size() : targets.size();

        // Exact reduction, pool-size invariant: each target's potential
        // contribution lands in slot k and the slots are summed serially in
        // index order afterwards, so the total is bitwise identical for any
        // pool size and scheduling strategy (the interaction COUNTS are
        // integers, so per-worker slots suffice for them).
        potScratch_.assign(count, T(0));
        std::size_t nw = parallelForWorkers();
        std::vector<WorkerSlot<GravityStats>> counts(nw);

        parallelFor(count, [&](std::size_t k, std::size_t w) {
            std::size_t i = targets.empty() ? k : targets[k];
            Vec3<T> acc{};
            T pot = T(0);
            walk(ps, i, acc, pot, counts[w].value.p2pInteractions,
                 counts[w].value.m2pInteractions);
            ps.ax[i] += params_.G * acc.x;
            ps.ay[i] += params_.G * acc.y;
            ps.az[i] += params_.G * acc.z;
            potScratch_[k] = T(0.5) * ps.m[i] * params_.G * pot;
        }, policy);

        T totalPot = T(0);
        for (std::size_t k = 0; k < count; ++k)
            totalPot += potScratch_[k];

        if (stats)
        {
            stats->p2pInteractions = 0;
            stats->m2pInteractions = 0;
            for (const auto& c : counts)
            {
                stats->p2pInteractions += c.value.p2pInteractions;
                stats->m2pInteractions += c.value.m2pInteractions;
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
    void walk(ParticleSet<T>& ps, std::size_t i, Vec3<T>& acc, T& pot, std::size_t& p2p,
              std::size_t& m2p) const
    {
        const Octree<T>& tree = *tree_;
        Vec3<T> pi{ps.x[i], ps.y[i], ps.z[i]};
        T eps2 = params_.softening * params_.softening;

        Index stack[Octree<T>::walkStackSize];
        int   sp    = 0;
        stack[sp++] = 0;
        while (sp > 0)
        {
            Index nIdx = stack[--sp];
            const auto& nd = tree.node(nIdx);
            if (nd.count == 0) continue;

            const Multipole<T>& mp = multipoles_[nIdx];
            Vec3<T> s = pi - mp.com;
            T d2 = norm2(s);
            Vec3<T> ext = nd.hi - nd.lo;
            T size = std::max({ext.x, ext.y, ext.z});

            // multipole acceptance: geometric MAC, and the target must lie
            // outside the node's bounding box (inside forces opening)
            bool inside = pi.x >= nd.lo.x && pi.x <= nd.hi.x && pi.y >= nd.lo.y &&
                          pi.y <= nd.hi.y && pi.z >= nd.lo.z && pi.z <= nd.hi.z;
            bool accept = !inside && d2 > T(0) &&
                          size * size < params_.theta * params_.theta * d2;
            if (accept)
            {
                evaluateMultipole(mp, s, params_.order, acc, pot);
                ++m2p;
            }
            else if (nd.nChildren == 0)
            {
                // leaf: direct sum
                for (Index k = nd.first; k < nd.first + nd.count; ++k)
                {
                    Index j = tree.order()[k];
                    if (j == Index(i)) continue;
                    Vec3<T> d = pi - Vec3<T>{ps.x[j], ps.y[j], ps.z[j]};
                    T r2 = norm2(d) + eps2;
                    T invR = T(1) / std::sqrt(r2);
                    acc -= ps.m[j] * (invR / r2) * d;
                    pot -= ps.m[j] * invR;
                    ++p2p;
                }
            }
            else
            {
                for (int c = 0; c < nd.nChildren; ++c)
                {
                    stack[sp++] = nd.child + Index(c);
                }
            }
        }
    }

    const Octree<T>* tree_{nullptr};
    GravityParams<T> params_{};
    std::vector<Multipole<T>> multipoles_;
    std::vector<T> potScratch_; ///< per-target potential slots (exact reduction)
};

} // namespace sphexa
