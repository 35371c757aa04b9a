#pragma once

/// \file gravity_oracle.hpp
/// Test oracle of phase I: the per-particle Barnes-Hut walk that the group
/// walk of tree/gravity.hpp replaced, verbatim, over a prepared solver's
/// multipoles, plus its driver. Each target walks the tree alone and
/// accepts a node when it lies outside the node's box and
/// size/d(target, com) < theta. tests/test_gravity.cpp checks that the group
/// walk is no less accurate than this walk against the direct sum.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "math/vec.hpp"
#include "parallel/parallel_for.hpp"
#include "sph/particles.hpp"
#include "tree/gravity.hpp"
#include "tree/multipole.hpp"
#include "tree/octree.hpp"

namespace sphexa::oracle {

/// One target's walk: acceleration and potential of particle i (G = 1).
template<class T>
void gravityWalk(const Octree<T>& tree, const GravitySolver<T>& solver,
                 const GravityParams<T>& params, const ParticleSet<T>& ps, std::size_t i,
                 Vec3<T>& acc, T& pot, std::size_t& p2p, std::size_t& m2p)
{
    using Index = typename Octree<T>::Index;
    Vec3<T> pi{ps.x[i], ps.y[i], ps.z[i]};
    T eps2 = params.softening * params.softening;

    Index stack[Octree<T>::walkStackSize];
    int   sp    = 0;
    stack[sp++] = 0;
    while (sp > 0)
    {
        Index nIdx = stack[--sp];
        const auto& nd = tree.node(nIdx);
        if (nd.count == 0) continue;

        const Multipole<T>& mp = solver.nodeMultipole(nIdx);
        Vec3<T> s = pi - mp.com;
        T d2 = norm2(s);
        Vec3<T> ext = nd.hi - nd.lo;
        T size = std::max({ext.x, ext.y, ext.z});

        // multipole acceptance: geometric MAC, and the target must lie
        // outside the node's bounding box (inside forces opening)
        bool inside = pi.x >= nd.lo.x && pi.x <= nd.hi.x && pi.y >= nd.lo.y &&
                      pi.y <= nd.hi.y && pi.z >= nd.lo.z && pi.z <= nd.hi.z;
        bool accept = !inside && d2 > T(0) &&
                      size * size < params.theta * params.theta * d2;
        if (accept)
        {
            evaluateMultipole(mp, s, params.order, acc, pot);
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

/// The removed driver: one walk per particle on the pool; accelerations
/// are added to ax/ay/az, and the total potential 1/2 sum m_i phi_i is
/// summed from per-particle slots in index order and returned.
template<class T>
T gravityAccumulate(const Octree<T>& tree, const GravitySolver<T>& solver,
                    const GravityParams<T>& params, ParticleSet<T>& ps,
                    GravityStats* stats = nullptr)
{
    std::size_t n = ps.size();
    std::vector<T> pots(n, T(0));
    std::vector<WorkerSlot<GravityStats>> counts(parallelForWorkers());
    parallelFor(n, [&](std::size_t i, std::size_t w) {
        Vec3<T> acc{};
        T pot = T(0);
        gravityWalk(tree, solver, params, ps, i, acc, pot, counts[w].value.p2pInteractions,
                    counts[w].value.m2pInteractions);
        ps.ax[i] += params.G * acc.x;
        ps.ay[i] += params.G * acc.y;
        ps.az[i] += params.G * acc.z;
        pots[i] = T(0.5) * ps.m[i] * params.G * pot;
    });

    T totalPot = T(0);
    for (std::size_t i = 0; i < n; ++i)
        totalPot += pots[i];
    if (stats)
    {
        *stats = {};
        for (const auto& c : counts)
        {
            stats->p2pInteractions += c.value.p2pInteractions;
            stats->m2pInteractions += c.value.m2pInteractions;
        }
    }
    return totalPot;
}

} // namespace sphexa::oracle
