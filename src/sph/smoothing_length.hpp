#pragma once

/// \file smoothing_length.hpp
/// Smoothing-length adaptation (step 2 of Algorithm 1: "Find neighbors and
/// smoothing length").
///
/// "The simulation will try to reach a given target number of neighbors and
/// this influences the value of the resulting smoothing length" (paper,
/// footnote 2). Each particle's h is iterated until its neighbor count is
/// within tolerance of the target (~10^2 per the paper), re-searching only
/// the non-converged particles each pass: a subset call of the cluster
/// search (tree/cluster_list.hpp), one tree walk per tree-order window that
/// holds an unconverged particle, each row the one its own walk would give.

#include <cmath>
#include <cstddef>
#include <type_traits>
#include <vector>

#include "parallel/parallel_for.hpp"
#include "sph/particles.hpp"
#include "tree/cluster_list.hpp"
#include "tree/neighbors.hpp"
#include "tree/octree.hpp"

namespace sphexa {

template<class T>
struct SmoothingLengthParams
{
    unsigned targetNeighbors = 100; ///< ~10^2 neighbors (paper Sec. 3)
    unsigned tolerance       = 5;   ///< acceptable |count - target|
    unsigned maxIterations   = 10;
    T minH = T(1e-12);
};

struct SmoothingLengthResult
{
    unsigned iterations   = 0; ///< passes actually performed
    std::size_t unconverged = 0; ///< particles still out of tolerance
};

/// Is neighbor count \p c within tolerance of the target?
inline bool neighborCountConverged(unsigned c, unsigned target, unsigned tolerance)
{
    return c + tolerance >= target && c <= target + tolerance;
}

/// One multiplicative h update driving the count toward the target:
///     h <- h * 0.5 * (1 + cbrt(target / count)),
/// a damped fixed-point step (count scales ~ h^3).
template<class T>
T updateH(T h, unsigned count, unsigned target)
{
    T c = T(count > 0 ? count : 1);
    return h * T(0.5) * (T(1) + std::cbrt(T(target) / c));
}

/// Iterate h and neighbor lists to convergence. The octree must already be
/// built over current positions; it is reused (h changes don't move
/// particles). On return, nl holds lists consistent with the final h.
/// Every search runs through \p ws, the driver's cluster workspace.
///
/// With an empty \p subset, all particles are iterated and (unless
/// \p reuseLists says the caller just filled nl for the current h) an
/// initial all-particle search happens inside. A non-empty subset
/// restricts the iteration to those indices (a distributed rank's owned
/// particles, a binned step's active set) and always assumes current
/// lists — both drivers then follow the exact same h path. Every loop, the
/// h update and both searches, runs under \p policy, so its stats sink
/// sees the whole phase.
template<class T>
SmoothingLengthResult
updateSmoothingLengths(ParticleSet<T>& ps, const Octree<T>& tree, NeighborList<T>& nl,
                       ClusterWorkspace<T>& ws, const SmoothingLengthParams<T>& params = {},
                       std::type_identity_t<std::span<const std::size_t>> subset = {},
                       bool reuseLists = false, const LoopPolicy& policy = {})
{
    std::size_t n = subset.empty() ? ps.size() : subset.size();
    auto target   = [&](std::size_t k) { return subset.empty() ? k : subset[k]; };
    if (subset.empty() && !reuseLists)
    {
        findNeighborsClustered(tree, ps.x, ps.y, ps.z, ps.h, nl, ws, kClusterSize, policy);
    }

    SmoothingLengthResult res;
    std::vector<std::size_t> active;
    active.reserve(n);

    for (unsigned it = 0; it < params.maxIterations; ++it)
    {
        active.clear();
        for (std::size_t k = 0; k < n; ++k)
        {
            std::size_t i = target(k);
            unsigned c = nl.count(i);
            ps.nc[i]   = int(c);
            if (!neighborCountConverged(c, params.targetNeighbors, params.tolerance))
            {
                active.push_back(i);
            }
        }
        if (active.empty()) break;

        ++res.iterations;
        parallelFor(
            active.size(),
            [&](std::size_t a, std::size_t) {
                std::size_t i = active[a];
                ps.h[i] = std::max(params.minH,
                                   updateH(ps.h[i], nl.count(i), params.targetNeighbors));
            },
            policy);

        findNeighborsClustered(tree, ps.x, ps.y, ps.z, ps.h, active, nl, ws, kClusterSize,
                               policy);
    }

    for (std::size_t k = 0; k < n; ++k)
    {
        std::size_t i = target(k);
        unsigned c = nl.count(i);
        ps.nc[i]   = int(c);
        if (!neighborCountConverged(c, params.targetNeighbors, params.tolerance))
        {
            ++res.unconverged;
        }
    }
    return res;
}

/// Initial h estimate for roughly uniform particle distributions: the radius
/// enclosing the target number of neighbors in a uniform density field.
template<class T>
T initialSmoothingLength(std::size_t nParticles, const Box<T>& box, unsigned targetNeighbors)
{
    T volPerParticle = box.volume() / T(nParticles);
    // (4/3) pi (2h)^3 * n / V = target  =>  h = 0.5 * cbrt(3 target V / (4 pi n))
    T r = std::cbrt(T(3) * T(targetNeighbors) * volPerParticle /
                    (T(4) * std::numbers::pi_v<T>));
    return T(0.5) * r;
}

} // namespace sphexa
