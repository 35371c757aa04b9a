#pragma once

/// \file deepest_tree.hpp
/// The particle set of maximal tree depth, shared by the walk tests of
/// test_tree.cpp and test_cluster_list.cpp.

#include <cstddef>
#include <vector>

#include "sph/particles.hpp"
#include "tree/octree.hpp"

namespace sphexa {

/// A Morton tree of maximal depth whose walks fill their whole stack: at
/// each of the maxDepth internal levels one particle sits in each octant
/// but the high (+x,+y,+z) one, which holds the rest and is pushed last, so
/// a walk that opens every node keeps 7 siblings pending per level. The
/// last cell holds more than a leaf but lies at maxDepth, where splitting
/// stops. h = 1 makes every support radius cover the unit box. 217
/// particles in the unit box, ids in slot order.
inline ParticleSetD deepestTreeCloud()
{
    std::vector<double> x, y, z;
    double lo = 0.0, size = 1.0;
    for (int level = 0; level < Octree<double>::maxDepth; ++level)
    {
        double half = size / 2;
        for (int octant = 0; octant < 7; ++octant)
        {
            x.push_back(lo + ((octant & 4) ? half : 0.0) + half / 2);
            y.push_back(lo + ((octant & 2) ? half : 0.0) + half / 2);
            z.push_back(lo + ((octant & 1) ? half : 0.0) + half / 2);
        }
        lo += half;
        size = half;
    }
    for (int k = 0; k < 70; ++k)
    {
        double t = lo + (k + 0.5) / 70 * size;
        x.push_back(t);
        y.push_back(t);
        z.push_back(t);
    }
    ParticleSetD ps(x.size());
    for (std::size_t i = 0; i < x.size(); ++i)
    {
        ps.x[i]  = x[i];
        ps.y[i]  = y[i];
        ps.z[i]  = z[i];
        ps.h[i]  = 1.0;
        ps.id[i] = i;
    }
    return ps;
}

} // namespace sphexa
