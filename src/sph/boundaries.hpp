#pragma once

/// \file boundaries.hpp
/// Mirror ghost-particle solid boundaries for the free-surface scenarios.
///
/// The astro test cases of the paper are wall-free (periodic or open), but
/// the CFD parent's scenarios — dam break, tank sloshing — need solid walls.
/// The classic WCSPH treatment mirrors every fluid particle that lies
/// within the kernel support of a wall across that wall: the ghost carries
/// the same mass, smoothing length and thermodynamic state, so the density
/// sum sees a full neighborhood at the wall and the pressure force pushes
/// the fluid back symmetrically. Corners reflect across every non-empty
/// subset of the nearby walls (face, edge and corner ghosts).
///
/// Lifecycle (wired in core/propagator.hpp as phase K):
///   ghostCreate -> ghosts appended at the TAIL of the ParticleSet, before
///                  the tree build so they participate in neighbor search;
///   ghostRemove -> tail truncated after the force phases, so integration,
///                  conservation and I/O only ever see real particles.
///
/// Ghost positions may land outside the global box; that is safe: SFC keys
/// clamp to the boundary cells (tree/morton.hpp) and tree-walk pruning uses
/// the tight node AABBs, not the box.

#include <array>
#include <cstddef>
#include <vector>

#include "domain/box.hpp"
#include "sph/particles.hpp"

namespace sphexa {

/// Velocity condition a solid wall imposes on its mirror ghosts.
enum class WallCondition
{
    FreeSlip, ///< normal velocity negated, tangential kept (inviscid wall)
    NoSlip,   ///< full velocity negated (viscous wall at rest)
};

/// Which faces of the global box are solid walls, and how ghosts mirror
/// across them. Part of SimulationConfig; all-false (the default) keeps
/// every pipeline wall-free.
template<class T>
struct BoundaryConfig
{
    std::array<bool, 3> wallLo{{false, false, false}}; ///< x/y/z low faces
    std::array<bool, 3> wallHi{{false, false, false}}; ///< x/y/z high faces
    WallCondition condition = WallCondition::FreeSlip;
    /// Ghost band width as a multiple of each particle's smoothing length
    /// (2 = the full kernel support radius).
    T bandFactor = T(2);

    bool anyWall() const
    {
        return wallLo[0] || wallLo[1] || wallLo[2] || wallHi[0] || wallHi[1] || wallHi[2];
    }
};

/// Append mirror ghosts for every real particle within its ghost band of a
/// configured wall; returns the number appended. Deterministic (serial,
/// particle-order) so runs are bitwise identical across worker-pool sizes.
template<class T>
std::size_t appendMirrorGhosts(ParticleSet<T>& ps, const Box<T>& box,
                               const BoundaryConfig<T>& bc)
{
    if (!bc.anyWall()) return 0;

    struct Wall
    {
        int axis;
        T pos;
    };
    std::vector<Wall> walls;
    for (int ax = 0; ax < 3; ++ax)
    {
        if (bc.wallLo[ax]) walls.push_back({ax, box.lo[ax]});
        if (bc.wallHi[ax]) walls.push_back({ax, box.hi[ax]});
    }

    std::vector<T>* pos[3] = {&ps.x, &ps.y, &ps.z};
    std::vector<T>* vel[3] = {&ps.vx, &ps.vy, &ps.vz};

    std::size_t nReal = ps.size();
    for (std::size_t i = 0; i < nReal; ++i)
    {
        T band = bc.bandFactor * ps.h[i];
        Wall near[6];
        int nNear = 0;
        for (const Wall& w : walls)
        {
            if (std::abs((*pos[w.axis])[i] - w.pos) < band) near[nNear++] = w;
        }
        // every non-empty subset of the nearby walls: single walls give the
        // face ghosts, pairs the edge ghosts, triples the corner ghost
        for (int mask = 1; mask < (1 << nNear); ++mask)
        {
            ps.appendFrom(ps, i);
            std::size_t g = ps.size() - 1;
            for (int b = 0; b < nNear; ++b)
            {
                if (!(mask & (1 << b))) continue;
                int ax          = near[b].axis;
                (*pos[ax])[g]   = T(2) * near[b].pos - (*pos[ax])[g];
                (*vel[ax])[g]   = -(*vel[ax])[g]; // normal component reflects
            }
            if (bc.condition == WallCondition::NoSlip)
            {
                // wall at rest: the full mirrored velocity opposes the fluid
                ps.vx[g] = -ps.vx[i];
                ps.vy[g] = -ps.vy[i];
                ps.vz[g] = -ps.vz[i];
            }
        }
    }
    return ps.size() - nReal;
}

/// Drop the \p nGhosts tail particles appended by appendMirrorGhosts.
template<class T>
void removeGhosts(ParticleSet<T>& ps, std::size_t nGhosts)
{
    ps.resize(ps.size() - nGhosts);
}

} // namespace sphexa
