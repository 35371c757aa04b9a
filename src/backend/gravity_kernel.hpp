#pragma once

/// \file gravity_kernel.hpp
/// The lane tiles of phase I (self-gravity): one tile holds kLaneWidth
/// members of a target group, and every source of the group's interaction
/// list — an accepted multipole (M2P) or a leaf particle (P2P) — is
/// broadcast to all lanes. The group walk that builds the lists lives in
/// tree/gravity.hpp.
///
/// Lanes run over members, never over sources: each lane's acceleration
/// and potential are a plain sequential sum over the group's list order
/// (accepted multipoles first, then leaf particles, each in DFS order).
/// So a member's result depends on the list alone, not on the lane width,
/// the vector ISA, the pool size or the scheduling strategy, and gravity
/// needs no KernelBackend dispatch. A short last tile repeats its last
/// member; the caller discards the repeated lanes.

#include <cmath>
#include <cstddef>

#include "backend/simd_tile.hpp"
#include "tree/multipole.hpp"

namespace sphexa::backend {

/// One tile of group members: positions and particle indices in, per-lane
/// sums out (zero until a source stream adds to them). Member indices are
/// 64-bit so the P2P self-exclusion compare has the width of the double
/// lanes beside it, which keeps the lane loop vectorizable.
template<class T>
struct GravityTile
{
    static constexpr std::size_t W = kLaneWidth;

    std::size_t i[W];
    T x[W], y[W], z[W];
    T ax[W] = {}, ay[W] = {}, az[W] = {}, pot[W] = {};
    std::size_t valid; ///< members in lanes [0, valid); the rest repeat the last

    /// Load members[base, base + W) of a group of \p count members.
    template<class Index>
    GravityTile(const Index* members, std::size_t base, std::size_t count, const T* px,
                const T* py, const T* pz)
        : valid(count - base < W ? count - base : W)
    {
        for (std::size_t l = 0; l < W; ++l)
        {
            i[l] = members[base + (l < valid ? l : valid - 1)];
            x[l] = px[i[l]];
            y[l] = py[i[l]];
            z[l] = pz[i[l]];
        }
    }
};

/// M2P of the accepted multipoles mps[nodes[0..n)] at monopole or
/// quadrupole order: per lane, the closed form of evaluateMultipole
/// (tree/multipole.hpp). A monopole-order multipole has zero moments, so
/// its quadrupole terms add exact zeros. No member lies in an accepted
/// node's box, so r2 > 0 on every lane.
template<class T, class Index>
inline void m2pQuadrupole(GravityTile<T>& t, const Multipole<T>* mps, const Index* nodes,
                          std::size_t n)
{
    constexpr std::size_t W = GravityTile<T>::W;
    for (std::size_t k = 0; k < n; ++k)
    {
        const Multipole<T>& mp = mps[nodes[k]];
        const T M  = mp.mass;
        const T cx = mp.com.x, cy = mp.com.y, cz = mp.com.z;
        const T qxx = mp.q2(0, 0), qxy = mp.q2(0, 1), qxz = mp.q2(0, 2);
        const T qyy = mp.q2(1, 1), qyz = mp.q2(1, 2), qzz = mp.q2(2, 2);
        const T trQ = qxx + qyy + qzz;
        for (std::size_t l = 0; l < W; ++l)
        {
            T sx   = t.x[l] - cx;
            T sy   = t.y[l] - cy;
            T sz   = t.z[l] - cz;
            T r2   = sx * sx + sy * sy + sz * sz;
            T inv  = T(1) / std::sqrt(r2);
            T inv2 = inv * inv;
            T inv3 = inv2 * inv;
            T inv5 = inv3 * inv2;
            T inv7 = inv5 * inv2;
            T qsx  = qxx * sx + qxy * sy + qxz * sz;
            T qsy  = qxy * sx + qyy * sy + qyz * sz;
            T qsz  = qxz * sx + qyz * sy + qzz * sz;
            T sQs  = sx * qsx + sy * qsy + sz * qsz;
            T a15  = T(-15) * sQs * inv7;
            T a3   = T(3) * inv5;
            t.pot[l] -= M * inv;
            t.pot[l] -= T(0.5) * (T(3) * sQs - r2 * trQ) * inv5;
            t.ax[l] -= sx * (M * inv3);
            t.ay[l] -= sy * (M * inv3);
            t.az[l] -= sz * (M * inv3);
            t.ax[l] += T(0.5) * (a15 * sx + a3 * (trQ * sx + T(2) * qsx));
            t.ay[l] += T(0.5) * (a15 * sy + a3 * (trQ * sy + T(2) * qsy));
            t.az[l] += T(0.5) * (a15 * sz + a3 * (trQ * sz + T(2) * qsz));
        }
    }
}

/// M2P at octupole or hexadecapole order: evaluateMultipole per member
/// over the same accepted list (the generic tensor contraction has no lane
/// form). Only the valid lanes are evaluated.
template<class T, class Index>
inline void m2pHighOrder(GravityTile<T>& t, const Multipole<T>* mps, const Index* nodes,
                         std::size_t n, MultipoleOrder order)
{
    for (std::size_t l = 0; l < t.valid; ++l)
    {
        Vec3<T> p{t.x[l], t.y[l], t.z[l]};
        Vec3<T> acc{t.ax[l], t.ay[l], t.az[l]};
        T pot = t.pot[l];
        for (std::size_t k = 0; k < n; ++k)
        {
            const Multipole<T>& mp = mps[nodes[k]];
            evaluateMultipole(mp, p - mp.com, order, acc, pot);
        }
        t.ax[l]  = acc.x;
        t.ay[l]  = acc.y;
        t.az[l]  = acc.z;
        t.pot[l] = pot;
    }
}

/// P2P of the particles of leaves nodeList[0..n) (each node's slots
/// [first, first + count) of the tree order \p order), read in place from
/// x/y/z/m, with Plummer softening eps2. Self-exclusion is a 0/1
/// multiplier: it scales the source mass and sets r2 to 1 for the self
/// pair, which is exact because r2 is finite. One square root and one
/// division per pair.
template<class T, class Index, class Node>
inline void p2p(GravityTile<T>& t, const Node* nodes, const Index* nodeList, std::size_t n,
                const Index* order, const T* x, const T* y, const T* z, const T* m, T eps2)
{
    constexpr std::size_t W = GravityTile<T>::W;
    // local copies: the sources are read through pointers that could alias
    // the tile, which would keep the sums in memory between sources
    std::size_t ti[W];
    T tx[W], ty[W], tz[W], ax[W], ay[W], az[W], pot[W];
    for (std::size_t l = 0; l < W; ++l)
    {
        ti[l]  = t.i[l];
        tx[l]  = t.x[l];
        ty[l]  = t.y[l];
        tz[l]  = t.z[l];
        ax[l]  = t.ax[l];
        ay[l]  = t.ay[l];
        az[l]  = t.az[l];
        pot[l] = t.pot[l];
    }
    for (std::size_t k = 0; k < n; ++k)
    {
        const Node& nd = nodes[nodeList[k]];
        for (std::size_t s = nd.first; s < std::size_t(nd.first) + nd.count; ++s)
        {
            const std::size_t j = order[s];
            const T sx = x[j], sy = y[j], sz = z[j], sm = m[j];
            for (std::size_t l = 0; l < W; ++l)
            {
                T keep = T(ti[l] != j);
                T dx   = tx[l] - sx;
                T dy   = ty[l] - sy;
                T dz   = tz[l] - sz;
                T r2   = dx * dx + dy * dy + dz * dz + eps2;
                r2     = keep * r2 + (T(1) - keep);
                T mj   = keep * sm;
                T invR = T(1) / std::sqrt(r2);
                T f    = mj * invR * invR * invR;
                ax[l] -= f * dx;
                ay[l] -= f * dy;
                az[l] -= f * dz;
                pot[l] -= mj * invR;
            }
        }
    }
    for (std::size_t l = 0; l < W; ++l)
    {
        t.ax[l]  = ax[l];
        t.ay[l]  = ay[l];
        t.az[l]  = az[l];
        t.pot[l] = pot[l];
    }
}

} // namespace sphexa::backend
