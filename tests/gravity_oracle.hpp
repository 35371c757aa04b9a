#pragma once

/// \file gravity_oracle.hpp
/// Test oracles of phase I.
///
/// The M2P oracle: evaluateMultipole contracts a node's raw moments with
/// the derivative tensors of 1/s (ranks 1-5) through the generic
/// symmetric-index helpers, as src/ did before each order became one closed
/// form (backend::m2p in backend/gravity_kernel.hpp). tests/test_gravity.cpp
/// checks the closed forms against it: bitwise at monopole and quadrupole
/// order, within 1e-12 relative above.
///
/// The walk oracle: the per-particle Barnes-Hut walk that the group walk of
/// tree/gravity.hpp replaced, over a prepared solver's multipoles, plus its
/// driver. Each target walks the tree alone and accepts a node when it lies
/// outside the node's box and size/d(target, com) < theta; an accepted node
/// is evaluated by the shipped per-target M2P, so the two walks differ only
/// in their lists. tests/test_gravity.cpp checks that the group walk is no
/// less accurate than this walk against the direct sum.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "backend/gravity_kernel.hpp"
#include "math/vec.hpp"
#include "parallel/parallel_for.hpp"
#include "sph/particles.hpp"
#include "tree/gravity.hpp"
#include "tree/multipole.hpp"
#include "tree/octree.hpp"

namespace sphexa::oracle {

/// Symmetric rank-2 storage index for sorted (i <= j).
constexpr int sym2Index(int i, int j)
{
    // (0,0) (0,1) (0,2) (1,1) (1,2) (2,2) -> 0..5
    if (i > j) { int t = i; i = j; j = t; }
    constexpr int base[3] = {0, 3, 5};
    return base[i] + (j - i);
}

/// Symmetric rank-3 storage index: 10 entries for sorted (i <= j <= k).
constexpr int sym3Index(int i, int j, int k)
{
    int a = i, b = j, c = k;
    if (a > b) { int t = a; a = b; b = t; }
    if (b > c) { int t = b; b = c; c = t; }
    if (a > b) { int t = a; a = b; b = t; }
    // enumerate sorted triples over {0,1,2}:
    // (000)(001)(002)(011)(012)(022)(111)(112)(122)(222)
    if (a == 0)
    {
        if (b == 0) return c;          // 000,001,002 -> 0,1,2
        if (b == 1) return 2 + c;      // 011->3, 012->4
        return 5;                      // 022
    }
    if (a == 1)
    {
        if (b == 1) return 5 + c;      // 111->6, 112->7
        return 8;                      // 122
    }
    return 9;                          // 222
}

/// Symmetric rank-4 storage index: 15 entries for sorted (i<=j<=k<=l).
constexpr int sym4Index(int i, int j, int k, int l)
{
    int v[4] = {i, j, k, l};
    // tiny insertion sort
    for (int a = 1; a < 4; ++a)
    {
        int key = v[a], b = a - 1;
        while (b >= 0 && v[b] > key)
        {
            v[b + 1] = v[b];
            --b;
        }
        v[b + 1] = key;
    }
    // enumerate the 15 sorted quadruples over {0,1,2}:
    // 0000 0001 0002 0011 0012 0022 0111 0112 0122 0222 1111 1112 1122 1222 2222
    int a = v[0], b = v[1], c = v[2], d = v[3];
    if (a == 0)
    {
        if (b == 0)
        {
            if (c == 0) return d;              // 0000..0002 -> 0..2
            if (c == 1) return 2 + d;          // 0011->3 0012->4
            return 5;                          // 0022
        }
        if (b == 1)
        {
            if (c == 1) return 5 + d;          // 0111->6 0112->7
            return 8;                          // 0122
        }
        return 9;                              // 0222
    }
    if (a == 1)
    {
        if (b == 1)
        {
            if (c == 1) return 9 + d;          // 1111->10 1112->11
            return 12;                         // 1122
        }
        return 13;                             // 1222
    }
    return 14;                                 // 2222
}

template<class T>
T q2(const Multipole<T>& mp, int i, int j)
{
    return mp.q[sym2Index(i, j)];
}

template<class T>
T o3(const Multipole<T>& mp, int i, int j, int k)
{
    return mp.o[sym3Index(i, j, k)];
}

template<class T>
T h4(const Multipole<T>& mp, int i, int j, int k, int l)
{
    return mp.hx[sym4Index(i, j, k, l)];
}

template<class T>
T d4Tensor(const Vec3<T>& s, T r2, T inv9, int i, int j, int k, int l);
template<class T>
T d5Tensor(const Vec3<T>& s, T r2, T inv11, int i, int j, int k, int l, int m);

/// Gravitational field (acceleration and potential) of a multipole at
/// displacement s = r_target - com. G = 1 units; scale externally.
template<class T>
void evaluateMultipole(const Multipole<T>& mp, const Vec3<T>& s, MultipoleOrder order,
                       Vec3<T>& acc, T& pot)
{
    T r2   = norm2(s);
    T r    = std::sqrt(r2);
    T inv  = T(1) / r;
    T inv2 = inv * inv;
    T inv3 = inv2 * inv;
    T inv5 = inv3 * inv2;
    T inv7 = inv5 * inv2;

    // monopole
    pot -= mp.mass * inv;
    acc -= s * (mp.mass * inv3);
    if (order == MultipoleOrder::Monopole) return;

    // quadrupole, closed form with raw moments:
    //   phi_Q  = -(1/2) (3 sQs - r^2 trQ) / r^5
    //   acc_Q  = +(1/2) [ -15 sQs s / r^7 + 3 (trQ s + 2 Qs) / r^5 ]   (as -grad phi)
    {
        Vec3<T> Qs{q2(mp, 0, 0) * s.x + q2(mp, 0, 1) * s.y + q2(mp, 0, 2) * s.z,
                   q2(mp, 1, 0) * s.x + q2(mp, 1, 1) * s.y + q2(mp, 1, 2) * s.z,
                   q2(mp, 2, 0) * s.x + q2(mp, 2, 1) * s.y + q2(mp, 2, 2) * s.z};
        T sQs = dot(s, Qs);
        T trQ = q2(mp, 0, 0) + q2(mp, 1, 1) + q2(mp, 2, 2);
        pot -= T(0.5) * (T(3) * sQs - r2 * trQ) * inv5;
        acc += T(0.5) * (T(-15) * sQs * inv7 * s + T(3) * inv5 * (trQ * s + T(2) * Qs));
    }
    if (order == MultipoleOrder::Quadrupole) return;

    T inv9  = inv7 * inv2;
    T inv11 = inv9 * inv2;

    // octupole: phi_O = +(1/6) O_jkl D3_jkl ... with Taylor sign (-1)^3:
    // phi = -G sum_n ((-1)^n / n!) Moment_n . D_n; for n=3 the sign is -1/6.
    // D3_jkl = -(15 s_j s_k s_l - 3 r^2 (s_j d_kl + s_k d_jl + s_l d_jk)) / r^7
    {
        // contract O with D3 (potential) and with D4 (acceleration)
        T o_d3 = T(0);
        Vec3<T> o_d4{};
        for (int j = 0; j < 3; ++j)
            for (int k = 0; k < 3; ++k)
                for (int l = 0; l < 3; ++l)
                {
                    T ojkl = o3(mp, j, k, l);
                    if (ojkl == T(0)) continue;
                    // D3
                    T t = T(15) * s[j] * s[k] * s[l];
                    T dterm = T(0);
                    if (k == l) dterm += s[j];
                    if (j == l) dterm += s[k];
                    if (j == k) dterm += s[l];
                    T d3 = -(t - T(3) * r2 * dterm) * inv7;
                    o_d3 += ojkl * d3;
                    // D4_ijkl for each i
                    for (int i = 0; i < 3; ++i)
                    {
                        o_d4[i] += ojkl * d4Tensor(s, r2, inv9, i, j, k, l);
                    }
                }
        // phi += -G * (-1/6) O.D3  (with G=1 folded): pot -= (-1/6) o_d3
        pot += o_d3 / T(6);
        // acc_i = -d(phi)/ds_i = -(1/6) O.D4_i
        acc -= o_d4 / T(6);
    }
    if (order == MultipoleOrder::Octupole) return;

    // hexadecapole: n=4, sign +1/24
    {
        T h_d4 = T(0);
        Vec3<T> h_d5{};
        for (int j = 0; j < 3; ++j)
            for (int k = 0; k < 3; ++k)
                for (int l = 0; l < 3; ++l)
                    for (int mth = 0; mth < 3; ++mth)
                    {
                        T hj = h4(mp, j, k, l, mth);
                        if (hj == T(0)) continue;
                        h_d4 += hj * d4Tensor(s, r2, inv9, j, k, l, mth);
                        for (int i = 0; i < 3; ++i)
                        {
                            h_d5[i] += hj * d5Tensor(s, r2, inv11, i, j, k, l, mth);
                        }
                    }
        pot -= h_d4 / T(24);
        acc += h_d5 / T(24);
    }
}

/// Rank-4 derivative tensor of 1/s:
/// D4 = (105 ssss - 15 r^2 (ss d, 6 terms) + 3 r^4 (dd, 3 terms)) / r^9.
template<class T>
T d4Tensor(const Vec3<T>& s, T r2, T inv9, int i, int j, int k, int l)
{
    T t1 = T(105) * s[i] * s[j] * s[k] * s[l];
    T t2 = T(0);
    if (k == l) t2 += s[i] * s[j];
    if (j == l) t2 += s[i] * s[k];
    if (j == k) t2 += s[i] * s[l];
    if (i == l) t2 += s[j] * s[k];
    if (i == k) t2 += s[j] * s[l];
    if (i == j) t2 += s[k] * s[l];
    T t3 = T(0);
    if (i == j && k == l) t3 += T(1);
    if (i == k && j == l) t3 += T(1);
    if (i == l && j == k) t3 += T(1);
    return (t1 - T(15) * r2 * t2 + T(3) * r2 * r2 * t3) * inv9;
}

/// Rank-5 derivative tensor of 1/s:
/// D5 = -(945 sssss - 105 r^2 (sss d, 10 terms) + 15 r^4 (s dd, 15 terms)) / r^11.
template<class T>
T d5Tensor(const Vec3<T>& s, T r2, T inv11, int i, int j, int k, int l, int m)
{
    const int idx[5] = {i, j, k, l, m};
    T t1 = T(945) * s[i] * s[j] * s[k] * s[l] * s[m];

    // 10 terms: delta over one pair, s over remaining three
    T t2 = T(0);
    for (int a = 0; a < 5; ++a)
        for (int b = a + 1; b < 5; ++b)
        {
            if (idx[a] != idx[b]) continue;
            T prod = T(1);
            for (int c = 0; c < 5; ++c)
            {
                if (c != a && c != b) prod *= s[idx[c]];
            }
            t2 += prod;
        }

    // 15 terms: two disjoint delta pairs, s over the remaining index
    T t3 = T(0);
    for (int a = 0; a < 5; ++a)
        for (int b = a + 1; b < 5; ++b)
        {
            for (int c = a + 1; c < 5; ++c)
            {
                if (c == b) continue;
                for (int d = c + 1; d < 5; ++d)
                {
                    if (d == b) continue;
                    // pairs (a,b) and (c,d), a < b, c < d, a < c: each
                    // unordered pair-of-pairs counted once
                    if (idx[a] == idx[b] && idx[c] == idx[d])
                    {
                        int e = 0 + 1 + 2 + 3 + 4 - a - b - c - d;
                        t3 += s[idx[e]];
                    }
                }
            }
        }

    return -(t1 - T(105) * r2 * t2 + T(15) * r2 * r2 * t3) * inv11;
}

/// The shipped per-target M2P (backend::m2p) at a runtime order: the
/// instance the solver's lane loop runs for that order (quadrupole for a
/// monopole), for one target at displacement s.
template<class T>
void m2pAtOrder(const Multipole<T>& mp, const Vec3<T>& s, MultipoleOrder order, Vec3<T>& acc,
                T& pot)
{
    using backend::M2PSource;
    switch (order)
    {
        case MultipoleOrder::Octupole:
            backend::m2p(M2PSource<T, MultipoleOrder::Octupole>(mp), s.x, s.y, s.z, acc.x, acc.y,
                         acc.z, pot);
            break;
        case MultipoleOrder::Hexadecapole:
            backend::m2p(M2PSource<T, MultipoleOrder::Hexadecapole>(mp), s.x, s.y, s.z, acc.x,
                         acc.y, acc.z, pot);
            break;
        default:
            backend::m2p(M2PSource<T, MultipoleOrder::Quadrupole>(mp), s.x, s.y, s.z, acc.x,
                         acc.y, acc.z, pot);
    }
}

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
            m2pAtOrder(mp, s, params.order, acc, pot);
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

/// The per-particle walk's driver: one walk per particle on the pool;
/// accelerations are added to ax/ay/az, and the total potential
/// 1/2 sum m_i phi_i is summed from per-particle slots in index order and
/// returned.
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
