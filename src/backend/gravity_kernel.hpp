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
///
/// M2P is written once per order, as the closed form of the per-target
/// m2p() over the raw moments of tree/multipole.hpp, which it reads at the
/// fixed storage positions documented on Multipole (q: xx xy xz yy yz zz,
/// and likewise o and hx in sorted-index order). src/ holds no generic
/// tensor contraction; tests/gravity_oracle.hpp keeps one as the oracle.

#include <array>
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

/// The moments of one accepted multipole that M2P at order P reads, copied
/// out of the node before a lane loop (a read through the node array may
/// alias the tile's sums), with the traces that depend on the node alone:
/// trQ = Q_kk, t_i = O_ijj, U_kl = H_jjkl (in q's storage order) and
/// trU = U_kk. Quadrupole order also serves monopole: a monopole-order
/// multipole keeps its zero moments, which add exact zeros.
template<class T, MultipoleOrder P>
struct M2PSource
{
    static_assert(P >= MultipoleOrder::Quadrupole);

    T m, cx, cy, cz;
    std::array<T, 6> q;
    T trQ;
    std::array<T, 10> o{}; ///< octupole and up
    std::array<T, 3> t{};
    std::array<T, 15> h{}; ///< hexadecapole
    std::array<T, 6> u{};
    T trU{};

    explicit M2PSource(const Multipole<T>& mp)
        : m(mp.mass), cx(mp.com.x), cy(mp.com.y), cz(mp.com.z), q(mp.q), trQ(q[0] + q[3] + q[5])
    {
        if constexpr (P >= MultipoleOrder::Octupole)
        {
            o    = mp.o;
            t[0] = o[0] + o[3] + o[5];
            t[1] = o[1] + o[6] + o[8];
            t[2] = o[2] + o[7] + o[9];
        }
        if constexpr (P >= MultipoleOrder::Hexadecapole)
        {
            h    = mp.hx;
            u[0] = h[0] + h[3] + h[5];
            u[1] = h[1] + h[6] + h[8];
            u[2] = h[2] + h[7] + h[9];
            u[3] = h[3] + h[10] + h[12];
            u[4] = h[4] + h[11] + h[13];
            u[5] = h[5] + h[12] + h[14];
            trU  = u[0] + u[3] + u[5];
        }
    }
};

/// M2P for one target, the only evaluation of a multipole: adds the field
/// (G = 1) of \p src at the displacement s = target - com to acc and pot,
/// in closed form over the raw moments and powers of 1/r (Dehnen 2014,
/// Comput. Astrophys. Cosmol. 1, 1), with r^2 = s.s > 0. The group walk's
/// lane loop calls it for every lane of a tile, the test oracle's
/// per-particle walk for one target. With Qs = Q s, sQs = s.Qs:
///   pot -= M / r + (3 sQs - r^2 trQ) / (2 r^5)
///   acc -= M s / r^3 - (-15 sQs s / r^7 + 3 (trQ s + 2 Qs) / r^5) / 2
/// With Oss_i = O_ijk s_j s_k, Osss = s.Oss and ts = t.s, octupole adds
///   pot -= (15 Osss - 9 r^2 ts) / (6 r^7)
///   acc -= (105 Osss s - 45 r^2 (ts s + Oss) + 9 r^4 t) / (6 r^9)
/// With Hsss_i = H_ijkl s_j s_k s_l, Hssss = s.Hsss, Us = U s and
/// Uss = s.Us, hexadecapole adds
///   pot -= (105 Hssss - 90 r^2 Uss + 9 r^4 trU) / (24 r^9)
///   acc -= (945 Hssss s - 420 r^2 Hsss - 630 r^2 Uss s + 180 r^4 Us
///           + 45 r^4 trU s) / (24 r^11)
/// Always inlined: GCC leaves the larger orders as calls, and a call keeps
/// the lane loop scalar.
template<class T, MultipoleOrder P>
[[gnu::always_inline]] inline void m2p(const M2PSource<T, P>& src, T sx, T sy, T sz, T& ax,
                                       T& ay, T& az, T& pot)
{
    T r2   = sx * sx + sy * sy + sz * sz;
    T inv  = T(1) / std::sqrt(r2);
    T inv2 = inv * inv;
    T inv3 = inv2 * inv;
    T inv5 = inv3 * inv2;
    T inv7 = inv5 * inv2;
    // a s for a symmetric a stored as xx xy xz yy yz zz
    auto apply = [&](const std::array<T, 6>& a, T& bx, T& by, T& bz) {
        bx = a[0] * sx + a[1] * sy + a[2] * sz;
        by = a[1] * sx + a[3] * sy + a[4] * sz;
        bz = a[2] * sx + a[4] * sy + a[5] * sz;
    };

    T qsx, qsy, qsz;
    apply(src.q, qsx, qsy, qsz);
    T sQs = sx * qsx + sy * qsy + sz * qsz;
    T a15 = T(-15) * sQs * inv7;
    T a3  = T(3) * inv5;
    pot -= src.m * inv;
    pot -= T(0.5) * (T(3) * sQs - r2 * src.trQ) * inv5;
    ax -= sx * (src.m * inv3);
    ay -= sy * (src.m * inv3);
    az -= sz * (src.m * inv3);
    ax += T(0.5) * (a15 * sx + a3 * (src.trQ * sx + T(2) * qsx));
    ay += T(0.5) * (a15 * sy + a3 * (src.trQ * sy + T(2) * qsy));
    az += T(0.5) * (a15 * sz + a3 * (src.trQ * sz + T(2) * qsz));
    if constexpr (P >= MultipoleOrder::Octupole)
    {
        // c : s s for a symmetric rank-2 c stored as xx xy xz yy yz zz
        const T xx = sx * sx, yy = sy * sy, zz = sz * sz;
        const T xy2 = T(2) * sx * sy, xz2 = T(2) * sx * sz, yz2 = T(2) * sy * sz;
        auto ss = [&](T c0, T c1, T c2, T c3, T c4, T c5) {
            return c0 * xx + c1 * xy2 + c2 * xz2 + c3 * yy + c4 * yz2 + c5 * zz;
        };
        const T r4   = r2 * r2;
        const T inv9 = inv7 * inv2;

        const auto& o = src.o;
        T ossx        = ss(o[0], o[1], o[2], o[3], o[4], o[5]);
        T ossy        = ss(o[1], o[3], o[4], o[6], o[7], o[8]);
        T ossz        = ss(o[2], o[4], o[5], o[7], o[8], o[9]);
        T osss        = sx * ossx + sy * ossy + sz * ossz;
        T ts          = src.t[0] * sx + src.t[1] * sy + src.t[2] * sz;
        // acc_i -= (cs3 s_i - co Oss_i + ct t_i) / (6 r^9)
        T cs3         = T(105) * osss - T(45) * r2 * ts;
        T co          = T(45) * r2;
        T ct          = T(9) * r4;
        const T sixth = T(1) / T(6);
        pot -= (T(15) * osss - T(9) * r2 * ts) * (inv7 * sixth);
        ax -= (cs3 * sx - co * ossx + ct * src.t[0]) * (inv9 * sixth);
        ay -= (cs3 * sy - co * ossy + ct * src.t[1]) * (inv9 * sixth);
        az -= (cs3 * sz - co * ossz + ct * src.t[2]) * (inv9 * sixth);

        if constexpr (P >= MultipoleOrder::Hexadecapole)
        {
            // Hss_ab = H_abkl s_k s_l, stored as xx xy xz yy yz zz
            const auto& h = src.h;
            const std::array<T, 6> hss{ss(h[0], h[1], h[2], h[3], h[4], h[5]),
                                       ss(h[1], h[3], h[4], h[6], h[7], h[8]),
                                       ss(h[2], h[4], h[5], h[7], h[8], h[9]),
                                       ss(h[3], h[6], h[7], h[10], h[11], h[12]),
                                       ss(h[4], h[7], h[8], h[11], h[12], h[13]),
                                       ss(h[5], h[8], h[9], h[12], h[13], h[14])};
            T hsx, hsy, hsz, usx, usy, usz;
            apply(hss, hsx, hsy, hsz);
            apply(src.u, usx, usy, usz);
            T hssss       = sx * hsx + sy * hsy + sz * hsz;
            T uss         = sx * usx + sy * usy + sz * usz;
            // acc_i -= (cs4 s_i - ch Hsss_i + cu Us_i) / (24 r^11)
            T cs4         = T(945) * hssss - T(630) * r2 * uss + T(45) * r4 * src.trU;
            T ch          = T(420) * r2;
            T cu          = T(180) * r4;
            const T inv11 = inv9 * inv2;
            const T inv24 = T(1) / T(24);
            pot -= (T(105) * hssss - T(90) * r2 * uss + T(9) * r4 * src.trU) * (inv9 * inv24);
            ax -= (cs4 * sx - ch * hsx + cu * usx) * (inv11 * inv24);
            ay -= (cs4 * sy - ch * hsy + cu * usy) * (inv11 * inv24);
            az -= (cs4 * sz - ch * hsz + cu * usz) * (inv11 * inv24);
        }
    }
}

namespace detail {

/// The lane loop of M2P at order P: each accepted node's moments are copied
/// into an M2PSource, which every lane of the tile then reads.
template<MultipoleOrder P, class T, class Index>
inline void m2pLanes(GravityTile<T>& t, const Multipole<T>* mps, const Index* nodes,
                     std::size_t n)
{
    constexpr std::size_t W = GravityTile<T>::W;
    for (std::size_t k = 0; k < n; ++k)
    {
        const M2PSource<T, P> src(mps[nodes[k]]);
        for (std::size_t l = 0; l < W; ++l)
        {
            m2p(src, t.x[l] - src.cx, t.y[l] - src.cy, t.z[l] - src.cz, t.ax[l], t.ay[l],
                t.az[l], t.pot[l]);
        }
    }
}

} // namespace detail

/// M2P of the accepted multipoles mps[nodes[0..n)] for every lane of \p t
/// at \p order: one lane-loop instance per order, the quadrupole instance
/// serving monopole. No member lies in an accepted node's box, so r^2 > 0
/// on every lane.
template<class T, class Index>
inline void m2p(GravityTile<T>& t, const Multipole<T>* mps, const Index* nodes, std::size_t n,
                MultipoleOrder order)
{
    switch (order)
    {
        case MultipoleOrder::Octupole:
            detail::m2pLanes<MultipoleOrder::Octupole>(t, mps, nodes, n);
            break;
        case MultipoleOrder::Hexadecapole:
            detail::m2pLanes<MultipoleOrder::Hexadecapole>(t, mps, nodes, n);
            break;
        default: detail::m2pLanes<MultipoleOrder::Quadrupole>(t, mps, nodes, n);
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
