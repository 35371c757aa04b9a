#pragma once

/// \file box.hpp
/// Global simulation bounding box with optional per-axis periodicity.
///
/// The rotating square patch test is periodic in Z only (the 2D test layered
/// 100x in Z, Sec. 5.1 of the paper); the Evrard collapse is open in all
/// directions. The box therefore carries per-axis periodic flags and supplies
/// minimum-image displacement.

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>

#include "math/vec.hpp"

namespace sphexa {

template<class T>
struct Box
{
    Vec3<T> lo{};
    Vec3<T> hi{};
    bool pbc[3] = {false, false, false};

    Box() = default;

    Box(Vec3<T> lo_, Vec3<T> hi_, bool px = false, bool py = false, bool pz = false)
        : lo(lo_), hi(hi_), pbc{px, py, pz}
    {
    }

    /// Edge length along one axis / all three axes.
    T length(int axis) const { return hi[axis] - lo[axis]; }
    Vec3<T> lengths() const { return hi - lo; }
    /// Geometric center of the box.
    Vec3<T> center() const { return (lo + hi) * T(0.5); }

    T volume() const { return length(0) * length(1) * length(2); }

    /// True if p lies inside the half-open box [lo, hi).
    bool contains(const Vec3<T>& p) const
    {
        return p.x >= lo.x && p.x < hi.x && p.y >= lo.y && p.y < hi.y && p.z >= lo.z &&
               p.z < hi.z;
    }

    /// Longest axis index (ORB split direction).
    int longestAxis() const
    {
        Vec3<T> l = lengths();
        if (l.x >= l.y && l.x >= l.z) return 0;
        if (l.y >= l.z) return 1;
        return 2;
    }

    /// Minimum-image displacement a - b respecting periodic axes.
    Vec3<T> delta(const Vec3<T>& a, const Vec3<T>& b) const
    {
        Vec3<T> d = a - b;
        for (int ax = 0; ax < 3; ++ax)
        {
            if (!pbc[ax]) continue;
            T L = length(ax);
            if (d[ax] > L / 2) d[ax] -= L;
            else if (d[ax] < -L / 2) d[ax] += L;
        }
        return d;
    }

    /// Wrap a point back into the box along periodic axes. A periodic
    /// coordinate that is non-finite or lies more than one box length
    /// outside the box throws std::domain_error: no drift of a sane state
    /// gets there, and the wrap below would never end for +-inf (inf - L
    /// is inf) and would take |p| / L rounds for a huge finite value.
    Vec3<T> wrap(Vec3<T> p) const
    {
        for (int ax = 0; ax < 3; ++ax)
        {
            if (!pbc[ax]) continue;
            T L = length(ax);
            // false for NaN and +-inf as well
            if (!(p[ax] - hi[ax] <= L && lo[ax] - p[ax] <= L))
            {
                throw std::domain_error("Box::wrap: periodic coordinate is non-finite or "
                                        "more than one box length outside the box");
            }
            while (p[ax] >= hi[ax]) p[ax] -= L;
            while (p[ax] < lo[ax]) p[ax] += L;
        }
        return p;
    }

    /// Normalize a point to [0, 1)^3 within the box (SFC key input).
    Vec3<T> normalize(const Vec3<T>& p) const
    {
        Vec3<T> l = lengths();
        return {(p.x - lo.x) / l.x, (p.y - lo.y) / l.y, (p.z - lo.z) / l.z};
    }
};

/// Compute the tight bounding box of a point cloud, optionally expanded by a
/// relative safety margin so boundary particles stay strictly inside.
template<class T>
Box<T> computeBoundingBox(std::span<const T> x, std::span<const T> y, std::span<const T> z,
                          T relMargin = T(1e-6))
{
    Box<T> b{{T(0), T(0), T(0)}, {T(1), T(1), T(1)}};
    if (x.empty()) return b;
    Vec3<T> lo{x[0], y[0], z[0]};
    Vec3<T> hi = lo;
    for (std::size_t i = 1; i < x.size(); ++i)
    {
        lo = min(lo, Vec3<T>{x[i], y[i], z[i]});
        hi = max(hi, Vec3<T>{x[i], y[i], z[i]});
    }
    Vec3<T> span = hi - lo;
    T margin = relMargin * std::max({span.x, span.y, span.z, T(1e-30)});
    b.lo = lo - Vec3<T>{margin, margin, margin};
    b.hi = hi + Vec3<T>{margin, margin, margin};
    return b;
}

/// Squared distance between the axis-aligned boxes [alo, ahi] and
/// [blo, bhi], honoring periodic axes of the global box \p global. The
/// periodic images shift the first box by ±L, mirroring the point shifts of
/// distanceSqToBox, so for any point p inside [alo, ahi] the box-box
/// distance never exceeds distanceSqToBox(p, blo, bhi, global) — the
/// conservative-pruning property the cluster neighbor search relies on.
template<class T>
T aabbDistanceSq(const Vec3<T>& alo, const Vec3<T>& ahi, const Vec3<T>& blo,
                 const Vec3<T>& bhi, const Box<T>& global)
{
    auto gap = [](T lo1, T hi1, T lo2, T hi2) {
        if (hi1 < lo2) return lo2 - hi1;
        if (lo1 > hi2) return lo1 - hi2;
        return T(0);
    };
    T d2 = T(0);
    for (int ax = 0; ax < 3; ++ax)
    {
        T d = gap(alo[ax], ahi[ax], blo[ax], bhi[ax]);
        if (global.pbc[ax])
        {
            T L = global.length(ax);
            d   = std::min({d, gap(alo[ax] - L, ahi[ax] - L, blo[ax], bhi[ax]),
                            gap(alo[ax] + L, ahi[ax] + L, blo[ax], bhi[ax])});
        }
        d2 += d * d;
    }
    return d2;
}

/// Squared distance from point \p p to the axis-aligned box [blo, bhi],
/// honoring periodic axes of the global box \p global.
template<class T>
T distanceSqToBox(const Vec3<T>& p, const Vec3<T>& blo, const Vec3<T>& bhi,
                  const Box<T>& global)
{
    T d2 = T(0);
    for (int ax = 0; ax < 3; ++ax)
    {
        T d = T(0);
        if (p[ax] < blo[ax]) d = blo[ax] - p[ax];
        else if (p[ax] > bhi[ax]) d = p[ax] - bhi[ax];
        if (global.pbc[ax])
        {
            T L = global.length(ax);
            // alternative distance through the periodic wrap
            T dWrapLo = (p[ax] - L < blo[ax]) ? blo[ax] - (p[ax] - L) : T(0);
            if (p[ax] - L > bhi[ax]) dWrapLo = (p[ax] - L) - bhi[ax];
            T dWrapHi = (p[ax] + L < blo[ax]) ? blo[ax] - (p[ax] + L) : T(0);
            if (p[ax] + L > bhi[ax]) dWrapHi = (p[ax] + L) - bhi[ax];
            d = std::min({d, dWrapLo, dWrapHi});
        }
        d2 += d * d;
    }
    return d2;
}

} // namespace sphexa
