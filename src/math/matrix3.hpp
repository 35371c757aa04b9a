#pragma once

/// \file matrix3.hpp
/// Symmetric 3x3 matrix algebra for the Integral Approach to Derivatives
/// (IAD, Garcia-Senz et al. 2012).
///
/// The IAD formulation requires, per particle, the inversion of the
/// symmetric "tau" matrix
///     tau_ij = sum_b V_b (r_b - r_a)_i (r_b - r_a)_j W_ab,
/// whose inverse supplies the coefficients c_ij used in the gradient
/// estimate. Only the six independent components are stored.

#include <array>
#include <cmath>
#include <limits>

#include "math/vec.hpp"

namespace sphexa {

/// Symmetric 3x3 matrix, stored as (xx, xy, xz, yy, yz, zz).
template<class T>
struct SymMat3
{
    T xx{}, xy{}, xz{}, yy{}, yz{}, zz{};

    constexpr SymMat3() = default;
    constexpr SymMat3(T xx_, T xy_, T xz_, T yy_, T yz_, T zz_)
        : xx(xx_), xy(xy_), xz(xz_), yy(yy_), yz(yz_), zz(zz_)
    {
    }

    /// Identity matrix.
    static constexpr SymMat3 identity() { return {T(1), T(0), T(0), T(1), T(0), T(1)}; }

    constexpr SymMat3& operator+=(const SymMat3& o)
    {
        xx += o.xx; xy += o.xy; xz += o.xz;
        yy += o.yy; yz += o.yz; zz += o.zz;
        return *this;
    }

    constexpr SymMat3& operator*=(T s)
    {
        xx *= s; xy *= s; xz *= s;
        yy *= s; yz *= s; zz *= s;
        return *this;
    }

    friend constexpr SymMat3 operator+(SymMat3 a, const SymMat3& b) { return a += b; }
    friend constexpr SymMat3 operator*(SymMat3 a, T s) { return a *= s; }
    friend constexpr SymMat3 operator*(T s, SymMat3 a) { return a *= s; }

    /// Rank-1 update: M += s * v v^T. The building block of the IAD tau matrix.
    constexpr void addOuter(const Vec3<T>& v, T s)
    {
        xx += s * v.x * v.x;
        xy += s * v.x * v.y;
        xz += s * v.x * v.z;
        yy += s * v.y * v.y;
        yz += s * v.y * v.z;
        zz += s * v.z * v.z;
    }

    /// Matrix-vector product.
    constexpr Vec3<T> operator*(const Vec3<T>& v) const
    {
        return {xx * v.x + xy * v.y + xz * v.z,
                xy * v.x + yy * v.y + yz * v.z,
                xz * v.x + yz * v.y + zz * v.z};
    }

    constexpr T determinant() const
    {
        return xx * (yy * zz - yz * yz) - xy * (xy * zz - yz * xz) + xz * (xy * yz - yy * xz);
    }

    constexpr T trace() const { return xx + yy + zz; }

    /// Inverse via the adjugate. Returns identity-scaled fallback when the
    /// matrix is numerically singular (isolated particle, degenerate
    /// neighbor geometry); IAD then degenerates gracefully.
    SymMat3 inverse() const
    {
        T det = determinant();
        // Scale-aware singularity guard: compare det against trace^3.
        T scale = trace();
        T tiny  = std::numeric_limits<T>::epsilon() * T(64);
        if (std::abs(det) < tiny * std::abs(scale * scale * scale) ||
            det == T(0))
        {
            return SymMat3::identity();
        }
        T inv = T(1) / det;
        SymMat3 r;
        r.xx = (yy * zz - yz * yz) * inv;
        r.xy = (xz * yz - xy * zz) * inv;
        r.xz = (xy * yz - xz * yy) * inv;
        r.yy = (xx * zz - xz * xz) * inv;
        r.yz = (xz * xy - xx * yz) * inv;
        r.zz = (xx * yy - xy * xy) * inv;
        return r;
    }
};

using SymMat3d = SymMat3<double>;
using SymMat3f = SymMat3<float>;

} // namespace sphexa
