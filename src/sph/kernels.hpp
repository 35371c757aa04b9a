#pragma once

/// \file kernels.hpp
/// SPH interpolation kernels: the three families the SPH-EXA mini-app must
/// support per Table 2 of the paper.
///
///  - Sinc family S_n (SPHYNX; Cabezon, Garcia-Senz & Relano 2008)
///  - M4 cubic spline (ChaNGa; Monaghan & Lattanzio 1985)
///  - Wendland C2/C4/C6 (ChaNGa, SPH-flow; Dehnen & Aly 2012)
///  - Debrun spiky (WCSPH/free-surface codes; Desbrun & Gascuel 1996),
///    whose gradient does NOT vanish at the origin — the property pressure
///    forces need to keep close particle pairs apart in weakly-compressible
///    flows
///
/// All kernels are normalized in 3D and share a compact support radius of
/// 2h, so neighbor discovery is kernel-agnostic. q = r/h throughout:
///
///     W(r, h)      = sigma / h^3 * f(q)
///     dW/dr        = sigma / h^4 * f'(q)
///     dW/dh        = -sigma / h^4 * (3 f(q) + q f'(q))     (grad-h term)
///
/// Each closed-form family (M4, Wendland C2/C4/C6, Debrun spiky) is written
/// once, in closedFormShape. Kernel::fq/dfq call it, and so do the lane
/// loops of LaneKernel (backend/lane_kernel.hpp), so the Scalar and Simd
/// backends evaluate the same expressions and agree bitwise by
/// construction. Only the sinc family is evaluated differently by the two:
/// pow/sin here, lookup tables in LaneKernel.
///
/// The sinc normalization has no closed form for arbitrary exponent n; it is
/// computed at construction by adaptive quadrature (math/quadrature.hpp).

#include <cmath>
#include <numbers>
#include <stdexcept>
#include <string_view>

#include "math/quadrature.hpp"

namespace sphexa {

enum class KernelType
{
    Sinc,        ///< S_n(q) = B_n sinc(pi q / 2)^n, SPHYNX default (n ~ 5)
    CubicSpline, ///< M4 spline, the classic SPH kernel
    WendlandC2,
    WendlandC4,
    WendlandC6,
    DebrunSpiky, ///< f(q) = (2 - q)^3: the WCSPH pressure kernel
};

constexpr std::string_view kernelName(KernelType k)
{
    switch (k)
    {
        case KernelType::Sinc: return "Sinc";
        case KernelType::CubicSpline: return "M4 spline";
        case KernelType::WendlandC2: return "Wendland C2";
        case KernelType::WendlandC4: return "Wendland C4";
        case KernelType::WendlandC6: return "Wendland C6";
        case KernelType::DebrunSpiky: return "Debrun spiky";
    }
    return "?";
}

/// Un-normalized shape f(q) and its derivative f'(q) at one q.
template<class T>
struct ShapeTerms
{
    T f;
    T df;
};

/// f(q) and f'(q) of the closed-form family K, un-normalized and without
/// the support cut (callers zero q >= 2). Branch-free: the M4 spline
/// evaluates both pieces and selects one, so a lane loop over it
/// vectorizes; a caller that reads only f or f' lets the compiler drop the
/// other.
template<KernelType K, class T>
constexpr ShapeTerms<T> closedFormShape(T q)
{
    static_assert(K != KernelType::Sinc, "the sinc family has no closed form");
    if constexpr (K == KernelType::CubicSpline)
    {
        T t  = T(2) - q;
        T fi = T(1) - T(1.5) * q * q + T(0.75) * q * q * q;
        T fo = T(0.25) * t * t * t;
        T di = -T(3) * q + T(2.25) * q * q;
        T dq = -T(0.75) * t * t;
        return {q < T(1) ? fi : fo, q < T(1) ? di : dq};
    }
    else if constexpr (K == KernelType::WendlandC2)
    {
        T t  = T(1) - q / 2;
        T t2 = t * t;
        return {t2 * t2 * (T(2) * q + T(1)), -T(5) * q * t * t * t};
    }
    else if constexpr (K == KernelType::WendlandC4)
    {
        T t  = T(1) - q / 2;
        T t2 = t * t;
        return {t2 * t2 * t2 * ((T(35) / 12) * q * q + T(3) * q + T(1)),
                -(T(7) / 3) * q * (T(5) * q + T(2)) * t2 * t2 * t};
    }
    else if constexpr (K == KernelType::WendlandC6)
    {
        T t  = T(1) - q / 2;
        T t2 = t * t;
        T t4 = t2 * t2;
        return {t4 * t4 * (T(4) * q * q * q + (T(25) / 4) * q * q + T(4) * q + T(1)),
                -(T(11) / 4) * q * (T(8) * q * q + T(7) * q + T(2)) * t4 * t2 * t};
    }
    else
    {
        static_assert(K == KernelType::DebrunSpiky);
        // f'(0) = -12: the spiky gradient stays finite and nonzero at the
        // origin instead of vanishing like the spline family
        T t = T(2) - q;
        return {t * t * t, -T(3) * t * t};
    }
}

/// A 3D-normalized compact-support SPH kernel.
///
/// The class is a value type: cheap to copy, safe to share across threads
/// (all evaluation methods are const and touch only immutable state).
template<class T>
class Kernel
{
public:
    /// All supported kernels vanish at q = supportRadius.
    static constexpr T supportRadius = T(2);

    /// Build a kernel of the given type. \p sincExponent is used only by
    /// KernelType::Sinc; SPHYNX operates n in [3, 12] with 5 typical.
    explicit Kernel(KernelType type = KernelType::Sinc, T sincExponent = T(5))
        : type_(type), n_(sincExponent)
    {
        if (type_ == KernelType::Sinc)
        {
            if (!(n_ > T(2))) throw std::invalid_argument("sinc exponent must exceed 2");
            // B_n = 1 / (4 pi int_0^2 f(q) q^2 dq)
            T integral = integrate<T>([this](T q) { return fqRaw(q) * q * q; }, T(0),
                                      supportRadius, T(1e-14));
            sigma_ = T(1) / (T(4) * std::numbers::pi_v<T> * integral);
        }
        else
        {
            sigma_ = closedFormSigma(type_);
        }
    }

    KernelType type() const { return type_; }
    T sincExponent() const { return n_; }

    /// 3D normalization constant sigma (W = sigma/h^3 f(q)).
    T normalization() const { return sigma_; }

    /// Dimensionless kernel shape f(q), with f(q >= 2) = 0.
    T fq(T q) const { return q >= supportRadius ? T(0) : sigma_ * fqRaw(q); }

    /// Dimensionless derivative f'(q).
    T dfq(T q) const { return q >= supportRadius ? T(0) : sigma_ * dfqRaw(q); }

    /// Kernel value W(r, h).
    T value(T r, T h) const { return fq(r / h) / (h * h * h); }

    /// Radial derivative dW/dr (negative inside the support).
    T derivative(T r, T h) const { return dfq(r / h) / (h * h * h * h); }

    /// Derivative with respect to the smoothing length, dW/dh.
    T dh(T r, T h) const
    {
        T q = r / h;
        return -(T(3) * fq(q) + q * dfq(q)) / (h * h * h * h);
    }

private:
    static T closedFormSigma(KernelType type)
    {
        constexpr T pi = std::numbers::pi_v<T>;
        switch (type)
        {
            case KernelType::CubicSpline: return T(1) / pi;
            case KernelType::WendlandC2: return T(21) / (T(16) * pi);
            case KernelType::WendlandC4: return T(495) / (T(256) * pi);
            case KernelType::WendlandC6: return T(1365) / (T(512) * pi);
            // int_0^2 (2-q)^3 q^2 dq = 16/15  =>  sigma = 15/(64 pi); in the
            // classic support-H form this is the 15/(pi H^6) spiky of
            // Desbrun & Gascuel with H = 2h
            case KernelType::DebrunSpiky: return T(15) / (T(64) * pi);
            default: return T(0); // unreachable; sinc handled numerically
        }
    }

    /// Un-normalized shape.
    T fqRaw(T q) const
    {
        if (type_ == KernelType::Sinc)
            return std::pow(sinc(std::numbers::pi_v<T> / 2 * q), n_);
        return closedForm(q).f;
    }

    /// Un-normalized derivative d f / d q.
    T dfqRaw(T q) const
    {
        if (type_ == KernelType::Sinc)
        {
            constexpr T halfPi = std::numbers::pi_v<T> / 2;
            T x = halfPi * q;
            T s = sinc(x);
            // d/dq [S(x)^n] = n S^{n-1} S'(x) * halfPi
            return n_ * std::pow(s, n_ - T(1)) * dsinc(x) * halfPi;
        }
        return closedForm(q).df;
    }

    /// closedFormShape of this kernel's family (any type but Sinc).
    ShapeTerms<T> closedForm(T q) const
    {
        switch (type_)
        {
            case KernelType::CubicSpline: return closedFormShape<KernelType::CubicSpline>(q);
            case KernelType::WendlandC2: return closedFormShape<KernelType::WendlandC2>(q);
            case KernelType::WendlandC4: return closedFormShape<KernelType::WendlandC4>(q);
            case KernelType::WendlandC6: return closedFormShape<KernelType::WendlandC6>(q);
            case KernelType::DebrunSpiky: return closedFormShape<KernelType::DebrunSpiky>(q);
            case KernelType::Sinc: break; // unreachable; fqRaw/dfqRaw handle sinc
        }
        return {T(0), T(0)};
    }

    /// sinc(x) = sin(x)/x with the removable singularity handled by series.
    static T sinc(T x)
    {
        if (std::abs(x) < T(1e-4))
        {
            T x2 = x * x;
            return T(1) - x2 / 6 + x2 * x2 / 120;
        }
        return std::sin(x) / x;
    }

    /// d sinc / d x.
    static T dsinc(T x)
    {
        if (std::abs(x) < T(1e-4))
        {
            T x2 = x * x;
            return -x / 3 + x * x2 / 30;
        }
        return (x * std::cos(x) - std::sin(x)) / (x * x);
    }

    KernelType type_;
    T n_;
    T sigma_{};
};

} // namespace sphexa
