#pragma once

/// \file series.hpp
/// Initial pressure field of the rotating square patch test.
///
/// Colagrossi (2005) derives the pressure consistent with rigid rotation of
/// an inviscid free-surface square patch from the incompressible Poisson
/// equation; the paper (Sec. 5.1) quotes it as the rapidly converging
/// double sine series
///
///   P0(x, y) = rho * sum_{m,n odd} -32 w^2 / (m n pi^2 [ (m pi/L)^2 + (n pi/L)^2 ])
///                    * sin(m pi x / L) * sin(n pi y / L)
///
/// with x, y in [0, L]. Only odd (m, n) terms contribute. The series
/// converges like 1/(m n (m^2+n^2)), so a modest truncation suffices; the
/// truncation order is exposed for convergence tests.

#include <cmath>
#include <numbers>

namespace sphexa {

template<class T>
class SquarePatchPressure
{
public:
    /// \param rho    fluid density
    /// \param omega  angular velocity of the rigid rotation [rad/s]
    /// \param L      side length of the square
    /// \param terms  number of odd terms per index (m, n = 1, 3, ..., 2*terms-1)
    SquarePatchPressure(T rho, T omega, T L, int terms = 32)
        : rho_(rho), omega_(omega), L_(L), terms_(terms)
    {
    }

    /// Pressure at (x, y) with x, y in [0, L]. Zero on the boundary.
    T operator()(T x, T y) const
    {
        constexpr T pi = std::numbers::pi_v<T>;
        T acc = T(0);
        for (int i = 0; i < terms_; ++i)
        {
            int m = 2 * i + 1;
            T km  = T(m) * pi / L_;
            T sm  = std::sin(km * x);
            for (int j = 0; j < terms_; ++j)
            {
                int n = 2 * j + 1;
                T kn  = T(n) * pi / L_;
                T coeff = T(-32) * omega_ * omega_ /
                          (T(m) * T(n) * pi * pi * (km * km + kn * kn));
                acc += coeff * sm * std::sin(kn * y);
            }
        }
        return rho_ * acc;
    }

    /// Pressure at the patch center (the extremum of the field).
    T centerValue() const { return (*this)(L_ / 2, L_ / 2); }

    int terms() const { return terms_; }

private:
    T rho_, omega_, L_;
    int terms_;
};

} // namespace sphexa
