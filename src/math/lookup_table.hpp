#pragma once

/// \file lookup_table.hpp
/// Tabulated 1D function with linear interpolation.
///
/// SPH production codes (SPHYNX in particular) evaluate the interpolation
/// kernel and its derivative through lookup tables because the sinc kernel's
/// transcendental evaluation dominates the density loop otherwise. The table
/// is sampled uniformly in q over the kernel support.

#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace sphexa {

/// Uniformly sampled tabulation of a 1D function with linear interpolation
/// on evaluation; see kernels.hpp for the table-accelerated kernel path.
template<class T>
class LookupTable
{
public:
    LookupTable() = default;

    /// Tabulate f over [a, b] with n samples. Throws std::invalid_argument
    /// unless n >= 2 and b > a: evaluation reads two adjacent samples.
    template<class F>
    LookupTable(const F& f, T a, T b, std::size_t n) : a_(a), b_(b), n_(n)
    {
        if (n < 2 || !(b > a))
        {
            throw std::invalid_argument("LookupTable: needs n >= 2 samples and b > a");
        }
        inv_dx_ = T(n - 1) / (b - a);
        values_.resize(n + 1);
        T dx = (b - a) / T(n - 1);
        for (std::size_t i = 0; i < n; ++i)
        {
            values_[i] = f(a + T(i) * dx);
        }
        // an x just below b can round (x - a) * inv_dx up to n - 1, whose
        // interval reads sample n: a copy of the last sample there makes
        // that read return the last sample, with no test in the lookup
        values_[n] = values_[n - 1];
    }

    /// Linear interpolation; clamps outside [a, b]. A NaN argument returns
    /// NaN, like the function it tabulates, instead of a sample.
    T operator()(T x) const
    {
        if (x <= a_) return values_.front();
        if (x >= b_) return values_.back();
        if (std::isnan(x)) return x; // no clamp catches NaN
        T pos = (x - a_) * inv_dx_;
        auto i = static_cast<std::size_t>(pos);
        T frac = pos - T(i);
        return values_[i] + frac * (values_[i + 1] - values_[i]);
    }

    /// Number of samples (0 for a default-constructed table).
    std::size_t size() const { return n_; }
    /// Lower/upper bound of the tabulated interval [a, b].
    T lower() const { return a_; }
    T upper() const { return b_; }

private:
    T a_{0}, b_{1};
    std::size_t n_{0};
    T inv_dx_{1};
    std::vector<T> values_; ///< the n_ samples, then a copy of the last
};

} // namespace sphexa
