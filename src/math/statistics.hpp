#pragma once

/// \file statistics.hpp
/// Small statistics helpers used by the performance substrate (load-balance
/// metrics, scheduler evaluation) and by tests.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <numeric>
#include <span>
#include <vector>

namespace sphexa {

/// Sum of all elements; T(0) for an empty span.
template<class T>
T sum(std::span<const T> v)
{
    return std::accumulate(v.begin(), v.end(), T(0));
}

/// Arithmetic mean; T(0) for an empty span.
template<class T>
T mean(std::span<const T> v)
{
    return v.empty() ? T(0) : sum(v) / T(v.size());
}

/// Largest element; T(0) for an empty span.
template<class T>
T maxValue(std::span<const T> v)
{
    return v.empty() ? T(0) : *std::max_element(v.begin(), v.end());
}

/// Smallest element; T(0) for an empty span.
template<class T>
T minValue(std::span<const T> v)
{
    return v.empty() ? T(0) : *std::min_element(v.begin(), v.end());
}

/// Population standard deviation.
template<class T>
T stddev(std::span<const T> v)
{
    if (v.size() < 2) return T(0);
    T m  = mean(v);
    T ss = T(0);
    for (T x : v)
        ss += (x - m) * (x - m);
    return std::sqrt(ss / T(v.size()));
}

/// Load-balance ratio in the POP sense: mean/max. 1.0 is perfectly balanced.
template<class T>
T loadBalanceRatio(std::span<const T> v)
{
    T mx = maxValue(v);
    return mx > T(0) ? mean(v) / mx : T(1);
}

/// p-th percentile (0..100) with linear interpolation; copies the input.
template<class T>
T percentile(std::span<const T> v, double p)
{
    if (v.empty()) return T(0);
    std::vector<T> s(v.begin(), v.end());
    std::sort(s.begin(), s.end());
    double idx = p / 100.0 * double(s.size() - 1);
    auto lo = static_cast<std::size_t>(idx);
    auto hi = std::min(lo + 1, s.size() - 1);
    double frac = idx - double(lo);
    return T((1.0 - frac) * double(s[lo]) + frac * double(s[hi]));
}

/// Online accumulator for mean/min/max/stddev (Welford).
template<class T>
class RunningStats
{
public:
    void add(T x)
    {
        ++n_;
        if (n_ == 1)
        {
            min_ = max_ = x;
            mean_ = x;
            m2_ = T(0);
            return;
        }
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
        T delta = x - mean_;
        mean_ += delta / T(n_);
        m2_ += delta * (x - mean_);
    }

    std::size_t count() const { return n_; }
    T mean() const { return mean_; }
    T min() const { return min_; }
    T max() const { return max_; }
    T variance() const { return n_ > 1 ? m2_ / T(n_) : T(0); }
    T stddev() const { return std::sqrt(variance()); }

private:
    std::size_t n_{0};
    T mean_{0}, m2_{0}, min_{0}, max_{0};
};

} // namespace sphexa
