#pragma once

/// \file lane_kernel.hpp
/// The shape evaluators of the phase kernels (backend/*_kernel.hpp): f(q)
/// and f'(q) over one tile, whose `width` sets the kernels' lane count.
/// LaneKernel (width kLaneWidth, the shipped Simd backend) is branch-free
/// across lanes; ScalarLane (width 1, the Scalar reference) calls
/// Kernel::fq/dfq, so Sinc stays exact. Both offer f-only, df-only and
/// f+df calls, so no phase evaluates a shape function it discards.
///
/// LaneKernel's closed-form families (spline, Wendland, spiky) run one lane
/// loop over closedFormShape (sph/kernels.hpp), the function Kernel::fq/dfq
/// call too: a lane's value is bitwise the value the Scalar path computes
/// for the same pair, so Simd-vs-Scalar differences for these kernels come
/// from neighbor-sum re-association alone (tight tolerance gates in
/// tests/test_backend.cpp).
///
/// The sinc family has no branch-free closed form (std::pow of a
/// transcendental per pair — also the Scalar path's dominant cost); the
/// lane path evaluates it through the existing math/lookup_table.hpp
/// tabulation of the normalized shape, SPHYNX-style. That is an
/// approximation (~1e-8 relative at the default 20000 samples), so sinc
/// Simd-vs-Scalar gates are correspondingly looser — and the table is why
/// the Simd backend beats Scalar by far more than lane parallelism alone
/// on the default sinc configuration (BENCH_simd.json).
///
/// At q = 0 the table returns its exact first sample fq(0), so self
/// contributions match the Scalar path bitwise for every kernel type. A
/// NaN q yields a NaN lane in every family, as fq/dfq do on the Scalar
/// path, and leaves the other lanes of its tile untouched.

#include <cstddef>

#include "backend/simd_tile.hpp"
#include "math/lookup_table.hpp"
#include "sph/kernels.hpp"

namespace sphexa {

/// The 1-lane evaluator of the Scalar backend: a view of the kernel whose
/// calls are the kernel's own fq/dfq.
template<class T>
class ScalarLane
{
public:
    static constexpr std::size_t width = 1;

    explicit ScalarLane(const Kernel<T>& kernel) : kernel_(kernel) {}

    void fdf(T q, T& f, T& df) const
    {
        f  = kernel_.fq(q);
        df = kernel_.dfq(q);
    }
    void f(const T (&q)[1], T (&out)[1]) const { out[0] = kernel_.fq(q[0]); }
    void df(const T (&q)[1], T (&out)[1]) const { out[0] = kernel_.dfq(q[0]); }
    void fdf(const T (&q)[1], T (&f)[1], T (&df)[1]) const { fdf(q[0], f[0], df[0]); }

private:
    const Kernel<T>& kernel_;
};

/// The kLaneWidth evaluator of the Simd backend: immutable, cheap to share
/// across threads (like Kernel, all evaluation is const). Drivers own one
/// per simulation and hand it to the phase shells via ComputeBackend.
template<class T>
class LaneKernel
{
public:
    static constexpr std::size_t width = backend::kLaneWidth;
    static constexpr std::size_t defaultTableSize = 20000;
    using Tile = T[width];

    explicit LaneKernel(const Kernel<T>& kernel, std::size_t tableSize = defaultTableSize)
        : type_(kernel.type()), sigma_(kernel.normalization())
    {
        if (type_ == KernelType::Sinc)
        {
            fTable_  = LookupTable<T>([&](T q) { return kernel.fq(q); }, T(0),
                                      Kernel<T>::supportRadius, tableSize);
            dfTable_ = LookupTable<T>([&](T q) { return kernel.dfq(q); }, T(0),
                                      Kernel<T>::supportRadius, tableSize);
        }
    }

    KernelType type() const { return type_; }

    /// Single-lane f(q), f'(q) (sigma included, zero at q >= 2): the self-
    /// contribution path (q = 0).
    void fdf(T q, T& f, T& df) const
    {
        Tile qq = {q};
        Tile fq = {}, dfq = {};
        fdf(qq, fq, dfq);
        f  = fq[0];
        df = dfq[0];
    }

    /// One tile of f(q), f'(q) or both, branch-free across lanes. Lanes with
    /// q >= supportRadius produce exact zeros (select for the closed forms,
    /// the clamped-to-zero last table sample for sinc), so padded or
    /// out-of-support lanes never contaminate accumulators.
    void f(const Tile& q, Tile& out) const { shape<true, false>(q, out, out); }
    void df(const Tile& q, Tile& out) const { shape<false, true>(q, out, out); }
    void fdf(const Tile& q, Tile& f, Tile& df) const { shape<true, true>(q, f, df); }

private:
    /// Writes f only if F, df only if DF; the shape function a call does not
    /// store is dead code the compiler drops. A closed-form lane is sigma
    /// times closedFormShape, an exact zero at q >= 2, as Kernel::fq/dfq.
    template<bool F, bool DF>
    void shape(const Tile& q, Tile& f, Tile& df) const
    {
        constexpr std::size_t W = width;
        auto put = [&](std::size_t l, ShapeTerms<T> s) {
            if constexpr (F) f[l] = q[l] >= T(2) ? T(0) : sigma_ * s.f;
            if constexpr (DF) df[l] = q[l] >= T(2) ? T(0) : sigma_ * s.df;
        };
        switch (type_)
        {
            case KernelType::Sinc:
                for (std::size_t l = 0; l < W; ++l)
                {
                    if constexpr (F) f[l] = fTable_(q[l]);
                    if constexpr (DF) df[l] = dfTable_(q[l]);
                }
                break;
            case KernelType::CubicSpline:
                for (std::size_t l = 0; l < W; ++l)
                    put(l, closedFormShape<KernelType::CubicSpline>(q[l]));
                break;
            case KernelType::WendlandC2:
                for (std::size_t l = 0; l < W; ++l)
                    put(l, closedFormShape<KernelType::WendlandC2>(q[l]));
                break;
            case KernelType::WendlandC4:
                for (std::size_t l = 0; l < W; ++l)
                    put(l, closedFormShape<KernelType::WendlandC4>(q[l]));
                break;
            case KernelType::WendlandC6:
                for (std::size_t l = 0; l < W; ++l)
                    put(l, closedFormShape<KernelType::WendlandC6>(q[l]));
                break;
            case KernelType::DebrunSpiky:
                for (std::size_t l = 0; l < W; ++l)
                    put(l, closedFormShape<KernelType::DebrunSpiky>(q[l]));
                break;
        }
    }

    KernelType type_;
    T sigma_;
    LookupTable<T> fTable_;  ///< sinc only: sigma-included f(q) over [0, 2]
    LookupTable<T> dfTable_; ///< sinc only: sigma-included f'(q)
};

} // namespace sphexa
