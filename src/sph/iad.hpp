#pragma once

/// \file iad.hpp
/// Integral Approach to Derivatives (IAD), Garcia-Senz, Cabezon & Escartin
/// 2012 — SPHYNX's gradient formulation (Table 1) and one of the two
/// gradient options of the mini-app (Table 2).
///
/// Per particle a, the symmetric matrix
///     tau_ij(a) = sum_b V_b (r_b - r_a)_i (r_b - r_a)_j W_ab(h_a)
/// is inverted to give coefficients C(a) = tau^{-1}. The kernel-gradient
/// replacement used in the momentum/energy equations is then
///     A_ab(h_a) = C(a) . (r_b - r_a) W_ab(h_a),
/// which is exact for linear fields regardless of particle disorder (the
/// property tested in test_sph_gradients.cpp).

#include <span>
#include <type_traits>

#include "backend/iad_kernel.hpp"
#include "backend/kernel_backend.hpp"
#include "domain/box.hpp"
#include "math/matrix3.hpp"
#include "parallel/parallel_for.hpp"
#include "sph/kernels.hpp"
#include "sph/particles.hpp"
#include "tree/neighbors.hpp"

namespace sphexa {

/// Gradient formulation selector (Table 2: "IAD, Kernel derivatives").
enum class GradientMode
{
    KernelDerivative, ///< analytic grad W (ChaNGa, SPH-flow)
    IAD,              ///< integral approach (SPHYNX)
};

constexpr std::string_view gradientModeName(GradientMode g)
{
    return g == GradientMode::KernelDerivative ? "Kernel derivatives" : "IAD";
}

/// Compute the IAD coefficient matrices C(a) = tau^{-1}(a) for all
/// particles; stores the 6 independent components in c11..c33. A shell
/// over backend::iadParticle, run by the backend \p be selects (Scalar
/// when defaulted; see backend/kernel_backend.hpp).
template<class T>
void computeIadCoefficients(ParticleSet<T>& ps, const NeighborList<T>& nl,
                            const Kernel<T>& kernel, const Box<T>& box,
                            std::type_identity_t<std::span<const std::size_t>> active = {},
                            const LoopPolicy& policy = {}, const ComputeBackend<T>& be = {})
{
    backend::forEachRow(ps.size(), active, nl, kernel, box, policy, be,
                        [&](const auto& lanes, const auto& wrap, std::size_t i, auto row,
                            std::size_t) {
                            backend::iadParticle(ps, i, row.data, row.count, lanes, wrap);
                        });
}

/// IAD kernel-gradient replacement A_ab(h_a) = C(a) . (r_b - r_a) W_ab(h_a).
/// \p rba must be the minimum-image vector r_b - r_a.
template<class T>
Vec3<T> iadGradient(const ParticleSet<T>& ps, std::size_t i, const Vec3<T>& rba, T r,
                    const Kernel<T>& kernel)
{
    T w = kernel.value(r, ps.h[i]);
    SymMat3<T> c{ps.c11[i], ps.c12[i], ps.c13[i], ps.c22[i], ps.c23[i], ps.c33[i]};
    return (c * rba) * w;
}

/// Estimate the gradient of an arbitrary per-particle scalar field with IAD:
///     grad f(a) = sum_b V_b (f_b - f_a) A_ab.
/// Used by tests (linear-field exactness) and by the gradients ablation.
template<class T>
Vec3<T> iadScalarGradient(const ParticleSet<T>& ps, const NeighborList<T>& nl,
                          const Kernel<T>& kernel, const Box<T>& box,
                          std::span<const T> field, std::size_t i)
{
    Vec3<T> pi{ps.x[i], ps.y[i], ps.z[i]};
    Vec3<T> grad{};
    for (auto j : nl.neighbors(i))
    {
        Vec3<T> rba = -box.delta(pi, Vec3<T>{ps.x[j], ps.y[j], ps.z[j]});
        T r = norm(rba);
        Vec3<T> A = iadGradient(ps, i, rba, r, kernel);
        grad += ps.vol[j] * (field[j] - field[i]) * A;
    }
    return grad;
}

/// Kernel-derivative estimate of the same scalar gradient, for comparison:
///     grad f(a) = sum_b V_b (f_b - f_a) grad_a W_ab.
template<class T>
Vec3<T> kernelDerivativeScalarGradient(const ParticleSet<T>& ps, const NeighborList<T>& nl,
                                       const Kernel<T>& kernel, const Box<T>& box,
                                       std::span<const T> field, std::size_t i)
{
    Vec3<T> pi{ps.x[i], ps.y[i], ps.z[i]};
    Vec3<T> grad{};
    for (auto j : nl.neighbors(i))
    {
        Vec3<T> rab = box.delta(pi, Vec3<T>{ps.x[j], ps.y[j], ps.z[j]}); // r_a - r_b
        T r = norm(rab);
        if (r <= T(0)) continue;
        // grad_a W_ab = (r_a - r_b)/r * dW/dr
        Vec3<T> gw = rab * (kernel.derivative(r, ps.h[i]) / r);
        grad += ps.vol[j] * (field[j] - field[i]) * gw;
    }
    return grad;
}

} // namespace sphexa
