#pragma once

/// \file density.hpp
/// SPH density summation with standard and generalized volume elements
/// (Table 2 of the paper: "Volume elements: Generalized, Standard").
///
/// Generalized volume elements follow SPHYNX (Cabezon, Garcia-Senz &
/// Figueira 2017): each particle carries a weight X_a; the volume element is
///
///     V_a = X_a / kx_a,     kx_a = sum_b X_b W_ab(h_a)   (self included)
///
/// and the density estimate is rho_a = m_a / V_a = m_a kx_a / X_a.
/// X_a = m_a reproduces the standard summation rho_a = sum_b m_b W_ab.
/// X_a = (m_a / rho_a)^p (p ~ 0.9, using the previous step's density)
/// reduces the E0 interpolation error in strong density gradients.
///
/// The grad-h correction term Omega_a (Springel & Hernquist 2002 form,
/// generalized to VE weights) is accumulated in the same pass.

#include <cmath>
#include <span>
#include <type_traits>

#include "backend/density_kernel.hpp"
#include "backend/kernel_backend.hpp"
#include "domain/box.hpp"
#include "parallel/parallel_for.hpp"
#include "sph/kernels.hpp"
#include "sph/particles.hpp"
#include "tree/neighbors.hpp"

namespace sphexa {

/// Volume-element formulation selector.
enum class VolumeElements
{
    Standard,    ///< X_a = m_a  (classic summation)
    Generalized, ///< X_a = (m_a / rho_a)^p with previous-step density
};

constexpr std::string_view volumeElementsName(VolumeElements ve)
{
    return ve == VolumeElements::Standard ? "Standard" : "Generalized";
}

/// Fill the VE weights X_a for the chosen formulation. For the generalized
/// form the previous density estimate is used; on the very first call
/// (rho == 0) it falls back to the standard weights.
template<class T>
void computeVolumeElementWeights(ParticleSet<T>& ps, VolumeElements ve, T exponent = T(0.9),
                                 const LoopPolicy& policy = {})
{
    parallelFor(
        ps.size(),
        [&](std::size_t i, std::size_t) {
            if (ve == VolumeElements::Standard || ps.rho[i] <= T(0))
            {
                ps.xmass[i] = ps.m[i];
            }
            else
            {
                ps.xmass[i] = std::pow(ps.m[i] / ps.rho[i], exponent);
            }
        },
        policy);
}

/// Density summation (step 3 of Algorithm 1, first SPH kernel): a shell
/// over backend::densityParticle, run by the backend \p be selects (Scalar
/// when defaulted; see backend/kernel_backend.hpp).
///
/// Reads x/y/z, h, m, xmass and the neighbor lists; writes kx-based volume
/// vol, density rho and the grad-h term gradh (Omega_a).
template<class T>
void computeDensity(ParticleSet<T>& ps, const NeighborList<T>& nl, const Kernel<T>& kernel,
                    const Box<T>& box,
                    std::type_identity_t<std::span<const std::size_t>> active = {},
                    const LoopPolicy& policy = {}, const ComputeBackend<T>& be = {})
{
    backend::forEachRow(ps.size(), active, nl, kernel, box, policy, be,
                        [&](const auto& lanes, const auto& wrap, std::size_t i, auto row,
                            std::size_t) {
                            backend::densityParticle(ps, i, row.data, row.count, lanes,
                                                     wrap);
                        });
}

} // namespace sphexa
