#pragma once

/// \file divcurl.hpp
/// Velocity divergence and curl, plus the Balsara (1995) artificial-
/// viscosity limiter
///     f_a = |div v| / (|div v| + |curl v| + 1e-4 c_a / h_a),
/// which suppresses AV in pure shear flows — essential for the rotating
/// square patch, which is exactly such a flow.

#include <span>
#include <type_traits>

#include "backend/divcurl_kernel.hpp"
#include "backend/kernel_backend.hpp"
#include "domain/box.hpp"
#include "parallel/parallel_for.hpp"
#include "sph/iad.hpp"
#include "sph/kernels.hpp"
#include "sph/particles.hpp"
#include "tree/neighbors.hpp"

namespace sphexa {

/// Phase G of Algorithm 1: fills ps.divv, ps.curlv (magnitude), and the
/// ps.balsara limiter for every particle in `active` (all particles when
/// empty). Gradients use IAD coefficients or plain kernel derivatives
/// according to `mode`; requires density/volume and, for IAD, the phase-F
/// coefficients to be up to date. A shell over backend::divCurlParticle,
/// run by the backend \p be selects (Scalar when defaulted; see
/// backend/kernel_backend.hpp).
template<class T>
void computeDivCurl(ParticleSet<T>& ps, const NeighborList<T>& nl, const Kernel<T>& kernel,
                    const Box<T>& box, GradientMode mode,
                    std::type_identity_t<std::span<const std::size_t>> active = {},
                    const LoopPolicy& policy = {}, const ComputeBackend<T>& be = {})
{
    backend::forEachRow(ps.size(), active, nl, kernel, box, policy, be,
                        [&](const auto& lanes, const auto& wrap, std::size_t i, auto row,
                            std::size_t) {
                            backend::divCurlParticle(ps, i, row.data, row.count, lanes, wrap,
                                                     mode);
                        });
}

} // namespace sphexa
