#pragma once

/// \file momentum_energy.hpp
/// SPH momentum and energy equations (step 3 of Algorithm 1), in both
/// gradient formulations of Table 2:
///
///  - Kernel derivatives (ChaNGa, SPH-flow):
///      dv_a/dt = -sum_b m_b [ P_a/(Om_a rho_a^2) gradW_ab(h_a)
///                           + P_b/(Om_b rho_b^2) gradW_ab(h_b) ]  + AV
///  - IAD (SPHYNX): gradW_ab(h_a) replaced by A_ab(h_a) = C(a) r_ba W_ab.
///
/// Artificial viscosity is Monaghan (1992) with the Balsara switch:
///      Pi_ab = (-alpha cbar mu + beta mu^2)/rhobar * (f_a + f_b)/2,
///      mu = hbar v_ab.r_ab / (r^2 + eps hbar^2)  when v_ab.r_ab < 0.
///
/// The loop is accumulate-to-self only (no scatter), making it lock-free;
/// exact pairwise antisymmetry (and therefore momentum conservation) holds
/// when every row is followed by the sources it misses for pair symmetry
/// (phase D's buckets, findMissingPairs in tree/neighbors.hpp).
///
/// Each call first packs every particle's non-position fields into one
/// record (MomentumRecordBuffer, backend/momentum_kernel.hpp), so the pair
/// loop reads a neighbor from one place instead of 15 arrays. The records
/// are rewritten on every call and never reused across calls.

#include <algorithm>
#include <span>
#include <type_traits>
#include <vector>

#include "backend/kernel_backend.hpp"
#include "backend/momentum_kernel.hpp"
#include "domain/box.hpp"
#include "parallel/parallel_for.hpp"
#include "sph/iad.hpp"
#include "sph/kernels.hpp"
#include "sph/particles.hpp"
#include "tree/neighbors.hpp"

namespace sphexa {

/// Compute accelerations ax/ay/az and du/dt for all particles.
/// Gravity is accumulated separately and must be added afterwards.
/// A shell over backend::momentumEnergyParticle (whose header also defines
/// ArtificialViscosity, MomentumEnergyStats and the record buffer), run by
/// the backend \p be selects (Scalar when defaulted; see
/// backend/kernel_backend.hpp). The shell owns the cross-particle vsig max
/// reduction. \p records is the driver's persistent record buffer;
/// null-safe, a standalone call packs into a transient one. \p pairs are
/// phase D's buckets over \p nl (null: the rows alone): a row whose kept
/// bucket is not empty is summed as the row followed by that bucket,
/// copied into the worker's staging row.
template<class T>
MomentumEnergyStats<T> computeMomentumEnergy(ParticleSet<T>& ps, const NeighborList<T>& nl,
                                             const Kernel<T>& kernel, const Box<T>& box,
                                             GradientMode mode,
                                             const ArtificialViscosity<T>& av = {},
                                             std::type_identity_t<std::span<const std::size_t>> active = {},
                                             const LoopPolicy& policy = {},
                                             const ComputeBackend<T>& be = {},
                                             MomentumRecordBuffer<T>* records = nullptr,
                                             MissingPairs<T>* pairs = nullptr)
{
    using Index = typename NeighborList<T>::Index;
    // every particle, active or not, can be a neighbor: pack them all. The
    // uniform pack must not adapt the AWF weights the pair loop below is
    // calibrated by, as in phase E's volume-element loop
    LoopPolicy packPol = policy;
    packPol.awfWeights = nullptr;
    MomentumRecordBuffer<T> local;
    const auto* rec = (records ? *records : local).pack(ps, packPol);

    // exact max reduction over per-worker partials: max is selection, not
    // accumulation, so the result is bitwise identical for any pool size,
    // strategy, or chunk boundary
    std::vector<WorkerSlot<T>> workerVsig(parallelForWorkers());
    // each worker stages its merged rows in its own ngmax entries
    const std::size_t ngmax = nl.ngmax();
    if (pairs && pairs->staging.size() < workerVsig.size() * ngmax)
        pairs->staging.resize(workerVsig.size() * ngmax);
    backend::forEachRow(ps.size(), active, nl, kernel, box, policy, be,
                        [&](const auto& lanes, const auto& wrap, std::size_t i, auto row,
                            std::size_t worker) {
                            auto extra = pairs ? pairs->kept(nl, i) : std::span<const Index>{};
                            if (!extra.empty())
                            {
                                auto* merged = pairs->staging.data() + worker * ngmax;
                                std::copy_n(row.data, row.count, merged);
                                std::copy_n(extra.data(), extra.size(), merged + row.count);
                                row = {merged, row.count + extra.size()};
                            }
                            T vsigI = backend::momentumEnergyParticle(
                                ps, rec, i, row.data, row.count, lanes, wrap, mode, av);
                            workerVsig[worker].value =
                                std::max(workerVsig[worker].value, vsigI);
                        });
    T maxVsig = T(0);
    for (const auto& v : workerVsig)
        maxVsig = std::max(maxVsig, v.value);
    return {maxVsig};
}

} // namespace sphexa
