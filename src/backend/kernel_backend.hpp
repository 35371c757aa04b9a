#pragma once

/// \file kernel_backend.hpp
/// The compute-backend dispatch seam of the phase kernels (ROADMAP:
/// "pluggable execution backend beyond the thread pool").
///
/// Phases E-H (density, IAD, div/curl, momentum-energy) are thin shells
/// over one per-particle function template each (src/backend/*_kernel.hpp),
/// generic over the shape evaluator whose width sets the lane tile
/// (lane_kernel.hpp). The backend picks the evaluator, and forEachRow below
/// is the one place that turns that choice into a loop:
///
///  - Simd:   the kLaneWidth instance and the shipped E-H path (the
///    SimulationConfig default). Bitwise pool-size- and strategy-invariant
///    (fixed-order lane reduction), but it differs from Scalar by FP
///    re-association of the neighbor sums and, for Sinc, by the lookup
///    table (tolerance-gated in tests/test_backend.cpp).
///  - Scalar: the 1-lane instance, bitwise identical to the seed solver's
///    per-pair loops (kept as the oracle in tests/backend_oracle.hpp): the
///    exact-Sinc reference.
///
/// For the closed-form kernels both evaluators compute each pair's f and f'
/// with the one closedFormShape of sph/kernels.hpp, bitwise alike.
///
/// The selection is a SimulationConfig field plumbed by the drivers through
/// StepContext into the phase ops of forcePipeline (core/propagator.hpp);
/// standalone callers of computeDensity & friends that pass no
/// ComputeBackend get Scalar.

#include <cstddef>
#include <span>

#include "backend/lane_kernel.hpp"
#include "backend/simd_tile.hpp"
#include "domain/box.hpp"
#include "parallel/parallel_for.hpp"
#include "sph/kernels.hpp"
#include "tree/neighbors.hpp"

namespace sphexa {

/// Which shape evaluator the SPH phase shells run their kernels with.
enum class KernelBackend
{
    Scalar,
    Simd,
};

/// The dispatch handle a phase shell receives: the backend kind plus the
/// driver-owned lane evaluator (StepContext::lanes). Null-safe for
/// standalone phase calls (tests, benches, perf/cost_model.hpp): a Simd
/// dispatch with no lanes builds a transient evaluator — correct, just
/// re-tabulating the sinc tables on every call.
template<class T>
struct ComputeBackend
{
    KernelBackend kind = KernelBackend::Scalar;
    const LaneKernel<T>* lanes = nullptr;
};

namespace backend {

/// The dispatch block of every phase shell: calls
/// fn(lanes, wrap, i, nl.row(i), worker) for each particle i of \p active
/// (all \p n particles when empty) under \p policy. lanes is the evaluator
/// \p be selects: LaneKernel for Simd, ScalarLane otherwise.
template<class T, class Fn>
void forEachRow(std::size_t n, std::span<const std::size_t> active, const NeighborList<T>& nl,
                const Kernel<T>& kernel, const Box<T>& box, const LoopPolicy& policy,
                const ComputeBackend<T>& be, Fn&& fn)
{
    const PeriodicWrap<T> wrap(box);
    auto run = [&](const auto& lanes) {
        parallelFor(
            active.empty() ? n : active.size(),
            [&](std::size_t idx, std::size_t worker) {
                std::size_t i = active.empty() ? idx : active[idx];
                fn(lanes, wrap, i, nl.row(i), worker);
            },
            policy);
    };
    if (be.kind == KernelBackend::Scalar)
        run(ScalarLane<T>(kernel));
    else if (be.lanes)
        run(*be.lanes);
    else
        run(LaneKernel<T>(kernel));
}

} // namespace backend
} // namespace sphexa
