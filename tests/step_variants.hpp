#pragma once

/// \file step_variants.hpp
/// Test helpers for comparing the shipped step across storage frames and
/// drivers: op-list variants of a pipeline (without phase L, with the
/// per-particle walk in phase B, without phase D's missing pairs) and a
/// bitwise comparison of two runs joined on particle id. Used by the golden
/// gallery and the driver-equivalence tests.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

#include "core/simulation.hpp"
#include "neighbor_oracle.hpp"

namespace sphexa {

/// \p pipeline's op list without phase L (\p reorder false) and with phase
/// B's cluster search swapped for the per-particle walk,
/// oracle::findNeighborsGlobal (\p perParticleWalk true). For runs of
/// Global walks only.
inline Propagator<double> variantOf(const Propagator<double>& pipeline, bool reorder,
                                    bool perParticleWalk)
{
    std::vector<PhaseOp<double>> ops;
    for (const auto& seg : pipeline.segments())
    {
        for (const auto& op : seg.ops)
        {
            if (op.phase == Phase::L_SfcSort && !reorder) continue;
            if (op.phase == Phase::B_NeighborSearch && perParticleWalk)
            {
                ops.push_back({Phase::B_NeighborSearch, [](StepContext<double>& ctx) {
                                   auto& ps = ctx.ps;
                                   ctx.nl.resetOverflow();
                                   oracle::findNeighborsGlobal(
                                       ctx.tree, ps.x, ps.y, ps.z, ps.h, ctx.nl,
                                       ctx.loopPolicy(Phase::B_NeighborSearch));
                                   ctx.report.activeParticles = ps.size();
                               }});
                continue;
            }
            ops.push_back(op);
        }
    }
    return PipelineFactory<double>::custom(std::move(ops));
}

/// \p pipeline's op list with phase D reduced to its two counters,
/// nl.overflowCount() and nl.totalNeighbors(): no missing pairs are
/// bucketed, so phase H sums the rows alone, as it does on the distributed
/// driver's Subset walks. For comparing a Simulation with that driver.
inline Propagator<double> withoutMissingPairs(const Propagator<double>& pipeline)
{
    std::vector<PhaseOp<double>> ops;
    for (const auto& seg : pipeline.segments())
    {
        for (const auto& op : seg.ops)
        {
            if (op.phase != Phase::D_NeighborSymmetrize)
            {
                ops.push_back(op);
                continue;
            }
            ops.push_back({Phase::D_NeighborSymmetrize, [](StepContext<double>& ctx) {
                               ctx.report.neighborOverflow     = ctx.nl.overflowCount();
                               ctx.report.neighborInteractions = ctx.nl.totalNeighbors();
                           }});
        }
    }
    return PipelineFactory<double>::custom(std::move(ops));
}

/// Bitwise the same particles after a join on id (storage orders may
/// differ; both runs must hold the same ids); the conservation diagnostics
/// sum in storage order, so they may differ by FP re-association only —
/// never by physics.
inline void expectSamePhysicsById(const Simulation<double>& a, const Simulation<double>& b)
{
    const auto& pa = a.particles();
    const auto& pb = b.particles();
    ASSERT_EQ(pa.size(), pb.size());
    auto aById = pa.idOrder();
    auto bById = pb.idOrder();
    for (std::size_t k = 0; k < pa.size(); ++k)
    {
        std::size_t i = aById[k];
        std::size_t j = bById[k];
        ASSERT_EQ(pa.id[i], pb.id[j]);
        ASSERT_EQ(pa.x[i], pb.x[j]) << "id " << pa.id[i];
        ASSERT_EQ(pa.y[i], pb.y[j]) << "id " << pa.id[i];
        ASSERT_EQ(pa.z[i], pb.z[j]) << "id " << pa.id[i];
        ASSERT_EQ(pa.vx[i], pb.vx[j]) << "id " << pa.id[i];
        ASSERT_EQ(pa.vy[i], pb.vy[j]) << "id " << pa.id[i];
        ASSERT_EQ(pa.vz[i], pb.vz[j]) << "id " << pa.id[i];
        ASSERT_EQ(pa.rho[i], pb.rho[j]) << "id " << pa.id[i];
        ASSERT_EQ(pa.u[i], pb.u[j]) << "id " << pa.id[i];
        ASSERT_EQ(pa.p[i], pb.p[j]) << "id " << pa.id[i];
        ASSERT_EQ(pa.du[i], pb.du[j]) << "id " << pa.id[i];
        ASSERT_EQ(pa.h[i], pb.h[j]) << "id " << pa.id[i];
    }

    auto ca = a.conservation();
    auto cb = b.conservation();
    EXPECT_NEAR(cb.kineticEnergy, ca.kineticEnergy,
                1e-12 * std::max(1.0, std::abs(ca.kineticEnergy)));
    EXPECT_NEAR(cb.internalEnergy, ca.internalEnergy,
                1e-12 * std::max(1.0, std::abs(ca.internalEnergy)));
    EXPECT_EQ(cb.mass, ca.mass);
}

} // namespace sphexa
