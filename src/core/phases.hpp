#pragma once

/// \file phases.hpp
/// The workflow phases of the paper's Algorithm 1 / Fig. 4 timeline,
/// lettered as in the Extrae trace. Split out of step_context.hpp so the
/// low-level layers (SimulationConfig's per-phase scheduling map, the
/// propagator, the tracer) can all name phases without pulling in the
/// whole step-context vocabulary.

#include <string_view>

namespace sphexa {

/// Workflow phases, lettered as in the paper's Fig. 4.
enum class Phase : int
{
    A_TreeBuild = 0,
    B_NeighborSearch,
    C_SmoothingLength,
    D_NeighborSymmetrize,
    E_Density,
    F_EosAndIad,
    G_DivCurl,
    H_MomentumEnergy,
    I_SelfGravity,
    J_TimestepUpdate,
    /// Wall mirror-ghost bracket (sph/boundaries.hpp): appended after the
    /// paper's lettered phases so A..J keep their Fig. 4 values.
    K_GhostExchange,
    /// SFC particle reordering (tree/sfc_sort.hpp): runs FIRST in the
    /// pipelines that enable it (before the ghost bracket and tree build),
    /// but is lettered after K so A..K keep their established values.
    L_SfcSort,
    Count
};

constexpr int phaseCount = int(Phase::Count);

constexpr std::string_view phaseName(Phase p)
{
    switch (p)
    {
        case Phase::A_TreeBuild: return "A:tree-build";
        case Phase::B_NeighborSearch: return "B:neighbor-search";
        case Phase::C_SmoothingLength: return "C:smoothing-length";
        case Phase::D_NeighborSymmetrize: return "D:neighbor-symmetrize";
        case Phase::E_Density: return "E:density";
        case Phase::F_EosAndIad: return "F:eos+iad";
        case Phase::G_DivCurl: return "G:div-curl";
        case Phase::H_MomentumEnergy: return "H:momentum-energy";
        case Phase::I_SelfGravity: return "I:self-gravity";
        case Phase::J_TimestepUpdate: return "J:timestep-update";
        case Phase::K_GhostExchange: return "K:ghost-exchange";
        case Phase::L_SfcSort: return "L:sfc-sort";
        default: return "?";
    }
}

} // namespace sphexa
