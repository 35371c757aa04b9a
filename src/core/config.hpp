#pragma once

/// \file config.hpp
/// Feature configuration of the mini-app: the runtime-selectable options of
/// Tables 2 and 4 of the paper. A SimulationConfig fully determines which
/// algorithm variants the driver executes; the parent-code emulation
/// profiles (code_profiles.hpp) are simply named presets of this struct.

#include <array>
#include <cstddef>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "backend/kernel_backend.hpp"
#include "core/phases.hpp"
#include "domain/orb.hpp"
#include "domain/sfc_partition.hpp"
#include "domain/slab.hpp"
#include "math/vec.hpp"
#include "parallel/parallel_for.hpp"
#include "sph/boundaries.hpp"
#include "sph/density.hpp"
#include "sph/eos.hpp"
#include "sph/iad.hpp"
#include "sph/kernels.hpp"
#include "sph/momentum_energy.hpp"
#include "sph/timestep.hpp"
#include "tree/gravity.hpp"
#include "tree/hilbert.hpp"
#include "tree/multipole.hpp"
#include "tree/octree.hpp"

namespace sphexa {

/// Neighbor discovery mode (Table 1: "Global Tree Walk" vs individual).
enum class NeighborMode
{
    GlobalTreeWalk,
    IndividualTreeWalk,
};

constexpr std::string_view neighborModeName(NeighborMode m)
{
    return m == NeighborMode::GlobalTreeWalk ? "Global Tree Walk" : "Individual Tree Walk";
}

/// Domain decomposition method (Tables 3 and 4). Slab1D is SPHYNX's
/// "Straightforward" decomposition: contiguous slabs along one axis —
/// simple, but with the worst surface-to-volume ratio of the three.
enum class DecompositionMethod
{
    OrthogonalRecursiveBisection,
    SpaceFillingCurve,
    Slab1D,
};

constexpr std::string_view decompositionName(DecompositionMethod m)
{
    switch (m)
    {
        case DecompositionMethod::OrthogonalRecursiveBisection:
            return "Orthogonal Recursive Bisection";
        case DecompositionMethod::SpaceFillingCurve: return "Space Filling Curve";
        case DecompositionMethod::Slab1D: return "Straightforward (1D slabs)";
    }
    return "?";
}

/// Per-phase scheduling strategies for the ParallelFor hot loops (Table 4:
/// "DLB with self-scheduling"): which self-scheduling rule each phase of
/// Algorithm 1 runs under. The default maps the uniform per-particle loops
/// (EOS, integrator, time-step) to STATIC and the neighbor-bound SPH sums
/// (density, IAD, div/curl, momentum-energy) to FAC, whose decreasing
/// batches absorb the per-particle cost spread of clustered neighborhoods
/// at a fraction of pure self-scheduling's overhead. Chunk boundaries never
/// affect results (the loops are accumulate-to-self), so any assignment is
/// bitwise-equivalent — strategy choice is purely a load-balance knob.
struct PhaseSchedule
{
    constexpr PhaseSchedule()
    {
        strategies.fill(SchedulingStrategy::Static);
        for (Phase p : {Phase::E_Density, Phase::F_EosAndIad, Phase::G_DivCurl,
                        Phase::H_MomentumEnergy})
        {
            strategies[std::size_t(p)] = SchedulingStrategy::Factoring;
        }
    }

    /// One strategy for every phase (profile presets use this wholesale).
    constexpr void fill(SchedulingStrategy s) { strategies.fill(s); }

    /// One strategy for the neighbor-bound SPH phases E..H only, the hot
    /// loops the scheduling ablation targets.
    constexpr void fillSphPhases(SchedulingStrategy s)
    {
        for (Phase p : {Phase::E_Density, Phase::F_EosAndIad, Phase::G_DivCurl,
                        Phase::H_MomentumEnergy})
        {
            strategies[std::size_t(p)] = s;
        }
    }

    constexpr SchedulingStrategy& operator[](Phase p) { return strategies[std::size_t(p)]; }
    constexpr SchedulingStrategy operator[](Phase p) const
    {
        return strategies[std::size_t(p)];
    }

    /// The LoopPolicy phase \p p's ParallelFor loops run under: its
    /// strategy, the phase's persistent AWF weights from \p awf (when one
    /// is attached and the strategy is AWF), busy-time accounting into
    /// \p stats. Both drivers build every phase policy here.
    LoopPolicy loopPolicy(Phase p, AwfWeightStore* awf, PhaseLoadStats& stats) const
    {
        LoopPolicy pol;
        pol.strategy = (*this)[p];
        if (pol.strategy == SchedulingStrategy::AdaptiveWeightedFactoring && awf)
        {
            pol.awfWeights = &awf->weightsFor(std::size_t(p));
        }
        pol.stats = &stats;
        return pol;
    }

    std::array<SchedulingStrategy, phaseCount> strategies{};
};

/// Scientific + computer-science feature selection for one simulation.
template<class T>
struct SimulationConfig
{
    // --- scientific features (Table 2) ---
    KernelType kernel = KernelType::Sinc;
    T sincExponent    = T(5);
    GradientMode gradients = GradientMode::IAD;
    VolumeElements volumeElements = VolumeElements::Generalized;
    T veExponent = T(0.9);
    /// Time-step control (sph/timestep.hpp). Individual mode together with
    /// IndividualTreeWalk below makes the shared-memory driver run binned
    /// integration: the same force pipeline as global stepping, with every
    /// pass after set-up walking only the active 2^k bins (ActiveSubset)
    /// while the rest of the set is drifted. Both drivers reject either one
    /// without the other, and binned stepping rejects walls and a body
    /// force (checkSteppingRule).
    TimestepParams<T> timestep{};
    NeighborMode neighborMode = NeighborMode::GlobalTreeWalk;

    bool selfGravity = false;
    GravityParams<T> gravity{};

    ArtificialViscosity<T> av{};

    // --- free-surface features (sph/eos.hpp, sph/boundaries.hpp) ---
    /// SPH-flow's weakly-compressible Tait closure; disengaged (the
    /// default), the closure is an ideal gas (eosFromConfig).
    std::optional<TaitEos<T>> taitEos{};
    /// Solid-wall mirror-ghost boundaries: any wall adds phase K's ghost
    /// bracket to the single-rank pipeline.
    BoundaryConfig<T> boundaries{};
    /// Uniform body force (dam-break gravity): a nonzero value adds the
    /// body-force op after phase H's SPH accelerations.
    Vec3<T> constantAccel{T(0), T(0), T(0)};

    // --- discretization control ---
    unsigned targetNeighbors = 100;  ///< ~10^2 per the paper
    unsigned neighborTolerance = 10;
    /// Per-row cap of the neighbor lists: a longer neighborhood is cut at
    /// ngmax and counted as an overflow (StepReport::neighborOverflow).
    /// Not the allocation unit: rows are packed into a grow-only arena
    /// (tree/neighbors.hpp) sized by what the neighborhoods hold.
    unsigned ngmax = 384;
    /// Curve of the SFC reorder (phase L, run on every Global walk), the
    /// octree (phases A/B) and the SFC decomposition. Hilbert is the
    /// default: its locality (no octant-boundary jumps) gives the cluster
    /// search ~1.6x fewer candidate tests per cluster member than Morton,
    /// which stays selectable.
    SfcCurve sfcCurve = SfcCurve::Hilbert;
    bool parallelTreeBuild = false;  ///< SPHYNX v1.3.1 built its tree serially
    bool symmetrizeNeighbors = true; ///< exact pairwise momentum conservation

    /// Compute backend of the hot SPH sums (phases E-H): the 8-lane (Simd,
    /// the default, Sinc through a lookup table) or the 1-lane (Scalar,
    /// exact Sinc, bitwise the seed loops — the reference) instance of the
    /// kernels in src/backend/. Simd is gated against Scalar by relative
    /// tolerance (the neighbor-sum association differs); both are bitwise
    /// pool- and strategy-invariant; see docs/ARCHITECTURE.md "Backend
    /// layer".
    KernelBackend kernelBackend = KernelBackend::Simd;

    // --- CS features (Table 4), used by the distributed driver ---
    DecompositionMethod decomposition = DecompositionMethod::SpaceFillingCurve;
    /// Self-scheduling strategy of each phase's ParallelFor loops.
    PhaseSchedule phaseSchedule{};
};

/// Whether a configuration's body force is nonzero.
template<class T>
bool hasBodyForce(const SimulationConfig<T>& cfg)
{
    const Vec3<T>& g = cfg.constantAccel;
    return g.x != T(0) || g.y != T(0) || g.z != T(0);
}

/// The equation of state a configuration selects: its Tait closure when
/// one is set, an ideal gas (\p idealGamma) otherwise.
template<class T>
Eos<T> eosFromConfig(const SimulationConfig<T>& cfg, T idealGamma = T(5) / T(3))
{
    if (cfg.taitEos) return Eos<T>(*cfg.taitEos);
    return Eos<T>(IdealGasEos<T>(idealGamma));
}

/// The stepping rule both drivers' constructors hold a config to:
/// Individual time-stepping and the IndividualTreeWalk go together, since
/// either one alone would silently run global stepping; and binned
/// stepping runs neither walls nor a body force (the active set would
/// list the mirror ghosts, and the body force would kick inactive
/// particles every base step). Throws std::invalid_argument naming
/// \p driver otherwise.
template<class T>
void checkSteppingRule(const SimulationConfig<T>& cfg, const std::string& driver)
{
    const bool individual = cfg.timestep.mode == TimesteppingMode::Individual;
    if (individual != (cfg.neighborMode == NeighborMode::IndividualTreeWalk))
    {
        throw std::invalid_argument(driver + ": Individual time-stepping and the "
                                             "IndividualTreeWalk neighbor mode go together");
    }
    if (individual && (cfg.boundaries.anyWall() || hasBodyForce(cfg)))
    {
        throw std::invalid_argument(driver + ": Individual time-stepping runs neither "
                                             "walls nor a body force");
    }
}

/// The octree parameters a configuration selects: phase A's trees, the
/// distributed driver's replicated gravity tree (which must be the tree
/// phase A builds) and the scaling probe's per-rank trees, all at
/// BuildParams' default leaf size of 64.
template<class T>
typename Octree<T>::BuildParams treeBuildParams(const SimulationConfig<T>& cfg)
{
    typename Octree<T>::BuildParams bp;
    bp.curve         = cfg.sfcCurve;
    bp.parallelBuild = cfg.parallelTreeBuild;
    return bp;
}

/// The owning rank of each particle under the configuration's domain
/// decomposition (Tables 3/4), from positions and work weights: the one
/// dispatch of the distributed driver's migration and the scaling probe.
template<class T>
std::vector<int> decomposeDomain(const SimulationConfig<T>& cfg, std::span<const T> x,
                                 std::span<const T> y, std::span<const T> z,
                                 std::span<const T> w, int ranks, const Box<T>& box)
{
    if (cfg.decomposition == DecompositionMethod::OrthogonalRecursiveBisection)
        return orbDecompose<T>(x, y, z, w, ranks, box).assignment;
    if (cfg.decomposition == DecompositionMethod::Slab1D)
        return slabDecompose<T>(x, y, z, w, ranks, box).assignment;
    return sfcPartition<T>(x, y, z, w, ranks, box, cfg.sfcCurve).assignment;
}

} // namespace sphexa
