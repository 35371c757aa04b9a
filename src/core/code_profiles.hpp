#pragma once

/// \file code_profiles.hpp
/// Emulation profiles of the three parent codes, straight from Tables 1 and
/// 3 of the paper, plus the SPH-EXA mini-app target configuration of
/// Tables 2 and 4.
///
/// A profile is (a) a SimulationConfig preset selecting the parent's
/// algorithm variants — so the feature-dependent behaviour (individual
/// time-stepping, IAD cost, gravity order, decomposition method) flows from
/// the real code paths — and (b) the descriptive metadata needed to
/// regenerate the comparison tables, and (c) a cost scale calibrating the
/// simulated absolute per-step times to the paper's measurements (each
/// profile's costScale* comment derives its ratio from Figs. 1-3; each
/// bench/bench_fig*.cpp passes its curve's 12-core anchor to
/// runScalingCurve, which hands it to normalizeToAnchor).

#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/propagator.hpp"

namespace sphexa {

/// Load-balancing strategies named in Table 3/4.
enum class LoadBalancingStrategy
{
    StaticNone,       ///< SPHYNX: "None (static)"
    Dynamic,          ///< ChaNGa: measurement-driven rebalancing
    LocalInnerOuter,  ///< SPH-flow: overlap-oriented local scheme
    DlbSelfScheduling ///< SPH-EXA target: DLB with self-scheduling per level
};

constexpr std::string_view loadBalancingName(LoadBalancingStrategy s)
{
    switch (s)
    {
        case LoadBalancingStrategy::StaticNone: return "None (static)";
        case LoadBalancingStrategy::Dynamic: return "Dynamic";
        case LoadBalancingStrategy::LocalInnerOuter: return "Local-Inner-Outer";
        case LoadBalancingStrategy::DlbSelfScheduling: return "DLB with self-scheduling";
    }
    return "?";
}

/// The per-phase ParallelFor schedule a Table 3/4 load-balancing row maps
/// onto: the neighbor-bound SPH phases (E..H) carry the profile's
/// self-scheduling character, the uniform loops stay STATIC.
///  - "None (static)"            -> STATIC everywhere (SPHYNX)
///  - "Dynamic"                  -> GSS, measurement-free decreasing chunks
///                                  standing in for ChaNGa's rebalancing
///  - "Local-Inner-Outer"        -> TSS, the linear taper matching SPH-flow's
///                                  overlap-oriented local scheme
///  - "DLB with self-scheduling" -> AWF, the adaptive factoring the SPH-EXA
///                                  target names in Table 4
constexpr PhaseSchedule phaseScheduleFor(LoadBalancingStrategy s)
{
    PhaseSchedule sched;
    sched.fill(SchedulingStrategy::Static);
    switch (s)
    {
        case LoadBalancingStrategy::StaticNone: break;
        case LoadBalancingStrategy::Dynamic:
            sched.fillSphPhases(SchedulingStrategy::Guided);
            break;
        case LoadBalancingStrategy::LocalInnerOuter:
            sched.fillSphPhases(SchedulingStrategy::Trapezoid);
            break;
        case LoadBalancingStrategy::DlbSelfScheduling:
            sched.fillSphPhases(SchedulingStrategy::AdaptiveWeightedFactoring);
            break;
    }
    return sched;
}

/// One parent code (or the mini-app itself) as a named configuration.
template<class T>
struct CodeProfile
{
    std::string name;
    std::string version;

    SimulationConfig<T> config;

    // Table 1 metadata (strings as printed in the paper)
    std::string kernelDesc;
    std::string gradientsDesc;
    std::string volumeElementsDesc;
    std::string massDesc;
    std::string timeSteppingDesc;
    std::string neighborDesc;
    std::string gravityDesc;

    // Table 3 metadata
    std::string domainDecompositionDesc;
    LoadBalancingStrategy loadBalancing = LoadBalancingStrategy::StaticNone;
    bool checkpointRestart = true;
    std::string precisionDesc = "64-bit";
    std::string language;
    std::string parallelization;
    std::size_t linesOfCode = 0;

    /// Relative per-interaction cost on the square patch and on Evrard,
    /// normalized to SPHYNX = 1 on each test. Calibrated from the 12-core
    /// points of Figs. 1-3 (each profile's comment gives the ratio);
    /// encodes implementation overheads our feature emulation cannot
    /// reproduce (e.g. ChaNGa's gravity-oriented tree being exercised by a
    /// pure-CFD test).
    T costScaleSquare = T(1);
    T costScaleEvrard = T(1);
};

/// SPHYNX v1.3.1 (Table 1/3 row 1).
template<class T>
CodeProfile<T> sphynxProfile()
{
    CodeProfile<T> p;
    p.name    = "SPHYNX";
    p.version = "1.3.1";

    p.config.kernel         = KernelType::Sinc;
    p.config.sincExponent   = T(5);
    p.config.gradients      = GradientMode::IAD;
    p.config.volumeElements = VolumeElements::Generalized;
    p.config.timestep.mode  = TimesteppingMode::Global;
    p.config.neighborMode   = NeighborMode::GlobalTreeWalk;
    p.config.gravity.order  = MultipoleOrder::Quadrupole;
    p.config.decomposition  = DecompositionMethod::Slab1D; // "Straightforward"

    p.kernelDesc              = "Sinc";
    p.gradientsDesc           = "IAD";
    p.volumeElementsDesc      = "Generalized";
    p.massDesc                = "Equal or Variable";
    p.timeSteppingDesc        = "Global";
    p.neighborDesc            = "Tree Walk";
    p.gravityDesc             = "Multipoles (4-pole)";
    p.domainDecompositionDesc = "Straightforward";
    p.loadBalancing           = LoadBalancingStrategy::StaticNone;
    p.config.phaseSchedule    = phaseScheduleFor(p.loadBalancing);
    p.language                = "Fortran 90,";
    p.parallelization         = "MPI+OpenMP";
    p.linesOfCode             = 25000;
    p.costScaleSquare         = T(1);
    p.costScaleEvrard         = T(1);
    return p;
}

/// ChaNGa v3.3 (Table 1/3 row 2).
template<class T>
CodeProfile<T> changaProfile()
{
    CodeProfile<T> p;
    p.name    = "ChaNGa";
    p.version = "3.3";

    p.config.kernel         = KernelType::WendlandC2; // "Wendland, M4 spline"
    p.config.gradients      = GradientMode::KernelDerivative;
    p.config.volumeElements = VolumeElements::Standard;
    p.config.timestep.mode  = TimesteppingMode::Individual;
    p.config.neighborMode   = NeighborMode::IndividualTreeWalk;
    p.config.gravity.order  = MultipoleOrder::Hexadecapole;
    p.config.decomposition  = DecompositionMethod::SpaceFillingCurve;

    p.kernelDesc              = "Wendland, M4 spline";
    p.gradientsDesc           = "Kernel derivatives";
    p.volumeElementsDesc      = "Standard";
    p.massDesc                = "Equal or Variable";
    p.timeSteppingDesc        = "Individual";
    p.neighborDesc            = "Tree Walk";
    p.gravityDesc             = "Multipoles (16-pole)";
    p.domainDecompositionDesc = "Space Filling Curve";
    p.loadBalancing           = LoadBalancingStrategy::Dynamic;
    p.config.phaseSchedule    = phaseScheduleFor(p.loadBalancing);
    p.language                = "C++";
    p.parallelization         = "MPI+OpenMP+CUDA";
    p.linesOfCode             = 110000;
    // Fig. 2a vs 1a at 12 cores: 738.0 / 38.25 ~ 19.3; Fig. 2b vs 1c:
    // 30.38 / 40.27 ~ 0.75 (the gravity-first design pays off on Evrard).
    p.costScaleSquare = T(19.3);
    p.costScaleEvrard = T(0.75);
    return p;
}

/// SPH-flow v17.6 (Table 1/3 row 3).
template<class T>
CodeProfile<T> sphflowProfile()
{
    CodeProfile<T> p;
    p.name    = "SPH-flow";
    p.version = "17.6";

    p.config.kernel         = KernelType::WendlandC2;
    p.config.gradients      = GradientMode::KernelDerivative;
    p.config.volumeElements = VolumeElements::Standard;
    p.config.timestep.mode  = TimesteppingMode::Adaptive;
    p.config.neighborMode   = NeighborMode::GlobalTreeWalk;
    p.config.selfGravity    = false; // "Self-Gravity: No"
    p.config.decomposition  = DecompositionMethod::OrthogonalRecursiveBisection;

    p.kernelDesc              = "Wendland";
    p.gradientsDesc           = "Kernel derivatives";
    p.volumeElementsDesc      = "Standard";
    p.massDesc                = "Equal or Adaptive";
    p.timeSteppingDesc        = "Global";
    p.neighborDesc            = "Tree Walk";
    p.gravityDesc             = "No";
    p.domainDecompositionDesc = "Orthogonal Recursive Bisection";
    p.loadBalancing           = LoadBalancingStrategy::LocalInnerOuter;
    p.config.phaseSchedule    = phaseScheduleFor(p.loadBalancing);
    p.language                = "Fortran 90";
    p.parallelization         = "MPI";
    p.linesOfCode             = 37000;
    // Fig. 3 vs 1a at 12 cores: 31.00 / 38.25 ~ 0.81
    p.costScaleSquare = T(0.81);
    p.costScaleEvrard = T(1); // not run (no self-gravity)
    return p;
}

/// The SPH-EXA mini-app target configuration (Tables 2 and 4): the union of
/// the parents' features with the state-of-the-art defaults.
template<class T>
CodeProfile<T> sphexaProfile()
{
    CodeProfile<T> p;
    p.name    = "SPH-EXA";
    p.version = "mini-app";

    p.config.kernel            = KernelType::Sinc;
    p.config.gradients         = GradientMode::IAD;
    p.config.volumeElements    = VolumeElements::Generalized;
    p.config.timestep.mode     = TimesteppingMode::Global;
    p.config.neighborMode      = NeighborMode::GlobalTreeWalk;
    p.config.gravity.order     = MultipoleOrder::Hexadecapole;
    p.config.decomposition     = DecompositionMethod::SpaceFillingCurve;

    p.kernelDesc              = "Sinc, M4 spline, Wendland";
    p.gradientsDesc           = "IAD, Kernel derivatives";
    p.volumeElementsDesc      = "Generalized, Standard";
    p.massDesc                = "Equal, Variable, and Adaptive";
    p.timeSteppingDesc        = "Global, Individual";
    p.neighborDesc            = "Tree Walk";
    p.gravityDesc             = "Multipoles (16-pole)";
    p.domainDecompositionDesc = "Orthogonal Recursive Bisection, Space Filling Curves";
    p.loadBalancing           = LoadBalancingStrategy::DlbSelfScheduling;
    p.config.phaseSchedule    = phaseScheduleFor(p.loadBalancing);
    p.language                = "C++";
    p.parallelization         = "X+Y+Z: X={MPI} Y={OpenMP, HPX} Z={OpenACC, CUDA}";
    p.linesOfCode             = 0; // measured from this repository
    return p;
}

/// The three parent codes in paper order.
template<class T>
std::vector<CodeProfile<T>> parentProfiles()
{
    return {sphynxProfile<T>(), changaProfile<T>(), sphflowProfile<T>()};
}

/// The shared-memory force pipeline a parent-code preset selects: the
/// profile's SimulationConfig determines the phase list declaratively
/// (hydro-only vs hydro+gravity; see core/propagator.hpp).
template<class T>
Propagator<T> pipelineFor(const CodeProfile<T>& profile)
{
    return PipelineFactory<T>::singleRank(profile.config);
}

} // namespace sphexa
