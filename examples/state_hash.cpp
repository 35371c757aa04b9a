/// \file state_hash.cpp
/// Final-state fingerprint of every golden scenario: Sedov, Evrard, binned
/// Evrard, the rotating square patch and the dam break, each run for a few
/// steps under both compute backends. One line per scenario and backend:
///
///   <scenario> <backend> <steps> <crc>
///
/// The crc is order-free: per field, ChecksumDetector's sum of the CRC of
/// every particle's (id, value) pair, then one CRC over those per-field
/// sums. Two builds that keep the same bits print the same lines, so
/// `diff` of two runs is the same-bits check between, say, a portable
/// (-march=x86-64) and a host-ISA build (ci/run_same_bits.sh).
///
///   ./state_hash [stepCount]

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "backend/kernel_backend.hpp"
#include "core/simulation.hpp"
#include "ft/sdc.hpp"
#include "ic/dam_break.hpp"
#include "ic/evrard.hpp"
#include "ic/sedov.hpp"
#include "ic/square_patch.hpp"
#include "io/serialize.hpp"

using namespace sphexa;

namespace {

/// One CRC over every floating-point field of the set, independent of the
/// order the particles are stored in.
std::uint64_t stateCrc(const ParticleSetD& ps)
{
    std::vector<std::uint64_t> fieldCrcs;
    for (const auto* f : ps.realFields())
        fieldCrcs.push_back(ChecksumDetector<double>::crcOf(ps.id, *f));
    return Crc64::compute(reinterpret_cast<const std::byte*>(fieldCrcs.data()),
                          fieldCrcs.size() * sizeof(std::uint64_t));
}

Simulation<double> sedov(KernelBackend backend)
{
    ParticleSetD ps;
    SedovConfig<double> ic;
    ic.nSide   = 12;
    auto setup = makeSedov(ps, ic);
    SimulationConfig<double> cfg;
    cfg.targetNeighbors    = 50;
    cfg.neighborTolerance  = 10;
    cfg.timestep.initialDt = 1e-6;
    cfg.kernelBackend      = backend;
    return {std::move(ps), setup.box, Eos<double>(setup.eos), cfg};
}

Simulation<double> evrard(KernelBackend backend, bool binned)
{
    ParticleSetD ps;
    EvrardConfig<double> ic;
    ic.nSide   = binned ? 14 : 16;
    auto setup = makeEvrard(ps, ic);
    SimulationConfig<double> cfg;
    cfg.selfGravity       = true;
    cfg.gravity.G         = 1.0;
    cfg.gravity.theta     = 0.5;
    cfg.gravity.softening = 0.02;
    cfg.targetNeighbors   = 60;
    cfg.neighborTolerance = 10;
    cfg.kernelBackend     = backend;
    if (binned)
    {
        cfg.timestep.mode       = TimesteppingMode::Individual;
        cfg.neighborMode        = NeighborMode::IndividualTreeWalk;
        cfg.timestep.cflCourant = 0.25;
    }
    return {std::move(ps), setup.box, Eos<double>(setup.eos), cfg};
}

Simulation<double> squarePatch(KernelBackend backend)
{
    ParticleSetD ps;
    SquarePatchConfig<double> ic;
    ic.nx = ic.ny = 16;
    ic.nz         = 8;
    auto setup    = makeSquarePatch(ps, ic);
    auto cfg      = squarePatchConfig(setup);
    cfg.targetNeighbors   = 60;
    cfg.neighborTolerance = 10;
    cfg.kernelBackend     = backend;
    return {std::move(ps), setup.box, cfg};
}

Simulation<double> damBreak(KernelBackend backend)
{
    ParticleSetD ps;
    DamBreakConfig<double> ic;
    ic.nx = ic.ny = 16;
    ic.nz         = 4;
    auto setup    = makeDamBreak(ps, ic);
    auto cfg      = damBreakConfig(ic, setup);
    cfg.targetNeighbors    = 60;
    cfg.neighborTolerance  = 10;
    cfg.timestep.initialDt = 1e-4;
    cfg.kernelBackend      = backend;
    return {std::move(ps), setup.box, cfg};
}

} // namespace

int main(int argc, char** argv)
{
    int steps = argc > 1 ? std::atoi(argv[1]) : 20;

    struct Scenario
    {
        const char* name;
        Simulation<double> (*make)(KernelBackend);
    };
    const Scenario scenarios[] = {
        {"sedov", sedov},
        {"evrard", [](KernelBackend b) { return evrard(b, false); }},
        {"evrard-binned", [](KernelBackend b) { return evrard(b, true); }},
        {"square-patch", squarePatch},
        {"dam-break", damBreak},
    };
    for (const auto& s : scenarios)
    {
        for (KernelBackend backend : {KernelBackend::Scalar, KernelBackend::Simd})
        {
            Simulation<double> sim = s.make(backend);
            sim.computeForces();
            sim.run(steps);
            std::printf("%s %s %d %016llx\n", s.name,
                        backend == KernelBackend::Simd ? "simd" : "scalar", steps,
                        static_cast<unsigned long long>(stateCrc(sim.particles())));
        }
    }
    return 0;
}
