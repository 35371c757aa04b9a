/// \file bench_timestepping.cpp
/// Time-stepping ablation: Global vs Adaptive vs Individual (2^k bins) —
/// Table 2's three modes, run to a MATCHED end time on the Evrard collapse
/// (dense center vs diffuse edge: the widest per-particle dt range of our
/// scenarios). The Individual mode runs binned integration (the
/// compressible pipeline over ActiveSubset walks): only active bins are
/// walked and kicked, so its cost metric is the particle-update count, not
/// the step count.
///
/// Emits one JSON document (BENCH_timestepping.json) and FAILS (exit 1)
/// when a gate breaks:
///   - Individual saves >= SPHEXA_TS_MIN_SAVE % particle-updates vs Global
///     at the matched end time (default 25, the acceptance bar);
///   - energy drift < 1e-3 for Global and Individual (measured at a full
///     bin synchronization, where the binned state is globally consistent);
///   - Individual state is bitwise identical across worker pools {1, 2, 4}.
///
///     ./bench_timestepping > BENCH_timestepping.json
///
/// Knobs: SPHEXA_PROBE_SIDE (lattice side, default 36),
///        SPHEXA_TS_STEPS (Global-mode step count, default 48),
///        SPHEXA_TS_MIN_SAVE (updates-saved gate in percent, default 25).

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/simulation.hpp"
#include "perf/timer.hpp"

using namespace sphexa;
using namespace sphexa::bench;

namespace {

SimulationConfig<double> modeConfig(TimesteppingMode mode)
{
    SimulationConfig<double> cfg;
    cfg.selfGravity       = true;
    cfg.gravity.G         = 1;
    cfg.gravity.theta     = 0.5;
    cfg.gravity.softening = 0.02;
    cfg.targetNeighbors   = 80;
    cfg.neighborTolerance = 10;
    cfg.timestep.mode     = mode;
    // All modes share a slightly tighter Courant factor than the library
    // default: the drift gate integrates several times longer than the
    // 10-step Evrard golden gate, and secular leapfrog drift ~ dt^2 eats
    // the 1e-3 budget at 0.3. A common seed dt replaces the 1e-7 ramp so
    // Adaptive reaches the matched end time in a bounded step count.
    cfg.timestep.cflCourant = 0.25;
    cfg.timestep.initialDt  = 0.01;
    cfg.neighborMode      = mode == TimesteppingMode::Individual
                                ? NeighborMode::IndividualTreeWalk
                                : NeighborMode::GlobalTreeWalk;
    return cfg;
}

struct ModeResult
{
    std::string name;
    std::size_t steps   = 0;
    std::size_t updates = 0;
    double wallSeconds  = 0;
    double endTime      = 0;
    double energyDrift  = 0;
    int maxBin          = 0;
};

/// Run one mode to (at least) \p tEnd; tEnd <= 0 means "run exactly
/// \p stepBudget steps" (the Global reference defining the matched end
/// time). Individual mode continues to the next full synchronization so the
/// closing conservation snapshot is globally consistent.
ModeResult runMode(const ParticleSetD& ic, const Box<double>& box,
                   TimesteppingMode mode, std::size_t stepBudget, double tEnd)
{
    auto cfg = modeConfig(mode);
    Eos<double> eos{IdealGasEos<double>(5.0 / 3.0)};
    Simulation<double> sim(ic, box, eos, cfg);
    sim.computeForces();
    double e0 = sim.conservation().totalEnergy();

    ModeResult res;
    res.name = std::string(timesteppingName(mode));
    std::size_t maxSteps = tEnd > 0 ? stepBudget * 64 : stepBudget;
    Timer wall;
    while (res.steps < maxSteps)
    {
        if (tEnd > 0 && sim.time() >= tEnd && sim.timestepController().atFullSync())
        {
            break;
        }
        auto rep = sim.advance();
        res.updates += rep.activeParticles;
        ++res.steps;
    }
    res.wallSeconds = wall.lap();
    if (tEnd > 0 && sim.time() < tEnd)
    {
        std::fprintf(stderr, "bench_timestepping: %s stalled at t=%g before t=%g\n",
                     res.name.c_str(), sim.time(), tEnd);
        std::exit(1);
    }
    res.endTime = sim.time();
    double e1   = sim.conservation().totalEnergy();
    res.energyDrift = std::abs(e1 - e0) / std::abs(e0);
    res.maxBin      = sim.timestepController().maxUsedBin();
    return res;
}

/// Bitwise pool-size invariance of the binned pipeline: the acceptance
/// gate's {1, 2, 4} sweep over a short Individual-mode run.
bool bitwiseAcrossPools(const ParticleSetD& ic, const Box<double>& box,
                        std::size_t steps)
{
    auto runAt = [&](std::size_t pool) {
        std::size_t saved = WorkerPool::instance().size();
        WorkerPool::instance().resize(pool);
        auto cfg = modeConfig(TimesteppingMode::Individual);
        Eos<double> eos{IdealGasEos<double>(5.0 / 3.0)};
        Simulation<double> sim(ic, box, eos, cfg);
        sim.computeForces();
        sim.run(steps);
        WorkerPool::instance().resize(saved);
        return sim;
    };

    auto ref = runAt(1);
    for (std::size_t pool : {std::size_t{2}, std::size_t{4}})
    {
        auto sim      = runAt(pool);
        const auto& a = ref.particles();
        const auto& b = sim.particles();
        for (std::size_t i = 0; i < a.size(); ++i)
        {
            if (a.x[i] != b.x[i] || a.vx[i] != b.vx[i] || a.u[i] != b.u[i] ||
                a.dt[i] != b.dt[i] || a.bin[i] != b.bin[i])
            {
                std::fprintf(stderr,
                             "bench_timestepping: pool %zu diverges from pool 1 "
                             "at particle %zu\n",
                             pool, i);
                return false;
            }
        }
    }
    return true;
}

void printMode(const ModeResult& r, std::size_t n, const ModeResult* global,
               bool last)
{
    std::printf("    {\"mode\": \"%s\", \"steps\": %zu, \"particle_updates\": %zu, "
                "\"updates_per_step\": %.1f, \"wall_seconds\": %.3f, "
                "\"end_time\": %.6f, \"energy_drift\": %.3e, \"max_bin\": %d",
                r.name.c_str(), r.steps, r.updates, double(r.updates) / double(r.steps),
                r.wallSeconds, r.endTime, r.energyDrift, r.maxBin);
    if (global && global != &r)
    {
        std::printf(", \"updates_saved_vs_global\": %.3f, "
                    "\"wall_speedup_vs_global\": %.3f",
                    1.0 - double(r.updates) / double(global->updates),
                    global->wallSeconds / r.wallSeconds);
    }
    (void)n;
    std::printf("}%s\n", last ? "" : ",");
}

} // namespace

int main()
{
    Box<double> box;
    auto ic = makeProbeIC<double>(TestCase::Evrard, box);
    std::size_t n         = ic.size();
    std::size_t steps     = envSize("SPHEXA_TS_STEPS", 48);
    std::size_t minSavePc = envSize("SPHEXA_TS_MIN_SAVE", 25);

    // the Global reference defines the matched end time
    auto global     = runMode(ic, box, TimesteppingMode::Global, steps, 0.0);
    auto adaptive   = runMode(ic, box, TimesteppingMode::Adaptive, steps, global.endTime);
    auto individual = runMode(ic, box, TimesteppingMode::Individual, steps, global.endTime);
    bool bitwise    = bitwiseAcrossPools(ic, box, std::min<std::size_t>(steps, 12));

    double saved = 1.0 - double(individual.updates) / double(global.updates);

    std::printf("{\n  \"bench\": \"timestepping-modes\",\n");
    std::printf("  \"case\": \"evrard\",\n  \"n\": %zu,\n", n);
    std::printf("  \"global_steps\": %zu,\n", steps);
    std::printf("  \"matched_end_time\": %.6f,\n", global.endTime);
    std::printf("  \"modes\": [\n");
    printMode(global, n, &global, false);
    printMode(adaptive, n, &global, false);
    printMode(individual, n, &global, true);
    std::printf("  ],\n");
    std::printf("  \"bitwise_pools\": [1, 2, 4],\n");
    std::printf("  \"bitwise_identical\": %s\n}\n", bitwise ? "true" : "false");

    bool ok = true;
    if (saved < double(minSavePc) / 100.0)
    {
        std::fprintf(stderr,
                     "bench_timestepping: GATE FAIL updates saved %.1f%% < %zu%%\n",
                     100.0 * saved, minSavePc);
        ok = false;
    }
    for (const auto* r : {&global, &individual})
    {
        if (!(r->energyDrift < 1e-3))
        {
            std::fprintf(stderr,
                         "bench_timestepping: GATE FAIL %s energy drift %.3e >= 1e-3\n",
                         r->name.c_str(), r->energyDrift);
            ok = false;
        }
    }
    if (!bitwise)
    {
        std::fprintf(stderr, "bench_timestepping: GATE FAIL pool-size divergence\n");
        ok = false;
    }
    return ok ? 0 : 1;
}
