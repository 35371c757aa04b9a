/// \file bench_schedulers.cpp
/// Load-balancing ablation: the self-scheduling strategies of Table 4
/// ("DLB with self-scheduling") in two settings.
///
/// First two synthetic workloads, uniform and linearly increasing, each
/// one measured parallelFor loop on the worker pool: they show each
/// strategy's balance/overhead character in isolation. Each loop lasts
/// tens of ms, so thread wake-up skew does not swamp the balance it
/// measures. Both tables run on a pool of WorkerPool::defaultSize()
/// workers (OMP_NUM_THREADS, else the hardware's), so they never measure
/// oversubscription. Then the in-situ ablation: a real Sedov run whose
/// hot phases
/// (density, EOS+IAD, div/curl, momentum-energy) execute through the
/// persistent-pool ParallelFor layer under each strategy, with per-phase
/// load-balance efficiency read back from the StepReport's measured
/// per-worker busy times via the POP metrics — the scheduling ablation on
/// the actual solver instead of a synthetic loop.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/simulation.hpp"
#include "ic/sedov.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/schedulers.hpp"
#include "perf/pop_metrics.hpp"

using namespace sphexa;
using namespace sphexa::bench;

namespace {

const std::vector<SchedulingStrategy> kStrategies = {
    SchedulingStrategy::Static,          SchedulingStrategy::SelfScheduling,
    SchedulingStrategy::Guided,          SchedulingStrategy::Trapezoid,
    SchedulingStrategy::Factoring,       SchedulingStrategy::AdaptiveWeightedFactoring};

/// Dependent adds per unit of synthetic weight: ~3.5 ns each on a 4-vCPU
/// Xeon VM, so a 20,000-iteration loop of unit weight is ~140 ms of serial
/// work, ~35 ms on four workers.
constexpr double kAddsPerWeight = 2000;

/// One synthetic loop body: iteration i does weights[i] * kAddsPerWeight
/// dependent adds.
auto syntheticBody(const std::vector<double>& weights)
{
    return [&weights](std::size_t i, std::size_t) {
        volatile double sink = 0;
        auto reps = std::size_t(weights[i] * kAddsPerWeight);
        for (std::size_t k = 0; k < reps; ++k)
            sink = sink + double(k);
    };
}

/// Untimed STATIC passes over \p weights for about a second: on a VM the
/// first second of multi-threaded work after an idle spell runs up to 4x
/// slow, which would charge the first strategies measured.
void warmUp(const std::vector<double>& weights)
{
    Timer t;
    while (t.elapsed() < 1.0)
        parallelFor(weights.size(), syntheticBody(weights));
}

void runWorkload(const char* name, const std::vector<double>& weights)
{
    auto body = syntheticBody(weights);

    std::printf("\n-- synthetic workload: %s (%zu iterations, %zu workers) --\n", name,
                weights.size(), parallelForWorkers());
    std::printf("%-8s %14s %12s %14s\n", "sched", "loadBalance", "chunks", "wall_ms");
    for (auto s : kStrategies)
    {
        PhaseLoadStats stats;
        LoopPolicy pol;
        pol.strategy = s;
        pol.stats    = &stats;
        parallelFor(weights.size(), body, pol);
        std::printf("%-8s %14.3f %12zu %14.2f\n",
                    std::string(schedulingName(s)).c_str(), stats.loadBalance(),
                    stats.chunks, stats.wallSeconds * 1e3);
    }
}

/// In-situ ablation: run a Sedov blast with every hot phase scheduled under
/// strategy \p s and report the per-phase POP load balance measured by the
/// ParallelFor layer (StepReport::phaseLoad), averaged over \p nSteps.
void runSedovInSitu(SchedulingStrategy s, std::uint64_t nSteps)
{
    ParticleSetD ps;
    SedovConfig<double> sc;
    sc.nSide   = 20; // 8000 particles
    auto setup = makeSedov(ps, sc);

    SimulationConfig<double> cfg;
    cfg.targetNeighbors   = 60;
    cfg.neighborTolerance = 10;
    cfg.phaseSchedule.fillSphPhases(s);

    Simulation<double> sim(std::move(ps), setup.box, Eos<double>(setup.eos), cfg);
    sim.computeForces();

    // accumulate the measured per-phase busy times across the run
    std::array<PhaseLoadStats, phaseCount> total{};
    sim.run(nSteps, [&](const StepReport<double>& rep) {
        for (int p = 0; p < phaseCount; ++p)
        {
            const auto& load = rep.phaseLoad[p];
            if (!load.workerBusySeconds.empty())
            {
                total[p].accumulate(load.workerBusySeconds, load.workerIterations,
                                    load.chunks, load.wallSeconds);
            }
        }
    });

    std::printf("%-8s", std::string(schedulingName(s)).c_str());
    for (Phase p : {Phase::E_Density, Phase::F_EosAndIad, Phase::G_DivCurl,
                    Phase::H_MomentumEnergy})
    {
        const auto& load = total[int(p)];
        if (load.workerBusySeconds.empty())
        {
            std::printf(" %11s", "-");
            continue;
        }
        auto m = computePopMetrics(load);
        std::printf(" %11.3f", m.loadBalance);
    }
    std::printf(" %10zu\n", total[int(Phase::H_MomentumEnergy)].chunks);
}

} // namespace

int main()
{
    std::printf("== Scheduling ablation (Table 4: DLB with self-scheduling) ==\n");

    const std::size_t workers = WorkerPool::defaultSize();
    WorkerPool::instance().resize(workers);

    std::vector<double> uniform(20000, 1.0);
    warmUp(uniform);
    runWorkload("uniform", uniform);

    std::vector<double> ramp(20000);
    for (std::size_t i = 0; i < ramp.size(); ++i)
        ramp[i] = 0.1 + 2.0 * double(i) / double(ramp.size());
    runWorkload("linear ramp", ramp);

    const std::uint64_t nSteps = 3;
    std::printf("\n-- in-situ: Sedov blast (8000 particles, %zu pool workers, "
                "%llu steps) --\n",
                workers, (unsigned long long)nSteps);
    std::printf("per-phase POP load balance from StepReport::phaseLoad\n");
    std::printf("%-8s %11s %11s %11s %11s %10s\n", "sched", "E:density", "F:eos+iad",
                "G:divcurl", "H:momentum", "H-chunks");
    for (auto s : kStrategies)
    {
        runSedovInSitu(s, nSteps);
    }

    std::printf("\nreadout: STATIC suffices for uniform work; the factoring family\n"
                "(FAC/AWF, refs [3,27] of the paper) holds balance on the clustered\n"
                "post-blast neighborhoods at a fraction of pure self-scheduling's\n"
                "overhead — now measured on the real solver's phases, not a proxy.\n");
    return 0;
}
