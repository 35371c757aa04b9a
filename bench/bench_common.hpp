#pragma once

/// \file bench_common.hpp
/// Shared infrastructure of the figure/table reproduction benches: probe
/// workload construction, the scaling-figure runner, and output formatting.
///
/// Probe sizes are laptop-friendly by default and configurable:
///   SPHEXA_PROBE_SIDE=NN   lattice side of the probe ICs (default 36)
///   SPHEXA_TARGET_N=NNN    modeled particle count (default 10^6, the paper)

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "core/code_profiles.hpp"
#include "ic/evrard.hpp"
#include "ic/square_patch.hpp"
#include "perf/cluster_sim.hpp"
#include "perf/machine.hpp"

namespace sphexa::bench {

inline std::size_t envSize(const char* name, std::size_t fallback)
{
    const char* v = std::getenv(name);
    if (!v) return fallback;
    auto parsed = std::strtoull(v, nullptr, 10);
    return parsed > 0 ? std::size_t(parsed) : fallback;
}

inline std::size_t probeSide() { return envSize("SPHEXA_PROBE_SIDE", 36); }
inline std::size_t targetParticles() { return envSize("SPHEXA_TARGET_N", 1000000); }

enum class TestCase
{
    SquarePatch,
    Evrard,
};

/// Probe-scale initial conditions with converged smoothing lengths seeded.
template<class T>
ParticleSet<T> makeProbeIC(TestCase tc, Box<T>& boxOut)
{
    ParticleSet<T> ps;
    if (tc == TestCase::SquarePatch)
    {
        SquarePatchConfig<T> cfg;
        cfg.nx = cfg.ny = probeSide();
        cfg.nz = probeSide() / 2;
        auto setup = makeSquarePatch(ps, cfg);
        boxOut = setup.box;
    }
    else
    {
        EvrardConfig<T> cfg;
        cfg.nSide = probeSide();
        auto setup = makeEvrard(ps, cfg);
        boxOut = setup.box;
    }
    return ps;
}

/// One strong-scaling series (one curve of a figure).
struct FigureSeries
{
    std::string machine;
    std::vector<ScalingPoint> points;
};

/// Paper-reported reference value at a core count (y-axis tick labels of
/// the figures), for side-by-side printing.
using PaperRefs = std::map<int, double>;

/// Run the full pipeline for one curve: probe per node count with the real
/// decomposition, predict with the cluster simulator, anchor at the paper's
/// 12-core measurement.
template<class T>
FigureSeries runScalingCurve(TestCase tc, const CodeProfile<T>& profile,
                             const Machine& machine, const std::vector<int>& coreCounts,
                             double anchorSeconds, const CostModel& cm)
{
    Box<T> box;
    auto ps = makeProbeIC<T>(tc, box);

    SimulationConfig<T> cfg = profile.config;
    cfg.selfGravity = (tc == TestCase::Evrard) && profile.config.gravity.order !=
                                                      MultipoleOrder::Monopole;
    if (tc == TestCase::Evrard)
    {
        cfg.selfGravity       = true;
        cfg.gravity.G         = 1;
        cfg.gravity.theta     = 0.5;
        cfg.gravity.softening = 0.02;
    }
    cfg.targetNeighbors   = 100; // the paper's ~10^2 neighbors
    cfg.neighborTolerance = 20;

    ClusterSimulator sim(cm);
    ScalingConfig sc;
    sc.machine         = machine;
    sc.targetParticles = targetParticles();
    sc.costScale =
        tc == TestCase::SquarePatch ? double(profile.costScaleSquare)
                                    : double(profile.costScaleEvrard);
    sc.activityFactor =
        profile.config.timestep.mode == TimesteppingMode::Individual ? 0.6 : 1.0;
    sc.serialTreeBuild = true; // the parent profiles model phase A as serial (Fig. 4)

    // one probe per distinct rank count
    std::map<int, WorkloadProbe> probes;
    FigureSeries series;
    series.machine = machine.name;
    for (int cores : coreCounts)
    {
        auto [ranks, threads] = ClusterSimulator::ranksAndThreads(cores, machine);
        (void)threads;
        if (!probes.count(ranks))
        {
            probes.emplace(ranks, probeWorkload(ps, box, cfg, ranks));
        }
        series.points.push_back(sim.predict(probes.at(ranks), cores, sc));
    }
    normalizeToAnchor(series.points, coreCounts.front(), anchorSeconds);
    return series;
}

/// Print one figure: all series side by side with paper reference values.
inline void printFigure(const std::string& title, const std::vector<FigureSeries>& series,
                        const PaperRefs& paperRefs)
{
    std::printf("\n== %s ==\n", title.c_str());
    std::printf("(average time per time-step in seconds; model anchored at the first "
                "core count)\n\n");
    std::printf("%8s", "cores");
    for (const auto& s : series)
    {
        std::printf(" | %12s %9s %9s %7s", s.machine.c_str(), "compute", "comm", "LB");
    }
    std::printf(" | %10s\n", "paper");
    for (std::size_t k = 0; k < series.front().points.size(); ++k)
    {
        int cores = series.front().points[k].cores;
        std::printf("%8d", cores);
        for (const auto& s : series)
        {
            const auto& p = s.points[k];
            std::printf(" | %12.2f %9.2f %9.4f %7.3f", p.seconds, p.computeSeconds,
                        p.commSeconds, p.loadBalance);
        }
        if (paperRefs.count(cores))
        {
            std::printf(" | %10.2f", paperRefs.at(cores));
        }
        else
        {
            std::printf(" | %10s", "-");
        }
        std::printf("\n");
    }
}

/// Shape checks printed under each figure: monotone scaling region and the
/// stall once particles/core drops below ~10^4 (paper Sec. 5.2).
inline void printShapeSummary(const FigureSeries& s, std::size_t nTarget)
{
    const auto& pts = s.points;
    double bestSpeedup = 0;
    int bestCores = pts.front().cores;
    for (const auto& p : pts)
    {
        double sp = pts.front().seconds / p.seconds;
        if (sp > bestSpeedup)
        {
            bestSpeedup = sp;
            bestCores = p.cores;
        }
    }
    std::printf("  [%s] speedup %.1fx at %d cores (%.0f particles/core at the last "
                "point)\n",
                s.machine.c_str(), bestSpeedup, bestCores,
                double(nTarget) / pts.back().cores);
}

} // namespace sphexa::bench
