#pragma once

/// \file pop_metrics.hpp
/// POP (Performance Optimisation and Productivity CoE) efficiency metrics —
/// the methodology the paper used with Extrae to diagnose the parent codes
/// (Sec. 5.2): "Load Balance is computed as the ratio between average useful
/// computation time (across all processes) and maximum useful computation
/// time (also across all processes)."
///
/// Standard POP hierarchy on one run:
///   Load Balance            LB   = avg(useful) / max(useful)
///   Communication Efficiency CE  = max(useful) / runtime
///   Parallel Efficiency      PE  = LB * CE = avg(useful) / runtime
/// and across core counts (strong scaling, reference run 0):
///   Computation Scalability  CS(p) = totalUseful(ref) / totalUseful(p)
///   Global Efficiency        GE(p) = PE(p) * CS(p)

#include <cstddef>
#include <span>
#include <stdexcept>
#include <vector>

#include "parallel/parallel_for.hpp"
#include "perf/tracer.hpp"

namespace sphexa {

struct PopMetrics
{
    double loadBalance             = 1.0;
    double communicationEfficiency = 1.0;
    double parallelEfficiency      = 1.0;
    double computationScalability  = 1.0; ///< 1.0 when no reference given
    double globalEfficiency        = 1.0;

    double runtime     = 0.0;
    double totalUseful = 0.0;
};

/// Metrics from per-lane useful times and the run's wall time.
inline PopMetrics computePopMetrics(std::span<const double> usefulSeconds, double runtime)
{
    if (usefulSeconds.empty() || runtime <= 0)
    {
        throw std::invalid_argument("computePopMetrics: empty input");
    }
    double sum = 0, mx = 0;
    for (double u : usefulSeconds)
    {
        sum += u;
        mx = u > mx ? u : mx;
    }
    PopMetrics m;
    m.runtime     = runtime;
    m.totalUseful = sum;
    double avg    = sum / double(usefulSeconds.size());
    m.loadBalance             = mx > 0 ? avg / mx : 1.0;
    m.communicationEfficiency = mx / runtime;
    m.parallelEfficiency      = avg / runtime;
    m.globalEfficiency        = m.parallelEfficiency;
    return m;
}

/// Metrics from one phase's measured ParallelFor executions (the in-situ
/// shared-memory lanes): per-worker busy time is the useful time, the
/// summed loop wall time is the runtime. This is how a StepReport's
/// phaseLoad entries become POP numbers.
inline PopMetrics computePopMetrics(const PhaseLoadStats& stats)
{
    if (stats.workerBusySeconds.empty() || stats.wallSeconds <= 0)
    {
        throw std::invalid_argument("computePopMetrics: phase has no measurements");
    }
    return computePopMetrics(stats.workerBusySeconds, stats.wallSeconds);
}

/// Metrics straight from a trace (useful time per rank/thread lane).
inline PopMetrics computePopMetrics(const Tracer& tracer)
{
    std::vector<double> useful;
    useful.reserve(std::size_t(tracer.ranks()) * tracer.threadsPerRank());
    for (int r = 0; r < tracer.ranks(); ++r)
    {
        for (int t = 0; t < tracer.threadsPerRank(); ++t)
        {
            useful.push_back(tracer.usefulSeconds(r, t));
        }
    }
    return computePopMetrics(useful, tracer.endTime());
}

/// Apply the strong-scaling terms against a reference run (typically the
/// smallest core count): CS = totalUseful(ref)/totalUseful(this);
/// GE = PE * CS.
inline PopMetrics withScalability(PopMetrics m, const PopMetrics& reference)
{
    if (m.totalUseful > 0)
    {
        m.computationScalability = reference.totalUseful / m.totalUseful;
    }
    m.globalEfficiency = m.parallelEfficiency * m.computationScalability;
    return m;
}

} // namespace sphexa
