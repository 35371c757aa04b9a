#pragma once

/// \file tracer.hpp
/// Extrae-like execution tracer (substitution for Extrae/Paraver, see
/// docs/DESIGN.md): records per-rank, per-thread activity intervals labeled with
/// the execution states of the paper's Fig. 4 —
///
///   Computing (blue) · MPI collective (orange) · Thread synchronization
///   (red) · Thread fork/join (yellow) · Idle (black)
///
/// and the workflow phase letters A..J. The trace renders as an ASCII
/// timeline (one row per rank/thread) and exports CSV; pop_metrics.hpp
/// computes the POP efficiencies from the same intervals.
///
/// The phase durations come from the pipeline runner's PhaseEventLog
/// (core/step_context.hpp): attach a log to a driver, run a step, and pass
/// the log straight to expandTrace — no hand-recorded phase timings.

#include <algorithm>
#include <cstdio>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "core/step_context.hpp"

namespace sphexa {

enum class ActivityState
{
    Computing,
    MpiCollective,
    MpiP2P,
    ThreadSync,
    ForkJoin,
    Idle,
};

constexpr std::string_view activityName(ActivityState s)
{
    switch (s)
    {
        case ActivityState::Computing: return "Computing";
        case ActivityState::MpiCollective: return "MPI collective";
        case ActivityState::MpiP2P: return "MPI p2p";
        case ActivityState::ThreadSync: return "Thread sync";
        case ActivityState::ForkJoin: return "Fork/join";
        case ActivityState::Idle: return "Idle";
    }
    return "?";
}

/// Single-character legend used by the ASCII rendering (matching Fig. 4's
/// color semantics: '#'=computing, 'M'=MPI collective, 'm'=p2p, 's'=sync,
/// 'f'=fork/join, '.'=idle).
constexpr char activityGlyph(ActivityState s)
{
    switch (s)
    {
        case ActivityState::Computing: return '#';
        case ActivityState::MpiCollective: return 'M';
        case ActivityState::MpiP2P: return 'm';
        case ActivityState::ThreadSync: return 's';
        case ActivityState::ForkJoin: return 'f';
        case ActivityState::Idle: return '.';
    }
    return '?';
}

struct TraceInterval
{
    int rank;
    int thread;
    ActivityState state;
    Phase phase;
    double t0;
    double t1;

    double duration() const { return t1 - t0; }
};

/// Append-only trace of one (or more) time-steps.
class Tracer
{
public:
    Tracer(int ranks, int threadsPerRank) : ranks_(ranks), threads_(threadsPerRank) {}

    int ranks() const { return ranks_; }
    int threadsPerRank() const { return threads_; }

    void record(int rank, int thread, ActivityState state, Phase phase, double t0,
                double t1)
    {
        if (t1 > t0) intervals_.push_back({rank, thread, state, phase, t0, t1});
    }

    const std::vector<TraceInterval>& intervals() const { return intervals_; }

    double endTime() const
    {
        double e = 0;
        for (const auto& iv : intervals_)
            e = std::max(e, iv.t1);
        return e;
    }

    /// Useful (Computing) seconds of one rank/thread lane.
    double usefulSeconds(int rank, int thread) const
    {
        double s = 0;
        for (const auto& iv : intervals_)
        {
            if (iv.rank == rank && iv.thread == thread &&
                iv.state == ActivityState::Computing)
            {
                s += iv.duration();
            }
        }
        return s;
    }

    /// Seconds spent in MPI states on a lane.
    double commSeconds(int rank, int thread) const
    {
        double s = 0;
        for (const auto& iv : intervals_)
        {
            if (iv.rank == rank && iv.thread == thread &&
                (iv.state == ActivityState::MpiCollective ||
                 iv.state == ActivityState::MpiP2P))
            {
                s += iv.duration();
            }
        }
        return s;
    }

    /// Aggregate seconds per (phase, state), the data behind Fig. 4's
    /// colored blocks.
    std::map<std::pair<Phase, ActivityState>, double> phaseStateBreakdown() const
    {
        std::map<std::pair<Phase, ActivityState>, double> out;
        for (const auto& iv : intervals_)
        {
            out[{iv.phase, iv.state}] += iv.duration();
        }
        return out;
    }

    /// Render the timeline as ASCII, one row per (rank, thread) lane and
    /// \p width characters across the full duration. Lanes are labeled
    /// "rRR.tTT"; phase boundaries of lane (0,0) are marked in a header row
    /// with the phase letters.
    std::string renderAscii(int width = 120, int maxLanes = 24) const
    {
        double tEnd = endTime();
        if (tEnd <= 0 || intervals_.empty()) return "(empty trace)\n";

        std::string out;
        // header: phase letters positioned at the start of each phase on
        // lane (0, 0)
        std::string header(width, ' ');
        for (const auto& iv : intervals_)
        {
            if (iv.rank == 0 && iv.thread == 0 && iv.state == ActivityState::Computing)
            {
                int pos = int(iv.t0 / tEnd * width);
                if (pos >= 0 && pos < width && header[pos] == ' ')
                {
                    header[pos] = phaseName(iv.phase)[0];
                }
            }
        }
        out += "        " + header + "\n";

        int lanes = 0;
        for (int r = 0; r < ranks_ && lanes < maxLanes; ++r)
        {
            for (int t = 0; t < threads_ && lanes < maxLanes; ++t, ++lanes)
            {
                std::string row(width, '.');
                for (const auto& iv : intervals_)
                {
                    if (iv.rank != r || iv.thread != t) continue;
                    int a = std::clamp(int(iv.t0 / tEnd * width), 0, width - 1);
                    int b = std::clamp(int(iv.t1 / tEnd * width), a, width - 1);
                    for (int c = a; c <= b; ++c)
                        row[c] = activityGlyph(iv.state);
                }
                char label[32];
                std::snprintf(label, sizeof(label), "r%02d.t%02d ", r, t);
                out += label + row + "\n";
            }
        }
        if (lanes == maxLanes && ranks_ * threads_ > maxLanes)
        {
            out += "        ... (" + std::to_string(ranks_ * threads_ - maxLanes) +
                   " more lanes)\n";
        }
        return out;
    }

    /// CSV export: rank,thread,state,phase,t0,t1.
    void writeCsv(std::ostream& os) const
    {
        os << "rank,thread,state,phase,t0,t1\n";
        for (const auto& iv : intervals_)
        {
            os << iv.rank << ',' << iv.thread << ',' << activityName(iv.state) << ','
               << phaseName(iv.phase) << ',' << iv.t0 << ',' << iv.t1 << '\n';
        }
    }

private:
    int ranks_;
    int threads_;
    std::vector<TraceInterval> intervals_;
};

/// Per-phase intra-node parallelization profile: the fraction of the phase
/// that runs serially on thread 0 (the rest is spread over all threads).
/// SPHYNX v1.3.1's serial tree build (Fig. 4 phase A with idle threads) is
/// expressed as serialFraction = 1 for phase A.
struct PhaseParallelism
{
    std::array<double, phaseCount> serialFraction{};
    /// deterministic per-thread imbalance amplitude of the parallel part
    /// (0.05 = +-5% spread)
    double threadImbalance = 0.05;
};

/// The parallelism profile of SPHYNX v1.3.1 as measured in the paper:
/// serial tree build, serial neighbor-bookkeeping tails (phases B/D/J had
/// idle regions), parallel SPH kernels.
inline PhaseParallelism sphynx131Parallelism()
{
    PhaseParallelism p;
    p.serialFraction[int(Phase::A_TreeBuild)]          = 1.0;
    p.serialFraction[int(Phase::B_NeighborSearch)]     = 0.25;
    p.serialFraction[int(Phase::C_SmoothingLength)]    = 0.10;
    p.serialFraction[int(Phase::D_NeighborSymmetrize)] = 0.60;
    p.serialFraction[int(Phase::E_Density)]            = 0.02;
    p.serialFraction[int(Phase::F_EosAndIad)]          = 0.02;
    p.serialFraction[int(Phase::G_DivCurl)]            = 0.02;
    p.serialFraction[int(Phase::H_MomentumEnergy)]     = 0.02;
    p.serialFraction[int(Phase::I_SelfGravity)]        = 0.05;
    p.serialFraction[int(Phase::J_TimestepUpdate)]     = 0.50;
    p.threadImbalance = 0.08;
    return p;
}

/// The improved (mini-app) profile Fig. 4 motivated: no serial tails in any
/// phase. A modeled target: the shipped phase A still splits its nodes
/// serially (tree/octree.hpp).
inline PhaseParallelism sphexaParallelism()
{
    PhaseParallelism p;
    for (auto& f : p.serialFraction)
        f = 0.02;
    p.threadImbalance = 0.03;
    return p;
}

/// Expand per-rank, per-phase durations (measured by the distributed
/// driver) into a per-thread Extrae-like timeline under a parallelism
/// profile. Each phase contributes, per thread: a fork/join sliver, the
/// parallel share (with deterministic imbalance), idle until the phase's
/// serial tail, which runs on thread 0 while other threads idle. A final
/// MPI-collective interval models the step-closing reduction.
template<class T>
Tracer expandTrace(const std::vector<std::array<double, phaseCount>>& rankPhaseSeconds,
                   const std::vector<double>& rankCommSeconds, int threadsPerRank,
                   const PhaseParallelism& par)
{
    int R = int(rankPhaseSeconds.size());
    Tracer tracer(R, threadsPerRank);

    // global phase schedule: all ranks advance phase-synchronously (the
    // BSP supersteps of the distributed driver); each phase ends when the
    // slowest rank finishes it.
    double tCursor = 0;
    std::vector<double> rankClock(R, 0.0);

    for (int ph = 0; ph < phaseCount; ++ph)
    {
        double phaseMax = 0;
        std::vector<double> rankDur(R);
        for (int r = 0; r < R; ++r)
        {
            rankDur[r] = rankPhaseSeconds[r][ph];
            phaseMax = std::max(phaseMax, rankDur[r]);
        }
        if (phaseMax <= 0) continue;

        for (int r = 0; r < R; ++r)
        {
            double serial = rankDur[r] * par.serialFraction[ph];
            double parallelPart = rankDur[r] - serial;
            for (int t = 0; t < threadsPerRank; ++t)
            {
                // deterministic thread imbalance: alternating +- fractions;
                // thread 0 is pinned at exactly the parallel share so its
                // serial tail never overlaps its parallel interval
                double spread =
                    t == 0 ? 1.0
                           : 1.0 - par.threadImbalance * double((t + 3) % 5) / 5.0;
                double busy = parallelPart * spread;
                busy = std::min(busy, rankDur[r]);
                double t0 = tCursor;
                if (busy > 0)
                {
                    double fj = std::min(1e-5 * busy + 1e-9, 0.05 * busy);
                    tracer.record(r, t, ActivityState::ForkJoin, Phase(ph), t0, t0 + fj);
                    tracer.record(r, t, ActivityState::Computing, Phase(ph), t0 + fj,
                                  t0 + busy);
                }
                if (t == 0 && serial > 0)
                {
                    // serial tail on thread 0
                    tracer.record(r, 0, ActivityState::Computing, Phase(ph),
                                  t0 + parallelPart, t0 + parallelPart + serial);
                }
                else
                {
                    // others idle through the serial tail
                    double idleStart = t0 + std::min(busy, parallelPart);
                    double idleEnd   = t0 + rankDur[r];
                    tracer.record(r, t, ActivityState::Idle, Phase(ph), idleStart,
                                  idleEnd);
                }
            }
            rankClock[r] = tCursor + rankDur[r];
        }
        // ranks that finish the phase early idle until the slowest one
        for (int r = 0; r < R; ++r)
        {
            if (rankClock[r] < tCursor + phaseMax)
            {
                for (int t = 0; t < threadsPerRank; ++t)
                {
                    tracer.record(r, t, ActivityState::Idle, Phase(ph), rankClock[r],
                                  tCursor + phaseMax);
                }
            }
        }
        tCursor += phaseMax;
    }

    // closing MPI collective (global dt reduction), per rank
    double commMax = 0;
    for (int r = 0; r < R; ++r)
        commMax = std::max(commMax, rankCommSeconds[r]);
    if (commMax > 0)
    {
        for (int r = 0; r < R; ++r)
        {
            tracer.record(r, 0, ActivityState::MpiCollective, Phase::J_TimestepUpdate,
                          tCursor, tCursor + std::max(rankCommSeconds[r], commMax * 0.2));
            for (int t = 1; t < int(threadsPerRank); ++t)
            {
                tracer.record(r, t, ActivityState::Idle, Phase::J_TimestepUpdate, tCursor,
                              tCursor + commMax);
            }
        }
    }
    return tracer;
}

/// Convenience overload: expand the runner-emitted phase events of an
/// attached PhaseEventLog directly (clear() the log between steps for a
/// single-step timeline).
template<class T>
Tracer expandTrace(const PhaseEventLog& log, int nRanks,
                   const std::vector<double>& rankCommSeconds, int threadsPerRank,
                   const PhaseParallelism& par)
{
    return expandTrace<T>(log.phaseSecondsByRank(nRanks), rankCommSeconds,
                          threadsPerRank, par);
}

} // namespace sphexa
