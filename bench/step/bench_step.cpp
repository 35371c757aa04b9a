/// \file bench_step.cpp
/// End-to-end benchmark of the shipped Simulation::advance() loop: one
/// workload per process, run from t = 0 to a fixed simulated end time under
/// the default SimulationConfig (only scenario fields are set on top).
///
///     bench_step --workload <sedov|evrard|evrard-binned|dam-break>
///                [--seed N] [--seconds S] [--smoke] [--trace]
///
/// Untraced (default): repeats "set up, advance to t_end, validate" for
/// about --seconds and reports the end-to-end metrics. Traced: runs the
/// loop once untraced and once with a PhaseEventLog attached, writes the
/// Chrome trace trace_<workload>[_smoke].json into the working directory,
/// then runs the first steps at 1 worker and at the full pool, and reports
/// the per-layer ledger. --smoke shrinks every workload to a few steps at
/// tiny size. The worker count follows OMP_NUM_THREADS (the WorkerPool
/// default).
///
/// Prints one JSON object on stdout; exits 1 when a step or the final
/// validation fails, 2 on a usage error. run.py in this directory builds
/// the program, drives it and formats the results (see README.md).

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/simulation.hpp"
#include "ic/dam_break.hpp"
#include "ic/evrard.hpp"
#include "ic/lattice.hpp"
#include "ic/sedov.hpp"
#include "math/statistics.hpp"
#include "parallel/parallel_for.hpp"

using namespace sphexa;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// jitterPositions fraction: each coordinate moves by at most 0.1 spacing.
constexpr double kJitterFraction = 0.2;
/// Set-ups timed before an untraced run's measured loops, each of which
/// sets up once more: setup_s is the median of at least three.
constexpr int kExtraSetups = 2;
/// Fewest step samples an untraced run takes, so that step_s_p90 has ten
/// samples beyond it; a run repeats its loop until it has them.
constexpr std::size_t kMinStepSamples = 100;
/// Steps of a --smoke run, and of the 1-worker vs N-worker baseline.
constexpr std::uint64_t kSmokeSteps    = 3;
constexpr std::uint64_t kBaselineSteps = 10;
/// Largest share of an advance() step the library's phase timers (A..L,
/// and J inside Simulation::advance) may leave unexplained.
constexpr double kCoverageTolerance = 0.01;

/// One benchmark workload, calibrated on seed 1 with 4 workers of a 4-core
/// x86-64 VM: stepCap is twice the calibrated step count, and repSeconds is
/// the wall time of one loop there. An untraced run repeats the loop
/// round(--seconds / repSeconds) times, and more if it still has fewer
/// than kMinStepSamples step samples, so the work done is fixed by the
/// arguments and the seed and never by the machine's speed.
struct Workload
{
    std::string_view name;
    double tEnd;
    std::uint64_t stepCap;
    double repSeconds;
    bool binned; ///< Individual stepping: the loop also waits for a full sync
};

// evrard stops at 0.59 (74 steps): later, the binned run's first full sync
// comes after the collapse has pushed its energy drift near the 1e-3 gate.
// dam-break runs to 0.04 (140 steps): earlier, the surge front sits too
// close to the 0.6 floor of the golden Ritter band (see README.md).
constexpr std::array<Workload, 4> kWorkloads{{
    {"sedov", 0.066, 214, 15.0, false},
    {"evrard", 0.59, 148, 10.6, false},
    {"evrard-binned", 0.59, 114, 3.4, true},
    {"dam-break", 0.04, 280, 30.0, false},
}};

// ---------------------------------------------------------------------------
// Workload set-up
// ---------------------------------------------------------------------------

/// A simulation at t = 0 plus the references its validation needs.
struct Instance
{
    std::unique_ptr<Simulation<double>> sim;
    double spacing    = 0; ///< lattice spacing of the initial conditions
    double e0         = 0; ///< total energy after the first force pass
    double potential0 = 0; ///< potential energy after the first force pass
};

/// Evrard's sphere is a uniform lattice stretched radially by
/// r = R (s/R)^{3/2}. Jitter in the unstretched frame, where the lattice is
/// uniform, so every particle moves by at most 0.1 of its LOCAL spacing.
void jitterEvrard(ParticleSetD& ps, const EvrardConfig<double>& ic, std::uint64_t seed)
{
    auto rescale = [&](double exponent) {
        for (std::size_t i = 0; i < ps.size(); ++i)
        {
            double r = std::sqrt(ps.x[i] * ps.x[i] + ps.y[i] * ps.y[i] + ps.z[i] * ps.z[i]);
            double f = ic.R * std::pow(r / ic.R, exponent) / r;
            ps.x[i] *= f;
            ps.y[i] *= f;
            ps.z[i] *= f;
        }
    };
    rescale(2.0 / 3.0);
    Box<double> cube{{-ic.R, -ic.R, -ic.R}, {ic.R, ic.R, ic.R}};
    jitterPositions(ps, cube, 2.0 * ic.R / double(ic.nSide), kJitterFraction, seed);
    rescale(1.5);
}

/// The dam-break lattice is cell-centred, so the particles next to a wall
/// sit exactly half a spacing from it. Jittered particles that come closer
/// are reflected back: a particle at distance d from a wall has its mirror
/// ghost at 2d, and d >= spacing/2 keeps every ghost a full spacing away.
/// The column touches only the x = 0 wall and the floor.
void jitterDamBreak(ParticleSetD& ps, const DamBreakSetup<double>& setup, std::uint64_t seed)
{
    double dx = setup.spacing;
    jitterPositions(ps, setup.box, dx, kJitterFraction, seed);
    for (std::size_t i = 0; i < ps.size(); ++i)
    {
        if (ps.x[i] < 0.5 * dx) ps.x[i] = dx - ps.x[i];
        if (ps.y[i] < 0.5 * dx) ps.y[i] = dx - ps.y[i];
    }
}

SimulationConfig<double> evrardConfig(bool binned)
{
    SimulationConfig<double> cfg;
    cfg.selfGravity         = true;
    cfg.gravity.G           = 1.0;
    cfg.gravity.theta       = 0.5;
    cfg.gravity.softening   = 0.02;
    cfg.timestep.cflCourant = 0.25;
    cfg.timestep.initialDt  = 0.01;
    if (binned)
    {
        cfg.timestep.mode = TimesteppingMode::Individual;
        cfg.neighborMode  = NeighborMode::IndividualTreeWalk;
    }
    return cfg;
}

/// Generate the workload's initial conditions for \p seed and construct the
/// simulation (no force pass yet).
Instance makeInstance(const Workload& w, std::uint64_t seed, bool smoke)
{
    Instance inst;
    ParticleSetD ps;
    if (w.name == "sedov")
    {
        SedovConfig<double> ic;
        ic.nSide   = smoke ? 10 : 20;
        auto setup = makeSedov(ps, ic);
        jitterPositions(ps, setup.box, setup.spacing, kJitterFraction, seed);
        SimulationConfig<double> cfg;
        cfg.timestep.cflCourant = 0.2;
        inst.spacing = setup.spacing;
        inst.sim = std::make_unique<Simulation<double>>(std::move(ps), setup.box,
                                                        Eos<double>(setup.eos), cfg);
    }
    else if (w.name == "evrard" || w.name == "evrard-binned")
    {
        EvrardConfig<double> ic;
        ic.nSide   = smoke ? 12 : 22;
        auto setup = makeEvrard(ps, ic);
        jitterEvrard(ps, ic, seed);
        inst.spacing = 2.0 * ic.R / double(ic.nSide);
        inst.sim     = std::make_unique<Simulation<double>>(
            std::move(ps), setup.box, Eos<double>(setup.eos), evrardConfig(w.binned));
    }
    else
    {
        DamBreakConfig<double> ic;
        ic.nx      = smoke ? 8 : 24;
        ic.ny      = smoke ? 16 : 48;
        ic.nz      = smoke ? 4 : 8;
        auto setup = makeDamBreak(ps, ic);
        jitterDamBreak(ps, setup, seed);
        inst.spacing = setup.spacing;
        inst.sim     = std::make_unique<Simulation<double>>(std::move(ps), setup.box,
                                                        damBreakConfig(ic, setup));
    }
    return inst;
}

// ---------------------------------------------------------------------------
// Tracing: windows around each call, phase events from the library
// ---------------------------------------------------------------------------

/// A window the benchmark times around one call into the simulation: an
/// advance() step, or set-up's computeForces().
struct Window
{
    std::string_view name;
    std::uint64_t step = 0;    ///< step id of the phase events logged inside
    double start = 0, end = 0; ///< seconds since the trace's origin
};

/// The traced run's record, kept in memory and written when the workload
/// ends: the windows, plus the per-phase events the pipeline runner logs
/// into the PhaseEventLog attached with Simulation::attachPhaseLog.
struct Trace
{
    Clock::time_point origin = Clock::now();
    PhaseEventLog log;
    std::vector<Window> windows;

    void record(std::string_view name, std::uint64_t step, Clock::time_point t0, double seconds)
    {
        double start = std::chrono::duration<double>(t0 - origin).count();
        windows.push_back({name, step, start, start + seconds});
    }
};

// ---------------------------------------------------------------------------
// The measured loop
// ---------------------------------------------------------------------------

/// Why a particle state is unhealthy, or empty when it is fine.
std::string healthError(const ParticleSetD& ps, const StepReport<double>& rep)
{
    if (rep.neighborOverflow > 0)
    {
        return std::to_string(rep.neighborOverflow) + " neighbor list(s) overflowed ngmax";
    }
    for (std::size_t i = 0; i < ps.size(); ++i)
    {
        for (double v : {ps.x[i], ps.y[i], ps.z[i], ps.vx[i], ps.vy[i], ps.vz[i], ps.u[i],
                         ps.h[i], ps.rho[i], ps.p[i]})
        {
            if (!std::isfinite(v)) return "non-finite field at particle " + std::to_string(i);
        }
        if (!(ps.rho[i] > 0) || !(ps.h[i] > 0))
        {
            return "non-positive rho or h at particle " + std::to_string(i);
        }
    }
    return {};
}

struct Loop
{
    std::vector<double> stepSeconds; ///< wall time of each advance() call
    double seconds        = 0;       ///< sum of stepSeconds
    /// StepReport::phaseSeconds summed over the steps
    std::array<double, phaseCount> phase{};
    /// worst per-step share of an advance() call no phase timer covers
    double worstGap       = 0;
    /// StepReport::activeParticles summed; on the dam break it counts the
    /// mirror ghosts too, realUpdates does not
    std::uint64_t updates = 0, realUpdates = 0;
    std::uint64_t pairs = 0, hIterations = 0, overflow = 0;
    std::uint64_t gravityP2P = 0, gravityM2P = 0, chunks = 0;
    double waitSeconds    = 0; ///< sum over steps, phases, workers of max - busy
    std::array<PhaseLoadStats, phaseCount> load{};
    std::string error; ///< first failure; the loop stops there

    std::uint64_t steps() const { return stepSeconds.size(); }
};

/// Advance until t_end (and, for binned stepping, a full sync), or for
/// exactly \p maxSteps steps when it is non-zero. Health checks run outside
/// the step timer. With \p trace, each step is recorded as a window.
Loop runLoop(Simulation<double>& sim, const Workload& w, bool smoke, std::uint64_t maxSteps,
             Trace* trace)
{
    auto done = [&](std::uint64_t steps) {
        if (maxSteps) return steps >= maxSteps;
        bool reached = smoke ? steps >= kSmokeSteps : sim.time() >= w.tEnd;
        return reached && (!w.binned || sim.timestepController().atFullSync());
    };

    Loop loop;
    while (!done(loop.steps()))
    {
        if (loop.steps() >= w.stepCap)
        {
            loop.error = "step cap " + std::to_string(w.stepCap) + " reached at t=" +
                         std::to_string(sim.time());
            break;
        }
        StepReport<double> rep;
        auto t0 = Clock::now();
        try
        {
            rep = sim.advance();
        }
        catch (const std::exception& e)
        {
            loop.error = std::string("advance() threw: ") + e.what();
            break;
        }
        double sec = secondsSince(t0);
        if (trace) trace->record("advance", rep.step, t0, sec);
        loop.stepSeconds.push_back(sec);
        loop.seconds += sec;
        for (int p = 0; p < phaseCount; ++p)
            loop.phase[std::size_t(p)] += rep.phaseSeconds[std::size_t(p)];
        loop.worstGap = std::max(loop.worstGap, std::abs(sec - rep.totalSeconds()) / sec);
        loop.updates += rep.activeParticles;
        loop.realUpdates += std::min(rep.activeParticles, sim.particles().size());
        loop.pairs += rep.neighborInteractions;
        loop.hIterations += rep.hIterations;
        loop.overflow += rep.neighborOverflow;
        loop.gravityP2P += rep.gravityStats.p2pInteractions;
        loop.gravityM2P += rep.gravityStats.m2pInteractions;
        for (int p = 0; p < phaseCount; ++p)
        {
            const auto& s = rep.phaseLoad[std::size_t(p)];
            if (s.workerBusySeconds.empty()) continue;
            loop.load[std::size_t(p)].accumulate(s.workerBusySeconds, s.workerIterations,
                                                 s.chunks, s.wallSeconds);
            loop.chunks += s.chunks;
            double mx = *std::max_element(s.workerBusySeconds.begin(),
                                          s.workerBusySeconds.end());
            for (double b : s.workerBusySeconds)
                loop.waitSeconds += mx - b;
        }
        if (auto err = healthError(sim.particles(), rep); !err.empty())
        {
            loop.error = "step " + std::to_string(rep.step) + ": " + err;
            break;
        }
    }
    return loop;
}

// ---------------------------------------------------------------------------
// Validation against the golden-gallery references
// ---------------------------------------------------------------------------

/// Shock-shell radius estimate: mean radius of the densest 2% of particles
/// (the estimator of the golden gallery, tests/test_golden.cpp).
double shockShellRadius(const ParticleSetD& ps)
{
    std::vector<std::size_t> idx(ps.size());
    std::iota(idx.begin(), idx.end(), std::size_t{0});
    std::size_t k = std::min(ps.size(), std::max<std::size_t>(32, ps.size() / 50));
    std::partial_sort(idx.begin(), idx.begin() + std::ptrdiff_t(k), idx.end(),
                      [&](auto a, auto b) { return ps.rho[a] > ps.rho[b]; });
    double sum = 0;
    for (std::size_t j = 0; j < k; ++j)
    {
        auto i = idx[j];
        sum += std::sqrt(ps.x[i] * ps.x[i] + ps.y[i] * ps.y[i] + ps.z[i] * ps.z[i]);
    }
    return sum / double(k);
}

/// Total energy plus the potential of the uniform body force (the dam
/// break's gravity), so the drift is defined for every workload.
double totalEnergy(const Simulation<double>& sim)
{
    const auto& ps = sim.particles();
    const auto& g  = sim.config().constantAccel;
    double e       = sim.conservation().totalEnergy();
    for (std::size_t i = 0; i < ps.size(); ++i)
        e -= ps.m[i] * (g.x * ps.x[i] + g.y * ps.y[i] + g.z * ps.z[i]);
    return e;
}

struct Validation
{
    std::string error;       ///< empty when the gate holds
    double refError    = 0;  ///< relative error against the scenario's reference
    double energyDrift = 0;  ///< |E - E0| / |E0| over the loop
};

/// The golden-gallery gates. A smoke run is too short for the similarity
/// gates (Sedov radius, Ritter band), so it checks energy and walls only.
Validation validate(const Workload& w, const Instance& inst, bool smoke)
{
    const auto& sim = *inst.sim;
    const auto& ps  = sim.particles();
    Validation v;
    v.energyDrift = std::abs(totalEnergy(sim) - inst.e0) / std::abs(inst.e0);

    if (w.name == "sedov")
    {
        SedovConfig<double> ic;
        double ref = sedovShockRadius(sim.time(), ic.energy, ic.rho0);
        v.refError = std::abs(shockShellRadius(ps) / ref - 1.0);
        if (!smoke && !(v.refError <= 0.25))
        {
            v.error = "Sedov shock radius off the similarity solution by " +
                      std::to_string(v.refError);
        }
    }
    else if (w.name == "evrard" || w.name == "evrard-binned")
    {
        v.refError = std::abs(inst.potential0 / evrardAnalyticPotentialEnergy(1.0, 1.0, 1.0) -
                              1.0);
        if (!(v.energyDrift < 1e-3))
        {
            v.error = "Evrard energy drift " + std::to_string(v.energyDrift) + " >= 1e-3";
        }
    }
    else
    {
        // the golden gallery's reference: Ritter's front starts at the dam
        // face, and the bed band is twice the set-up smoothing length
        // (2 spacings)
        DamBreakConfig<double> ic;
        double front  = damBreakFront(ps, 4.0 * inst.spacing);
        double ritter = ritterFrontPosition(sim.time(), ic.columnWidth, ic.columnHeight, ic.g);
        double frac   = (front - ic.columnWidth) / (ritter - ic.columnWidth);
        v.refError    = std::abs(frac - 1.0);
        if (!smoke && !(frac > 0.6 && frac < 1.6))
        {
            v.error = "dam-break front at " + std::to_string(frac) +
                      " of the Ritter displacement, outside [0.6, 1.6]";
        }
        double slack = 0.5 * inst.spacing;
        for (std::size_t i = 0; i < ps.size() && v.error.empty(); ++i)
        {
            if (!(ps.x[i] > -slack && ps.x[i] < ic.tankLength + slack && ps.y[i] > -slack))
            {
                v.error = "particle " + std::to_string(i) + " left the tank";
            }
        }
    }
    return v;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

/// Minimal JSON object writer; numbers keep all 17 significant digits.
class Json
{
public:
    Json& num(std::string_view k, double v)
    {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        return raw(k, std::isfinite(v) ? buf : "null");
    }
    Json& count(std::string_view k, std::uint64_t v) { return raw(k, std::to_string(v)); }
    Json& flag(std::string_view k, bool v) { return raw(k, v ? "true" : "false"); }
    Json& str(std::string_view k, std::string_view v)
    {
        std::string q = "\"";
        for (char c : v)
        {
            if (c == '"' || c == '\\') q += '\\';
            q += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
        }
        return raw(k, q + "\"");
    }
    Json& obj(std::string_view k, const Json& o) { return raw(k, o.text()); }
    std::string text() const { return "{" + body_ + "}"; }

private:
    Json& raw(std::string_view k, std::string_view v)
    {
        if (!body_.empty()) body_ += ", ";
        body_ += "\"";
        body_ += k;
        body_ += "\": ";
        body_ += v;
        return *this;
    }
    std::string body_;
};

double peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

/// The outcome of one workload run: everything main() prints.
struct Result
{
    std::size_t particles = 0;
    std::uint64_t attempted = 0, failed = 0;
    std::string error;
    Json metrics, counts, info;
};

/// The counts a --sets comparison requires to repeat exactly.
void recordCounts(Result& r, const Loop& loop)
{
    r.counts.count("tree.pairs", loop.pairs)
        .count("tree.overflow", loop.overflow)
        .count("tree.gravity_p2p", loop.gravityP2P)
        .count("tree.gravity_m2p", loop.gravityM2P)
        .count("sph.hsolve_iters", loop.hIterations)
        .count("sph.steps", loop.steps());
}

/// Set up a fresh instance: IC generation, construction and the first force
/// pass. With \p trace the phase log is attached and the force pass is a
/// "computeForces" window. Returns the set-up seconds.
double setUp(Instance& inst, const Workload& w, std::uint64_t seed, bool smoke, Trace* trace)
{
    inst = Instance{}; // free the previous simulation before building the next
    auto t0 = Clock::now();
    inst    = makeInstance(w, seed, smoke);
    if (trace) inst.sim->attachPhaseLog(&trace->log);
    auto tf = Clock::now();
    inst.sim->computeForces();
    if (trace) trace->record("computeForces", inst.sim->step(), tf, secondsSince(tf));
    double sec      = secondsSince(t0);
    inst.e0         = totalEnergy(*inst.sim);
    inst.potential0 = inst.sim->conservation().potentialEnergy;
    return sec;
}

/// Run one loop and its validation, charging the ops to \p r. Returns false
/// (with r.error set) on the first failure.
bool measuredLoop(Result& r, Instance& inst, const Workload& w, bool smoke, Trace* trace,
                  Loop& loop, Validation& val)
{
    loop = runLoop(*inst.sim, w, smoke, 0, trace);
    r.attempted += loop.steps() + 1; // every advance() plus the validation
    r.error = loop.error;
    if (r.error.empty())
    {
        val     = validate(w, inst, smoke);
        r.error = val.error;
    }
    if (!r.error.empty()) r.failed = 1;
    return r.error.empty();
}

/// Untraced run: the end-to-end metrics.
Result runUntraced(const Workload& w, std::uint64_t seed, double seconds, bool smoke)
{
    Result r;
    Instance inst;
    std::vector<double> setups, tts, rates, steps;
    for (int i = 0; i < kExtraSetups; ++i)
        setups.push_back(setUp(inst, w, seed, smoke, nullptr));

    long minLoops = smoke ? 1 : std::max(1L, std::lround(seconds / w.repSeconds));
    Loop loop;
    Validation val;
    // the high-water mark of the set-ups and the first loop: later loops
    // only add allocator fragmentation that varies with thread timing
    double peakRss = 0;
    while (long(tts.size()) < minLoops || (!smoke && steps.size() < kMinStepSamples))
    {
        setups.push_back(setUp(inst, w, seed, smoke, nullptr));
        if (!measuredLoop(r, inst, w, smoke, nullptr, loop, val)) return r;
        if (tts.empty()) peakRss = peakRssMiB();
        tts.push_back(loop.seconds);
        rates.push_back(double(loop.updates) / loop.seconds);
        const auto& s = loop.stepSeconds;
        if (!w.binned)
        {
            steps.insert(steps.end(), s.begin(), s.end());
            continue;
        }
        // binned steps alternate between bin 0 alone and larger active
        // sets, so single-step times are bimodal and their median jumps
        // between the modes from seed to seed; sample the mean of each
        // step pair instead, the period of bin 1
        for (std::size_t k = 0; k + 1 < s.size(); k += 2)
            steps.push_back(0.5 * (s[k] + s[k + 1]));
    }

    r.particles = inst.sim->particles().size();
    r.metrics.num("time_to_solution_s", percentile<double>(tts, 50))
        .num("updates_per_s", percentile<double>(rates, 50))
        .num("step_s_p50", percentile<double>(steps, 50))
        .num("step_s_p90", percentile<double>(steps, 90))
        .num("setup_s", percentile<double>(setups, 50))
        .num("peak_rss_mb", peakRss);
    recordCounts(r, loop);
    r.info.count("reps", tts.size())
        .count("step_samples", steps.size())
        .count("setup_samples", setups.size())
        .num("final_time", inst.sim->time())
        .num("ref_error", val.refError)
        .num("energy_drift", val.energyDrift);
    return r;
}

/// Chrome trace-event JSON (open in Perfetto or chrome://tracing). Each
/// window's phase events are laid end to end from its start, in the order
/// the library ran them: their durations are measured, their positions
/// inside the window are not (phase J's two halves, before and after the
/// force pass, show as one slice at the end).
void writeChromeTrace(const Trace& trace, const std::string& path)
{
    auto category = [](Phase phase) -> std::string_view {
        switch (phase)
        {
            case Phase::L_SfcSort:
            case Phase::A_TreeBuild:
            case Phase::B_NeighborSearch:
            case Phase::I_SelfGravity: return "tree";
            case Phase::E_Density:
            case Phase::F_EosAndIad:
            case Phase::G_DivCurl:
            case Phase::H_MomentumEnergy: return "backend";
            default: return "sph";
        }
    };
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) throw std::runtime_error("cannot write " + path);
    const char* sep = "";
    auto slice = [&](std::string_view name, std::string_view cat, double start, double dur,
                     std::uint64_t step) {
        std::fprintf(f,
                     "%s{\"name\": \"%.*s\", \"cat\": \"%.*s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"step\": %llu}}",
                     sep, int(name.size()), name.data(), int(cat.size()), cat.data(),
                     start * 1e6, dur * 1e6, static_cast<unsigned long long>(step));
        sep = ",\n";
    };
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    const auto& events = trace.log.events();
    std::size_t e = 0;
    for (const auto& win : trace.windows)
    {
        slice(win.name, "step", win.start, win.end - win.start, win.step);
        for (double t = win.start; e < events.size() && events[e].step == win.step; ++e)
        {
            slice(phaseName(events[e].phase), category(events[e].phase), t,
                  events[e].seconds, win.step);
            t += events[e].seconds;
        }
    }
    std::fprintf(f, "\n]}\n");
    if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

void setWorkers(std::size_t pool)
{
    WorkerPool::instance().resize(pool);
#ifdef _OPENMP
    omp_set_num_threads(int(pool));
#endif
}

/// The first kBaselineSteps steps at \p workers workers.
Loop baselineAt(std::size_t workers, const Workload& w, std::uint64_t seed, bool smoke)
{
    setWorkers(workers);
    Instance inst;
    setUp(inst, w, seed, smoke, nullptr);
    Loop loop = runLoop(*inst.sim, w, smoke, kBaselineSteps, nullptr);
    if (!loop.error.empty()) throw std::runtime_error("baseline: " + loop.error);
    return loop;
}

/// Traced run: the per-layer ledger.
Result runTraced(const Workload& w, std::uint64_t seed, bool smoke)
{
    Result r;
    Trace trace; // outlives inst, whose simulation logs into it
    Instance inst, ref;
    Loop loop, refLoop;
    Validation val, refVal;

    // the reference for the tracing overhead is the mean of an untraced
    // loop before and one after the traced loop, which cancels a steady
    // drift of the machine's speed; the set-ups before them warm it up as
    // in the untraced run
    for (int i = 0; i < kExtraSetups; ++i)
        setUp(ref, w, seed, smoke, nullptr);
    double untracedSeconds = 0;
    auto untracedLoop = [&] {
        setUp(ref, w, seed, smoke, nullptr);
        bool ok = measuredLoop(r, ref, w, smoke, nullptr, refLoop, refVal);
        untracedSeconds += 0.5 * refLoop.seconds;
        return ok;
    };
    if (!untracedLoop()) return r;
    setUp(inst, w, seed, smoke, &trace);
    if (!measuredLoop(r, inst, w, smoke, &trace, loop, val)) return r;
    if (!untracedLoop()) return r;
    writeChromeTrace(trace, "trace_" + std::string(w.name) + (smoke ? "_smoke" : "") + ".json");
    if (loop.worstGap > kCoverageTolerance)
    {
        r.error  = "phase timers leave " + std::to_string(100 * loop.worstGap) +
                  "% of an advance() step unexplained";
        r.failed = 1;
        return r;
    }

    const auto& sim = *inst.sim;
    r.particles     = sim.particles().size();
    double steps    = double(loop.steps());
    auto total      = [&](Phase p) { return loop.phase[std::size_t(p)]; };
    auto perStep    = [&](Phase p) { return total(p) / steps; };
    double ehSeconds = total(Phase::E_Density) + total(Phase::F_EosAndIad) +
                       total(Phase::G_DivCurl) + total(Phase::H_MomentumEnergy);
    // self time of the advance() windows: what no force phase covers, so
    // phase J plus driver glue
    double phaseSum    = std::accumulate(loop.phase.begin(), loop.phase.end(), 0.0);
    double selfSeconds = loop.seconds - (phaseSum - total(Phase::J_TimestepUpdate));
    auto& m = r.metrics;
    m.num("tree.sfc_sort_s", perStep(Phase::L_SfcSort))
        .num("tree.build_s", perStep(Phase::A_TreeBuild))
        .num("tree.search_s", perStep(Phase::B_NeighborSearch))
        .num("tree.gravity_s", perStep(Phase::I_SelfGravity))
        .count("tree.pairs", loop.pairs)
        .count("tree.overflow", loop.overflow)
        .count("tree.gravity_p2p", loop.gravityP2P)
        .count("tree.gravity_m2p", loop.gravityM2P)
        .num("tree.search_pairs_per_s", double(loop.pairs) / total(Phase::B_NeighborSearch))
        .count("tree.nl_bytes",
               sim.neighborList().entryCapacity() * sizeof(NeighborList<double>::Index))
        .num("sph.hsolve_s", perStep(Phase::C_SmoothingLength))
        .num("sph.symmetrize_s", perStep(Phase::D_NeighborSymmetrize))
        .num("sph.ghosts_s", perStep(Phase::K_GhostExchange))
        .num("sph.integrate_s", selfSeconds / steps)
        .count("sph.hsolve_iters", loop.hIterations)
        .count("sph.steps", loop.steps())
        .num("sph.active_fraction", double(loop.realUpdates) / (steps * double(r.particles)))
        .num("sph.energy_drift", val.energyDrift)
        .num("sph.ref_error", val.refError)
        .num("backend.density_s", perStep(Phase::E_Density))
        .num("backend.iad_s", perStep(Phase::F_EosAndIad))
        .num("backend.divcurl_s", perStep(Phase::G_DivCurl))
        .num("backend.momentum_s", perStep(Phase::H_MomentumEnergy))
        .num("backend.pair_visits_per_s", 4.0 * double(loop.pairs) / ehSeconds);
    for (Phase p : {Phase::B_NeighborSearch, Phase::C_SmoothingLength, Phase::E_Density,
                    Phase::F_EosAndIad, Phase::G_DivCurl, Phase::H_MomentumEnergy,
                    Phase::I_SelfGravity, Phase::J_TimestepUpdate})
    {
        m.num("parallel.lb_" + std::string(1, phaseName(p)[0]),
              loop.load[std::size_t(p)].loadBalance());
    }
    m.num("parallel.wait_s", loop.waitSeconds / steps)
        .num("parallel.chunks", double(loop.chunks) / steps);

    // single-thread baseline of the first steps, after the ledger run
    std::size_t workers = WorkerPool::instance().size();
    Loop one            = baselineAt(1, w, seed, smoke);
    Loop many           = baselineAt(workers, w, seed, smoke);
    m.num("parallel.speedup_step", one.seconds / many.seconds);
    for (int p = 0; p < phaseCount; ++p)
    {
        double s = many.phase[std::size_t(p)] > 0
                       ? one.phase[std::size_t(p)] / many.phase[std::size_t(p)]
                       : 0.0;
        m.num("parallel.speedup_" + std::string(1, phaseName(Phase(p))[0]), s);
    }
    m.num("trace.overhead_pct", 100.0 * (loop.seconds / untracedSeconds - 1.0));

    r.info.num("step_s", loop.seconds / steps)
        .num("coverage_worst_gap", loop.worstGap)
        .num("final_time", sim.time());
    return r;
}

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

struct Args
{
    const Workload* workload = nullptr;
    std::uint64_t seed       = 1;
    double seconds           = 20;
    bool smoke               = false;
    bool trace               = false;
};

[[noreturn]] void usage(const std::string& why)
{
    std::fprintf(stderr,
                 "bench_step: %s\n"
                 "usage: bench_step --workload <sedov|evrard|evrard-binned|dam-break>\n"
                 "                  [--seed N] [--seconds S] [--smoke] [--trace]\n",
                 why.c_str());
    std::exit(2);
}

Args parseArgs(int argc, char** argv)
{
    Args a;
    for (int i = 1; i < argc; ++i)
    {
        std::string_view arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) usage("missing value after " + std::string(arg));
            return argv[++i];
        };
        if (arg == "--workload")
        {
            std::string name = value();
            for (const auto& w : kWorkloads)
                if (w.name == name) a.workload = &w;
            if (!a.workload) usage("unknown workload " + name);
        }
        else if (arg == "--seed")
        {
            std::string v = value();
            char* end     = nullptr;
            errno         = 0;
            a.seed        = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || v[0] == '-' || *end != '\0' || errno == ERANGE)
                usage("bad seed " + v);
        }
        else if (arg == "--seconds")
        {
            std::string v = value();
            char* end     = nullptr;
            a.seconds     = std::strtod(v.c_str(), &end);
            if (end == v.c_str() || *end != '\0' || !(a.seconds > 0))
                usage("bad seconds " + v);
        }
        else if (arg == "--smoke") a.smoke = true;
        else if (arg == "--trace") a.trace = true;
        else usage("unknown argument " + std::string(arg));
    }
    if (!a.workload) usage("--workload is required");
    return a;
}

} // namespace

int main(int argc, char** argv)
{
    Args a = parseArgs(argc, argv);

    Result r;
    try
    {
        r = a.trace ? runTraced(*a.workload, a.seed, a.smoke)
                    : runUntraced(*a.workload, a.seed, a.seconds, a.smoke);
    }
    catch (const std::exception& e)
    {
        r.error  = e.what();
        r.failed = 1;
    }

    Json out;
    out.str("workload", a.workload->name)
        .count("seed", a.seed)
        .flag("traced", a.trace)
        .flag("smoke", a.smoke)
        .count("workers", WorkerPool::instance().size())
        .count("particles", r.particles)
        .num("t_end", a.workload->tEnd)
        .flag("correct", r.failed == 0)
        .count("attempted", r.attempted)
        .count("failed", r.failed)
        .str("error", r.error)
        .obj("metrics", r.metrics)
        .obj("counts", r.counts)
        .obj("info", r.info);
    std::printf("%s\n", out.text().c_str());
    return r.failed == 0 ? 0 : 1;
}
