/// \file bench_simd.cpp
/// Backend sweep of the hot SPH sums (phases E-H: density, IAD, div/curl,
/// momentum-energy): the Scalar (1-lane) vs the Simd (8-lane) instance of
/// the backend kernels (src/backend/) over a jittered gas lattice at N = 1e4 .. 1e6, in both
/// storage frames: the seed layout ("unsorted") and the SFC-sorted one
/// ("cluster", the shipped frame). The cluster search fills the lists in
/// both; it gives every particle the same neighbors in either frame.
/// Emits one JSON record per (N, mode, backend) point with per-phase
/// timings — the data behind BENCH_simd.json. Phase H packs into one
/// record buffer that persists across every point and both backends, as a
/// driver's does, so its rows time the pack and the kernel, not an
/// allocation per call:
///
///     ./bench_simd > BENCH_simd.json
///
/// Two gates make this a regression fence, not just a report:
///  - at the smallest size, the Simd results must be BITWISE invariant
///    across worker pools {1, 2, 4} and all six scheduling strategies
///    (the fixed-order lane reduction contract of docs/ARCHITECTURE.md);
///  - at the largest size, combined E-H under Simd must beat Scalar by
///    SPHEXA_SIMD_MIN_SPEEDUP (default 1.2x) in the shipping frame
///    (cluster); below the gate the bench exits non-zero.
///
/// Environment:
///   SPHEXA_SIMD_MAXN=NNN          cap the sweep (default 1000000; CI uses
///                                 a small cap for a smoke run)
///   SPHEXA_SIMD_REPS=R            timing repetitions (default 3 small, 1 large)
///   SPHEXA_SIMD_MIN_SPEEDUP=X.Y   speedup gate (default 1.2; 0 disables)

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numbers>
#include <string>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "backend/kernel_backend.hpp"
#include "backend/lane_kernel.hpp"
#include "bench_common.hpp"
#include "ic/lattice.hpp"
#include "parallel/parallel_for.hpp"
#include "perf/timer.hpp"
#include "sph/density.hpp"
#include "sph/divcurl.hpp"
#include "sph/eos.hpp"
#include "sph/iad.hpp"
#include "sph/momentum_energy.hpp"
#include "tree/cluster_list.hpp"
#include "tree/octree.hpp"
#include "tree/sfc_sort.hpp"

using namespace sphexa;

namespace {

constexpr unsigned kNgmax = 192;

double envDouble(const char* name, double fallback)
{
    const char* v = std::getenv(name);
    if (!v) return fallback;
    char* end  = nullptr;
    double got = std::strtod(v, &end);
    return end != v ? got : fallback;
}

/// Jittered unit-box lattice sized for ~100 neighbors per particle (the
/// paper's working point), with the upstream fields of the force phases
/// filled: mass, energy, a smooth shear+rotation velocity field.
ParticleSetD makeCloud(std::size_t nSide, Box<double>& boxOut)
{
    ParticleSetD ps;
    Box<double> box{{0, 0, 0}, {1, 1, 1}, true, true, true};
    cubicLattice(ps, nSide, nSide, nSide, box);
    double dx = 1.0 / double(nSide);
    jitterPositions(ps, box, dx, 0.2, /*seed*/ 42 + nSide);
    double h = 0.5 * dx * std::cbrt(3.0 * 100.0 / (4.0 * std::numbers::pi));
    for (std::size_t i = 0; i < ps.size(); ++i)
    {
        ps.h[i]  = h;
        ps.m[i]  = 1.0 / double(ps.size());
        ps.u[i]  = 1.0;
        ps.vx[i] = 0.3 * ps.y[i] - 0.1 * ps.z[i];
        ps.vy[i] = -0.2 * ps.x[i] + 0.05 * std::sin(6.28 * ps.z[i]);
        ps.vz[i] = 0.15 * ps.x[i] + 0.1 * ps.y[i];
    }
    boxOut = box;
    return ps;
}

/// Scalar prerequisites so every timed phase starts from a physical state:
/// volume elements, density, EOS, IAD coefficients, balsara switches.
void fillUpstream(ParticleSetD& ps, const NeighborList<double>& nl,
                  const Kernel<double>& kernel, const Box<double>& box)
{
    computeVolumeElementWeights(ps, VolumeElements::Standard);
    computeDensity(ps, nl, kernel, box);
    Eos<double> eos{IdealGasEos<double>(5.0 / 3.0)};
    for (std::size_t i = 0; i < ps.size(); ++i)
    {
        auto res = eos(ps.rho[i], ps.u[i]);
        ps.p[i]  = res.pressure;
        ps.c[i]  = res.soundSpeed;
    }
    computeIadCoefficients(ps, nl, kernel, box);
    computeDivCurl(ps, nl, kernel, box, GradientMode::IAD);
}

struct Point
{
    std::size_t n{};
    std::size_t pool{};
    std::string mode;
    std::string backend;
    double densitySeconds{};
    double iadSeconds{};
    double divcurlSeconds{};
    double momentumSeconds{};
    double totalSeconds{};
    double speedup{}; ///< simd records only: scalar total / simd total
};

void setWorkers(std::size_t pool)
{
    WorkerPool::instance().resize(pool);
#ifdef _OPENMP
    omp_set_num_threads(int(pool));
#endif
}

/// Run the four force phases once under `be`, timing each; fold the lap
/// times into the min-of-reps accumulator `p`.
void runPhases(ParticleSetD& ps, const NeighborList<double>& nl,
               const Kernel<double>& kernel, const Box<double>& box,
               const ComputeBackend<double>& be, MomentumRecordBuffer<double>& records,
               Point& p, bool first)
{
    Timer t;
    auto fold = [&](double& slot, double got) {
        if (first || got < slot) slot = got;
    };
    t.reset();
    computeDensity(ps, nl, kernel, box, {}, {}, be);
    fold(p.densitySeconds, t.lap());
    t.reset();
    computeIadCoefficients(ps, nl, kernel, box, {}, {}, be);
    fold(p.iadSeconds, t.lap());
    t.reset();
    computeDivCurl(ps, nl, kernel, box, GradientMode::IAD, {}, {}, be);
    fold(p.divcurlSeconds, t.lap());
    t.reset();
    computeMomentumEnergy(ps, nl, kernel, box, GradientMode::IAD, {}, {}, {}, be, &records);
    fold(p.momentumSeconds, t.lap());
}

/// Bitwise gate at the smallest size: the Simd path must produce the exact
/// same bits for every pool size in {1, 2, 4} under every scheduling
/// strategy. Returns the number of mismatching (field, point) pairs.
std::size_t checkSimdInvariance(const ParticleSetD& psBase, const NeighborList<double>& nl,
                                const Kernel<double>& kernel, const LaneKernel<double>& lanes,
                                const Box<double>& box)
{
    constexpr std::array<SchedulingStrategy, 6> strategies{
        SchedulingStrategy::Static,    SchedulingStrategy::SelfScheduling,
        SchedulingStrategy::Guided,    SchedulingStrategy::Trapezoid,
        SchedulingStrategy::Factoring, SchedulingStrategy::AdaptiveWeightedFactoring};
    ComputeBackend<double> be{KernelBackend::Simd, &lanes};

    auto run = [&](std::size_t pool, SchedulingStrategy strat) {
        setWorkers(pool);
        LoopPolicy pol;
        pol.strategy = strat;
        std::vector<double> awf;
        if (strat == SchedulingStrategy::AdaptiveWeightedFactoring) pol.awfWeights = &awf;
        ParticleSetD ps = psBase;
        computeDensity(ps, nl, kernel, box, {}, pol, be);
        computeIadCoefficients(ps, nl, kernel, box, {}, pol, be);
        computeDivCurl(ps, nl, kernel, box, GradientMode::IAD, {}, pol, be);
        computeMomentumEnergy(ps, nl, kernel, box, GradientMode::IAD, {}, {}, pol, be);
        return ps;
    };

    auto ref               = run(1, SchedulingStrategy::Static);
    std::size_t mismatches = 0;
    auto compare           = [&](const std::vector<double>& a, const std::vector<double>& b,
                                 const char* what, std::size_t pool, int strat) {
        for (std::size_t i = 0; i < a.size(); ++i)
        {
            if (a[i] != b[i]) // bitwise, not tolerance
            {
                if (++mismatches <= 5)
                {
                    std::fprintf(stderr,
                                 "FATAL: simd %s[%zu] differs at pool=%zu strategy=%d: "
                                 "%.17g vs %.17g\n",
                                 what, i, pool, strat, a[i], b[i]);
                }
            }
        }
    };
    for (std::size_t pool : {std::size_t(1), std::size_t(2), std::size_t(4)})
    {
        for (SchedulingStrategy strat : strategies)
        {
            auto got = run(pool, strat);
            compare(ref.rho, got.rho, "rho", pool, int(strat));
            compare(ref.c11, got.c11, "c11", pool, int(strat));
            compare(ref.divv, got.divv, "divv", pool, int(strat));
            compare(ref.ax, got.ax, "ax", pool, int(strat));
            compare(ref.du, got.du, "du", pool, int(strat));
        }
    }
    return mismatches;
}

void printPoint(const Point& p, bool last)
{
    std::printf("    {\"n\": %zu, \"pool\": %zu, \"mode\": \"%s\", \"backend\": \"%s\", "
                "\"density_seconds\": %.6f, \"iad_seconds\": %.6f, "
                "\"divcurl_seconds\": %.6f, \"momentum_seconds\": %.6f, "
                "\"total_seconds\": %.6f",
                p.n, p.pool, p.mode.c_str(), p.backend.c_str(), p.densitySeconds,
                p.iadSeconds, p.divcurlSeconds, p.momentumSeconds, p.totalSeconds);
    if (p.backend == "simd") std::printf(", \"speedup\": %.3f", p.speedup);
    std::printf("}%s\n", last ? "" : ",");
}

} // namespace

int main()
{
    std::size_t maxN  = bench::envSize("SPHEXA_SIMD_MAXN", 1000000);
    double gate       = envDouble("SPHEXA_SIMD_MIN_SPEEDUP", 1.2);
    std::size_t pool  = 4;
    Kernel<double> kernel(KernelType::Sinc); // the paper profiles' default
    LaneKernel<double> lanes(kernel);
    MomentumRecordBuffer<double> records; // phase H's, shared by every point

    std::vector<std::size_t> sides;
    for (std::size_t side : {22, 46, 100}) // 1e4, 1e5, 1e6 particles
    {
        if (side * side * side <= maxN) sides.push_back(side);
    }
    if (sides.empty()) sides.push_back(10);

    std::vector<Point> points;
    double gatedSpeedup = 0; // cluster-mode speedup at the largest size
    std::size_t invarianceMismatches = 0;
    bool invarianceChecked           = false;

    for (std::size_t side : sides)
    {
        Box<double> box;
        auto psBase   = makeCloud(side, box);
        std::size_t n = psBase.size();
        std::size_t reps = bench::envSize("SPHEXA_SIMD_REPS", n <= 200000 ? 3 : 1);
        records.pack(psBase); // grown here, so no timed call allocates

        for (const char* mode : {"unsorted", "cluster"})
        {
            ParticleSetD ps = psBase;
            if (std::string(mode) == "cluster")
            {
                SfcSorter<double> sorter;
                sorter.apply(ps, box, SfcCurve::Hilbert);
            }
            Octree<double> tree;
            tree.build(ps.x, ps.y, ps.z, box);
            NeighborList<double> nl(n, kNgmax);
            ClusterWorkspace<double> ws;
            findNeighborsClustered(tree, ps.x, ps.y, ps.z, ps.h, nl, ws, kClusterSize);
            setWorkers(pool);
            fillUpstream(ps, nl, kernel, box);

            double scalarTotal = 0;
            for (const char* backendName : {"scalar", "simd"})
            {
                bool isSimd = std::string(backendName) == "simd";
                ComputeBackend<double> be{
                    isSimd ? KernelBackend::Simd : KernelBackend::Scalar, &lanes};
                Point p;
                p.n       = n;
                p.pool    = pool;
                p.mode    = mode;
                p.backend = backendName;
                for (std::size_t r = 0; r < reps; ++r)
                {
                    runPhases(ps, nl, kernel, box, be, records, p, r == 0);
                }
                p.totalSeconds =
                    p.densitySeconds + p.iadSeconds + p.divcurlSeconds + p.momentumSeconds;
                if (!isSimd) { scalarTotal = p.totalSeconds; }
                else
                {
                    p.speedup = scalarTotal / p.totalSeconds;
                    if (std::string(mode) == "cluster" && side == sides.back())
                    {
                        gatedSpeedup = p.speedup;
                    }
                }
                points.push_back(p);
                std::fprintf(stderr, "n=%7zu pool=%zu %-8s %-6s E-H %.4fs%s\n", n, pool,
                             mode, backendName, p.totalSeconds,
                             isSimd ? (" (speedup " + std::to_string(p.speedup) + "x)").c_str()
                                    : "");
            }

            // bitwise pool/strategy invariance of the Simd path, smallest
            // size, seed-layout frame (cheap: 18 full E-H evaluations)
            if (side == sides.front() && std::string(mode) == "unsorted")
            {
                invarianceMismatches = checkSimdInvariance(ps, nl, kernel, lanes, box);
                invarianceChecked    = true;
                setWorkers(pool);
            }
        }
    }

    std::printf("{\n  \"bench\": \"simd-backend\",\n");
    std::printf("  \"kernel\": \"%.*s\",\n", int(kernelName(KernelType::Sinc).size()),
                kernelName(KernelType::Sinc).data());
    std::printf("  \"ngmax\": %u,\n  \"cluster_size\": %u,\n", kNgmax, kClusterSize);
    std::printf("  \"max_n\": %zu,\n", maxN);
    std::printf("  \"pool\": %zu,\n", pool);
    std::printf("  \"min_speedup_gate\": %.2f,\n", gate);
    std::printf("  \"gated_speedup\": %.3f,\n", gatedSpeedup);
    std::printf("  \"simd_bitwise_invariant\": %s,\n",
                invarianceChecked && invarianceMismatches == 0 ? "true" : "false");
    std::printf("  \"points\": [\n");
    for (std::size_t i = 0; i < points.size(); ++i)
        printPoint(points[i], i + 1 == points.size());
    std::printf("  ]\n}\n");

    if (invarianceMismatches != 0)
    {
        std::fprintf(stderr, "FATAL: %zu bitwise mismatches in the Simd "
                             "pool/strategy invariance gate\n",
                     invarianceMismatches);
        return 1;
    }
    if (gate > 0 && gatedSpeedup < gate)
    {
        std::fprintf(stderr,
                     "FATAL: combined E-H Simd speedup %.3fx below the %.2fx gate "
                     "(override with SPHEXA_SIMD_MIN_SPEEDUP)\n",
                     gatedSpeedup, gate);
        return 1;
    }
    return 0;
}
