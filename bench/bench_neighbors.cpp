/// \file bench_neighbors.cpp
/// Neighbor-search crossover sweep: the per-particle tree walk (the test
/// oracle tests/neighbor_oracle.hpp) vs the SFC-sorted cluster search
/// (tree/sfc_sort.hpp + tree/cluster_list.hpp) over a jittered gas lattice
/// at N = 1e4 .. 1e6, worker pools {1, 4}, plus subset searches of 5% and
/// 50% of the particles (the binned step's and the h iteration's shape)
/// against the per-particle Individual walk. Emits one JSON record per
/// (N, pool, mode) point with tree-build, sort and search timings — the
/// data behind BENCH_neighbors.json, the crossover trajectory tracked across
/// commits:
///
///     ./bench_neighbors > BENCH_neighbors.json
///
/// Every cluster point is verified against the tree walk (exact list
/// equality at the smallest size, total-neighbor equality everywhere), every
/// subset point row by row at every size, and the steady-state
/// no-allocation-churn property of the grow-only NeighborList reset is
/// asserted on every full-search point.
///
/// Environment:
///   SPHEXA_NEIGHBORS_MAXN=NNN  cap the sweep (default 1000000; CI uses a
///                              small cap for a smoke run)
///   SPHEXA_NEIGHBORS_REPS=R    timing repetitions (default 3 small, 1 large)

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <numbers>
#include <string>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "../tests/neighbor_oracle.hpp"
#include "bench_common.hpp"
#include "ic/lattice.hpp"
#include "math/rng.hpp"
#include "parallel/parallel_for.hpp"
#include "perf/timer.hpp"
#include "tree/cluster_list.hpp"
#include "tree/neighbors.hpp"
#include "tree/sfc_sort.hpp"

using namespace sphexa;

namespace {

constexpr unsigned kNgmax = 192;

/// Jittered unit-box lattice sized for ~100 neighbors per particle (the
/// paper's working point), fully periodic like the Sedov box.
ParticleSetD makeCloud(std::size_t nSide, Box<double>& boxOut)
{
    ParticleSetD ps;
    Box<double> box{{0, 0, 0}, {1, 1, 1}, true, true, true};
    cubicLattice(ps, nSide, nSide, nSide, box);
    double dx = 1.0 / double(nSide);
    jitterPositions(ps, box, dx, 0.2, /*seed*/ 42 + nSide);
    // 2h = dx * (3 * 100 / 4pi)^(1/3): ~100 neighbors in the support sphere
    double h = 0.5 * dx * std::cbrt(3.0 * 100.0 / (4.0 * std::numbers::pi));
    for (std::size_t i = 0; i < ps.size(); ++i)
        ps.h[i] = h;
    boxOut = box;
    return ps;
}

struct Point
{
    std::size_t n{};
    std::size_t pool{};
    std::string mode;
    double treeSeconds{};
    double sortSeconds{};
    double searchSeconds{};
    std::size_t neighbors{};
    double speedupVsWalk{}; ///< cluster and subset records: walk/cluster search time
    double fraction{};      ///< subset records: share of the particles searched
    double walkSeconds{};   ///< subset records: the per-particle walk of the subset
};

void setWorkers(std::size_t pool)
{
    WorkerPool::instance().resize(pool);
#ifdef _OPENMP
    omp_set_num_threads(int(pool));
#endif
}

/// Assert the steady-state reset reuses the high-water-mark allocation: a
/// second reset+fill cycle must not move or grow the entry storage.
void assertNoAllocationChurn(NeighborList<double>& nl, std::size_t n,
                             const std::function<void()>& fill)
{
    const auto* data     = nl.entryData();
    std::size_t capacity = nl.entryCapacity();
    nl.reset(n, kNgmax);
    fill();
    if (nl.entryData() != data || nl.entryCapacity() != capacity)
    {
        std::fprintf(stderr,
                     "FATAL: NeighborList reset reallocated in steady state "
                     "(capacity %zu -> %zu)\n",
                     capacity, nl.entryCapacity());
        std::exit(1);
    }
}

void printPoint(const Point& p, bool last)
{
    std::printf("    {\"n\": %zu, \"pool\": %zu, \"mode\": \"%s\", "
                "\"tree_seconds\": %.6f, \"sort_seconds\": %.6f, "
                "\"search_seconds\": %.6f, \"neighbors\": %zu",
                p.n, p.pool, p.mode.c_str(), p.treeSeconds, p.sortSeconds,
                p.searchSeconds, p.neighbors);
    if (p.mode == "subset")
    {
        std::printf(", \"fraction\": %.2f, \"walk_seconds\": %.6f", p.fraction, p.walkSeconds);
    }
    if (p.mode != "treewalk") std::printf(", \"search_speedup\": %.3f", p.speedupVsWalk);
    std::printf("}%s\n", last ? "" : ",");
}

/// About \p fraction of [0, n), ascending, drawn with \p seed.
std::vector<std::size_t> randomSubset(std::size_t n, double fraction, std::uint64_t seed)
{
    Xoshiro256pp rng(seed);
    std::vector<std::size_t> subset;
    for (std::size_t i = 0; i < n; ++i)
        if (rng.uniform() < fraction) subset.push_back(i);
    return subset;
}

} // namespace

int main()
{
    std::size_t maxN = bench::envSize("SPHEXA_NEIGHBORS_MAXN", 1000000);
    std::vector<std::size_t> sides;
    for (std::size_t side : {22, 31, 46, 67, 100}) // 1e4 .. 1e6 particles
    {
        if (side * side * side <= maxN) sides.push_back(side);
    }
    if (sides.empty()) sides.push_back(10);

    std::vector<Point> points;
    for (std::size_t side : sides)
    {
        Box<double> box;
        auto psBase   = makeCloud(side, box);
        std::size_t n = psBase.size();
        std::size_t reps =
            bench::envSize("SPHEXA_NEIGHBORS_REPS", n <= 200000 ? 3 : 1);

        for (std::size_t pool : {std::size_t(1), std::size_t(4)})
        {
            setWorkers(pool);

            // --- per-particle tree walk on the unsorted set -----------------
            Point walk;
            walk.n    = n;
            walk.pool = pool;
            walk.mode = "treewalk";
            ParticleSetD ps = psBase;
            Octree<double> tree;
            NeighborList<double> nl(n, kNgmax);
            Timer t;
            for (std::size_t r = 0; r < reps; ++r)
            {
                t.reset();
                tree.build(ps.x, ps.y, ps.z, box);
                double tb = t.lap();
                nl.reset(n, kNgmax);
                t.reset();
                oracle::findNeighborsGlobal(tree, ps.x, ps.y, ps.z, ps.h, nl);
                double ts = t.lap();
                if (r == 0 || tb < walk.treeSeconds) walk.treeSeconds = tb;
                if (r == 0 || ts < walk.searchSeconds) walk.searchSeconds = ts;
            }
            walk.neighbors = nl.totalNeighbors();
            assertNoAllocationChurn(nl, n, [&] {
                oracle::findNeighborsGlobal(tree, ps.x, ps.y, ps.z, ps.h, nl);
            });
            points.push_back(walk);

            // --- SFC sort + cluster search ---------------------------------
            Point clu;
            clu.n    = n;
            clu.pool = pool;
            clu.mode = "cluster";
            ParticleSetD psSorted = psBase;
            SfcSorter<double> sorter;
            t.reset();
            // Hilbert, not Morton: its locality keeps consecutive runs of 32
            // particles compact (no octant-boundary jumps), which measures
            // ~1.6x fewer candidate tests per cluster member. The tree takes
            // the same curve, as in the pipeline: clusters are windows of
            // its order, which is then the storage order
            sorter.apply(psSorted, box, SfcCurve::Hilbert);
            Octree<double>::BuildParams hilbert;
            hilbert.curve = SfcCurve::Hilbert;
            clu.sortSeconds = t.lap();

            ClusterWorkspace<double> ws;
            for (std::size_t r = 0; r < reps; ++r)
            {
                t.reset();
                tree.build(psSorted.x, psSorted.y, psSorted.z, box, hilbert);
                double tb = t.lap();
                nl.reset(n, kNgmax);
                t.reset();
                findNeighborsClustered(tree, psSorted.x, psSorted.y, psSorted.z,
                                       psSorted.h, nl, ws, kClusterSize);
                double ts = t.lap();
                if (r == 0 || tb < clu.treeSeconds) clu.treeSeconds = tb;
                if (r == 0 || ts < clu.searchSeconds) clu.searchSeconds = ts;
            }
            clu.neighbors     = nl.totalNeighbors();
            clu.speedupVsWalk = walk.searchSeconds / clu.searchSeconds;
            assertNoAllocationChurn(nl, n, [&] {
                findNeighborsClustered(tree, psSorted.x, psSorted.y, psSorted.z,
                                       psSorted.h, nl, ws, kClusterSize);
            });

            // --- correctness gates -----------------------------------------
            // same physical pair count in both frames, always
            if (clu.neighbors != walk.neighbors)
            {
                std::fprintf(stderr,
                             "FATAL: neighbor totals differ at n=%zu: walk %zu "
                             "vs cluster %zu\n",
                             n, walk.neighbors, clu.neighbors);
                return 1;
            }
            // exact per-particle list equality in the sorted frame (cheap
            // enough at the smallest size only)
            if (side == sides.front())
            {
                NeighborList<double> ref(n, kNgmax);
                oracle::findNeighborsGlobal(tree, psSorted.x, psSorted.y, psSorted.z,
                                            psSorted.h, ref);
                for (std::size_t i = 0; i < n; ++i)
                {
                    auto a = ref.neighbors(i);
                    auto b = nl.neighbors(i);
                    if (a.size() != b.size() ||
                        !std::equal(a.begin(), a.end(), b.begin()))
                    {
                        std::fprintf(stderr,
                                     "FATAL: cluster list mismatch at particle "
                                     "%zu (n=%zu)\n",
                                     i, n);
                        return 1;
                    }
                }
            }
            points.push_back(clu);

            std::fprintf(stderr,
                         "n=%7zu pool=%zu walk %.4fs cluster %.4fs (sort %.4fs, "
                         "speedup %.2fx)\n",
                         n, pool, walk.searchSeconds, clu.searchSeconds,
                         clu.sortSeconds, clu.speedupVsWalk);

            // --- subset searches over the sorted set's tree ----------------
            NeighborList<double> ref(n, kNgmax);
            for (double fraction : {0.05, 0.5})
            {
                auto subset = randomSubset(n, fraction, 1000 * side + std::size_t(100 * fraction));
                Point sub;
                sub.n        = n;
                sub.pool     = pool;
                sub.mode     = "subset";
                sub.fraction = fraction;
                for (std::size_t r = 0; r < reps; ++r)
                {
                    ref.reset(n, kNgmax);
                    t.reset();
                    oracle::findNeighborsIndividual(tree, psSorted.x, psSorted.y, psSorted.z,
                                                    psSorted.h, subset, ref);
                    double tw = t.lap();
                    nl.reset(n, kNgmax);
                    t.reset();
                    findNeighborsClustered(tree, psSorted.x, psSorted.y, psSorted.z, psSorted.h,
                                           subset, nl, ws, kClusterSize);
                    double ts = t.lap();
                    if (r == 0 || tw < sub.walkSeconds) sub.walkSeconds = tw;
                    if (r == 0 || ts < sub.searchSeconds) sub.searchSeconds = ts;
                }
                sub.neighbors     = nl.totalNeighbors();
                sub.speedupVsWalk = sub.walkSeconds / sub.searchSeconds;
                // exact rows of the subset, nothing outside it
                if (sub.neighbors != ref.totalNeighbors())
                {
                    std::fprintf(stderr, "FATAL: subset totals differ at n=%zu: walk %zu vs "
                                         "cluster %zu\n",
                                 n, ref.totalNeighbors(), sub.neighbors);
                    return 1;
                }
                for (std::size_t i : subset)
                {
                    auto a = ref.neighbors(i);
                    auto b = nl.neighbors(i);
                    if (a.size() != b.size() || !std::equal(a.begin(), a.end(), b.begin()))
                    {
                        std::fprintf(stderr,
                                     "FATAL: subset list mismatch at particle %zu (n=%zu)\n", i,
                                     n);
                        return 1;
                    }
                }
                points.push_back(sub);
                std::fprintf(stderr,
                             "n=%7zu pool=%zu subset %.0f%% walk %.4fs cluster %.4fs "
                             "(speedup %.2fx)\n",
                             n, pool, 100 * fraction, sub.walkSeconds, sub.searchSeconds,
                             sub.speedupVsWalk);
            }
        }
    }

    std::printf("{\n  \"bench\": \"neighbors-crossover\",\n");
    std::printf("  \"ngmax\": %u,\n  \"cluster_size\": %u,\n", kNgmax, kClusterSize);
    std::printf("  \"max_n\": %zu,\n", maxN);
    std::printf("  \"points\": [\n");
    for (std::size_t i = 0; i < points.size(); ++i)
        printPoint(points[i], i + 1 == points.size());
    std::printf("  ]\n}\n");
    return 0;
}
