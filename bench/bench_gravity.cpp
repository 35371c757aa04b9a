/// \file bench_gravity.cpp
/// Self-gravity ablation: cost AND accuracy of the Barnes-Hut solver across
/// multipole orders (2-pole .. 16-pole, Table 1's SPHYNX-vs-ChaNGa choice)
/// and opening angles. Prints a combined table: the trade-off that decides
/// between SPHYNX's 4-pole and ChaNGa's 16-pole configurations. The work
/// columns are per particle: the group walk (tree/gravity.hpp) evaluates
/// every member of a 32-target group against the group's whole list, so it
/// trades more P2P pairs for less walking and a smaller error, which the
/// RMS and worst-particle relative errors show side by side. The walk_s
/// column times the per-particle walk it replaced, the test oracle
/// tests/gravity_oracle.hpp, over the same tree and multipoles; each time is
/// the fastest of three passes.

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "../tests/gravity_oracle.hpp"
#include "math/rng.hpp"
#include "perf/timer.hpp"
#include "sph/particles.hpp"
#include "tree/gravity.hpp"
#include "tree/octree.hpp"

using namespace sphexa;

namespace {

ParticleSetD plummerCluster(std::size_t n)
{
    ParticleSetD ps(n);
    Xoshiro256pp rng(7);
    for (std::size_t i = 0; i < n; ++i)
    {
        ps.x[i] = 0.5 + 0.08 * rng.normal();
        ps.y[i] = 0.5 + 0.08 * rng.normal();
        ps.z[i] = 0.5 + 0.08 * rng.normal();
        ps.m[i] = 1.0 / double(n);
    }
    return ps;
}

/// Fastest of three runs of \p solve over \p ps, accelerations zeroed
/// before each.
template<class F>
double fastestOfThree(ParticleSetD& ps, F&& solve)
{
    double best = 0;
    for (int rep = 0; rep < 3; ++rep)
    {
        std::fill(ps.ax.begin(), ps.ax.end(), 0.0);
        std::fill(ps.ay.begin(), ps.ay.end(), 0.0);
        std::fill(ps.az.begin(), ps.az.end(), 0.0);
        Timer t;
        solve();
        double sec = t.elapsed();
        best       = rep == 0 ? sec : std::min(best, sec);
    }
    return best;
}

} // namespace

int main()
{
    const std::size_t n = 8000;
    auto ps = plummerCluster(n);

    // reference: direct sum, after one untimed pass has woken the worker
    // pool, the fastest of three timed passes: on a shared host the first
    // second of a process can run several times slower, and the speedup
    // column must not carry that
    auto ref = ps;
    GravityParams<double> pref;
    GravitySolver<double>::directSum(ref, pref);
    double directSeconds =
        fastestOfThree(ref, [&] { GravitySolver<double>::directSum(ref, pref); });

    std::printf("== Gravity ablation: multipole order x opening angle (N=%zu) ==\n\n", n);
    std::printf("direct sum reference: %.3f s\n\n", directSeconds);
    std::printf("%-22s %6s %10s %10s %10s %12s %12s %10s %10s\n", "order", "theta", "seconds",
                "speedup", "walk_s", "rms_acc_err", "max_acc_err", "p2p/part", "m2p/part");
    int rows = 0, groupFaster = 0;

    for (auto order : {MultipoleOrder::Monopole, MultipoleOrder::Quadrupole,
                       MultipoleOrder::Octupole, MultipoleOrder::Hexadecapole})
    {
        for (double theta : {0.8, 0.5, 0.3})
        {
            GravityParams<double> params;
            params.order = order;
            params.theta = theta;

            auto work = ps;
            Box<double> box = computeBoundingBox<double>(work.x, work.y, work.z);
            Octree<double> tree;
            Octree<double>::BuildParams bp;
            bp.leafSize = 16;
            tree.build(work.x, work.y, work.z, box, bp);

            GravitySolver<double> solver;
            solver.prepare(tree, work, params);

            GravityStats stats;
            double secs = fastestOfThree(work, [&] { solver.accumulate(work, &stats); });
            auto walked = work;
            double walkSecs = fastestOfThree(walked, [&] {
                oracle::gravityAccumulate(tree, solver, params, walked);
            });
            ++rows;
            groupFaster += secs < walkSecs;

            double num = 0, den = 0, maxErr = 0;
            for (std::size_t i = 0; i < n; ++i)
            {
                double dx = work.ax[i] - ref.ax[i];
                double dy = work.ay[i] - ref.ay[i];
                double dz = work.az[i] - ref.az[i];
                double d2 = dx * dx + dy * dy + dz * dz;
                double r2 = ref.ax[i] * ref.ax[i] + ref.ay[i] * ref.ay[i] +
                            ref.az[i] * ref.az[i];
                num += d2;
                den += r2;
                maxErr = std::max(maxErr, std::sqrt(d2 / r2));
            }
            std::printf("%-22s %6.2f %10.4f %9.1fx %10.4f %12.2e %12.2e %10.0f %10.0f\n",
                        std::string(multipoleOrderName(order)).c_str(), theta, secs,
                        directSeconds / secs, walkSecs, std::sqrt(num / den), maxErr,
                        double(stats.p2pInteractions) / double(n),
                        double(stats.m2pInteractions) / double(n));
        }
    }

    std::printf("\nthe group walk beats the per-particle walk in %d of %d rows%s\n", groupFaster,
                rows, groupFaster == rows ? ", at every order" : "");
    std::printf("\nreadout: higher order buys accuracy at fixed theta; a higher order\n"
                "with wide theta can beat a low order with tight theta on both axes —\n"
                "the rationale for ChaNGa's hexadecapole choice.\n");
    return 0;
}
