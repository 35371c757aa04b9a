/// \file bench_gradients.cpp
/// Gradient-formulation ablation (Table 2: "IAD, Kernel derivatives"):
/// accuracy of both estimators on a linear field as particle disorder
/// grows, and the per-interaction cost of each — quantifying what SPHYNX
/// buys (and pays) for the integral approach of Garcia-Senz et al. 2012.

#include <cstdio>

#include "domain/box.hpp"
#include "ic/lattice.hpp"
#include "perf/timer.hpp"
#include "sph/density.hpp"
#include "sph/iad.hpp"
#include "sph/momentum_energy.hpp"
#include "sph/smoothing_length.hpp"
#include "tree/neighbors.hpp"
#include "tree/octree.hpp"

using namespace sphexa;

int main()
{
    const std::size_t side = 20;
    Box<double> box{{0, 0, 0}, {1, 1, 1}, true, true, true};

    std::printf("== Gradient ablation: IAD vs kernel derivatives ==\n\n");
    std::printf("%-10s %16s %16s %14s %14s\n", "jitter", "err(KernelDeriv)", "err(IAD)",
                "t_prep_ms", "t_iad_ms");

    for (double jitter : {0.0, 0.1, 0.2, 0.4})
    {
        ParticleSetD ps;
        cubicLattice(ps, side, side, side, box);
        if (jitter > 0) jitterPositions(ps, box, 1.0 / side, jitter, 99);
        for (std::size_t i = 0; i < ps.size(); ++i)
        {
            ps.m[i] = 1.0 / double(ps.size());
            ps.h[i] = initialSmoothingLength(ps.size(), box, 100);
        }
        Octree<double> tree;
        tree.build(ps.x, ps.y, ps.z, box);
        NeighborList<double> nl(ps.size(), 384);
        SmoothingLengthParams<double> hp;
        ClusterWorkspace<double> clusters;
        updateSmoothingLengths(ps, tree, nl, clusters, hp);

        Kernel<double> kernel(KernelType::Sinc);
        computeVolumeElementWeights(ps, VolumeElements::Standard);
        Timer t;
        computeDensity(ps, nl, kernel, box);
        double tPrep = t.lap();
        computeIadCoefficients(ps, nl, kernel, box);
        double tIad = t.lap();

        std::vector<double> field(ps.size());
        for (std::size_t i = 0; i < ps.size(); ++i)
            field[i] = 2 * ps.x[i] + 3 * ps.y[i] - ps.z[i];
        Vec3<double> exact{2, 3, -1};

        double errIad = 0, errKd = 0;
        std::size_t tested = 0;
        for (std::size_t i = 0; i < ps.size(); ++i)
        {
            double margin = 2.5 * ps.h[i];
            bool interior = ps.x[i] > margin && ps.x[i] < 1 - margin && ps.y[i] > margin &&
                            ps.y[i] < 1 - margin && ps.z[i] > margin &&
                            ps.z[i] < 1 - margin;
            if (!interior) continue;
            errIad += norm(iadScalarGradient(ps, nl, kernel, box,
                                             std::span<const double>(field), i) -
                           exact);
            errKd += norm(kernelDerivativeScalarGradient(
                              ps, nl, kernel, box, std::span<const double>(field), i) -
                          exact);
            ++tested;
        }
        std::printf("%-10.2f %16.3e %16.3e %14.2f %14.2f\n", jitter,
                    errKd / double(tested), errIad / double(tested), tPrep * 1e3,
                    tIad * 1e3);
    }

    std::printf("\nreadout: IAD stays machine-accurate on linear fields at any\n"
                "disorder; the kernel-derivative error grows with jitter. IAD's price\n"
                "is one extra pipeline pass (tau assembly + 3x3 inversions).\n");
    return 0;
}
