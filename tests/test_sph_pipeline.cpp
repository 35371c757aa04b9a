/// SPH pipeline tests on controlled particle configurations:
///  - density summation recovers uniform density on a lattice (all kernels,
///    both volume-element formulations);
///  - IAD and kernel-derivative gradients are accurate for linear fields,
///    with IAD exact (its defining property);
///  - grad-h terms ~ 1 on uniform lattices;
///  - smoothing-length iteration reaches the target neighbor count;
///  - momentum/energy: pairwise symmetry gives exact conservation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <vector>

#include "domain/box.hpp"
#include "ic/lattice.hpp"
#include "math/rng.hpp"
#include "neighbor_oracle.hpp"
#include "sph/density.hpp"
#include "sph/divcurl.hpp"
#include "sph/iad.hpp"
#include "sph/momentum_energy.hpp"
#include "sph/particles.hpp"
#include "sph/smoothing_length.hpp"
#include "tree/neighbors.hpp"
#include "tree/octree.hpp"

using namespace sphexa;

namespace {

struct LatticeFixture
{
    ParticleSetD ps;
    Box<double> box{{0, 0, 0}, {1, 1, 1}, true, true, true};
    Octree<double> tree;
    NeighborList<double> nl;

    explicit LatticeFixture(std::size_t side = 16, double jitter = 0.0,
                            unsigned targetNeighbors = 100)
        : nl(0, 384)
    {
        cubicLattice(ps, side, side, side, box);
        double dx = 1.0 / double(side);
        if (jitter > 0) jitterPositions(ps, box, dx, jitter, 1234);
        double rho0 = 1.0;
        for (std::size_t i = 0; i < ps.size(); ++i)
        {
            ps.m[i] = rho0 / double(ps.size());
            ps.h[i] = initialSmoothingLength(ps.size(), box, targetNeighbors);
        }
        tree.build(ps.x, ps.y, ps.z, box);
        nl.reset(ps.size(), 384);
        SmoothingLengthParams<double> hp;
        hp.targetNeighbors = targetNeighbors;
        hp.tolerance       = 5;
        ClusterWorkspace<double> clusters;
        updateSmoothingLengths(ps, tree, nl, clusters, hp);
    }
};

} // namespace

// --- density ---------------------------------------------------------------

class DensityKernelSweep : public ::testing::TestWithParam<KernelType>
{
};

TEST_P(DensityKernelSweep, UniformLatticeDensity)
{
    LatticeFixture f(16);
    Kernel<double> kernel(GetParam());
    computeVolumeElementWeights(f.ps, VolumeElements::Standard);
    computeDensity(f.ps, f.nl, kernel, f.box);

    // density must be 1 everywhere within ~1% (kernel bias on a lattice)
    for (std::size_t i = 0; i < f.ps.size(); ++i)
    {
        EXPECT_NEAR(f.ps.rho[i], 1.0, 0.02) << kernelName(GetParam()) << " i=" << i;
    }
}

INSTANTIATE_TEST_SUITE_P(Kernels, DensityKernelSweep,
                         ::testing::Values(KernelType::Sinc, KernelType::CubicSpline,
                                           KernelType::WendlandC2, KernelType::WendlandC6));

TEST(Density, GeneralizedVEMatchesStandardOnUniform)
{
    LatticeFixture f(12);
    Kernel<double> kernel(KernelType::Sinc);

    auto psStd = f.ps;
    computeVolumeElementWeights(psStd, VolumeElements::Standard);
    computeDensity(psStd, f.nl, kernel, f.box);

    auto psGen = f.ps;
    // seed rho with the standard result, then iterate generalized VE
    psGen.rho = psStd.rho;
    computeVolumeElementWeights(psGen, VolumeElements::Generalized, 0.9);
    computeDensity(psGen, f.nl, kernel, f.box);

    for (std::size_t i = 0; i < psStd.size(); ++i)
    {
        EXPECT_NEAR(psGen.rho[i], psStd.rho[i], 0.01 * psStd.rho[i]);
    }
}

TEST(Density, MassWeightedVolumesTileTheBox)
{
    LatticeFixture f(12);
    Kernel<double> kernel(KernelType::CubicSpline);
    computeVolumeElementWeights(f.ps, VolumeElements::Standard);
    computeDensity(f.ps, f.nl, kernel, f.box);
    double vtot = 0;
    for (std::size_t i = 0; i < f.ps.size(); ++i)
        vtot += f.ps.vol[i];
    EXPECT_NEAR(vtot, f.box.volume(), 0.02 * f.box.volume());
}

TEST(Density, GradHNearOneOnUniformLattice)
{
    LatticeFixture f(12);
    Kernel<double> kernel(KernelType::Sinc);
    computeVolumeElementWeights(f.ps, VolumeElements::Standard);
    computeDensity(f.ps, f.nl, kernel, f.box);
    for (std::size_t i = 0; i < f.ps.size(); ++i)
    {
        EXPECT_NEAR(f.ps.gradh[i], 1.0, 0.15);
    }
}

TEST(Density, VariableMassesRecoverUniformDensity)
{
    // two interleaved species with different masses arranged so total
    // density stays uniform: mass m and 2m at half the number density would
    // be complex; instead scale all masses randomly +-20% and verify the
    // density responds linearly (sum m_b W): doubling all masses doubles rho.
    LatticeFixture f(10);
    Kernel<double> kernel(KernelType::Sinc);
    computeVolumeElementWeights(f.ps, VolumeElements::Standard);
    computeDensity(f.ps, f.nl, kernel, f.box);
    auto rho1 = f.ps.rho;
    for (auto& m : f.ps.m)
        m *= 2;
    computeVolumeElementWeights(f.ps, VolumeElements::Standard);
    computeDensity(f.ps, f.nl, kernel, f.box);
    for (std::size_t i = 0; i < f.ps.size(); ++i)
    {
        EXPECT_NEAR(f.ps.rho[i], 2 * rho1[i], 1e-10);
    }
}

// --- smoothing length ---------------------------------------------------------

TEST(SmoothingLength, ReachesTargetCount)
{
    LatticeFixture f(14, 0.2, 80);
    std::size_t within = 0;
    for (std::size_t i = 0; i < f.ps.size(); ++i)
    {
        if (std::abs(f.ps.nc[i] - 80) <= 10) ++within;
    }
    // the overwhelming majority must be at the target
    EXPECT_GT(double(within) / double(f.ps.size()), 0.95);
}

TEST(SmoothingLength, UpdateHFixedPoint)
{
    // at count == target the update leaves h unchanged
    EXPECT_DOUBLE_EQ(updateH(0.1, 100, 100), 0.1);
    // too few neighbors -> h grows; too many -> shrinks
    EXPECT_GT(updateH(0.1, 50, 100), 0.1);
    EXPECT_LT(updateH(0.1, 200, 100), 0.1);
}

TEST(SmoothingLength, InitialGuessGivesRoughlyTarget)
{
    LatticeFixture f(16, 0.0, 100);
    // initialSmoothingLength was used as the seed; after convergence, h
    // should be within a factor ~1.5 of the seed
    double seed = initialSmoothingLength<double>(16 * 16 * 16, f.box, 100);
    for (std::size_t i = 0; i < f.ps.size(); i += 97)
    {
        EXPECT_GT(f.ps.h[i], seed / 1.5);
        EXPECT_LT(f.ps.h[i], seed * 1.5);
    }
}

TEST(SmoothingLength, StatsSinkSeesTheReWalkAsWellAsTheUpdate)
{
    // phase C's policy reaches both of its loops, so its load accounting
    // covers the re-walk that rewrites the rows, not just the h update
    ParticleSetD ps;
    Box<double> box{{0, 0, 0}, {1, 1, 1}, true, true, true};
    cubicLattice(ps, 10, 10, 10, box);
    for (std::size_t i = 0; i < ps.size(); ++i)
        ps.h[i] = (i % 3 == 0 ? 1.4 : 1.0) * initialSmoothingLength(ps.size(), box, 60);
    Octree<double> tree;
    tree.build(ps.x, ps.y, ps.z, box);
    NeighborList<double> nl(ps.size(), 384);
    oracle::findNeighborsGlobal(tree, ps.x, ps.y, ps.z, ps.h, nl);

    std::vector<bool> isActive(ps.size());
    std::size_t active = 0;
    for (std::size_t i = 0; i < ps.size(); ++i)
    {
        isActive[i] = !neighborCountConverged(nl.count(i), 60, 5);
        active += isActive[i] ? 1 : 0;
    }
    ASSERT_GT(active, 0u);
    // the re-walk runs one iteration per window of kClusterSize tree
    // positions that holds an active particle
    const auto& order   = tree.order();
    std::size_t windows = 0;
    for (std::size_t first = 0; first < order.size(); first += kClusterSize)
    {
        bool any = false;
        for (std::size_t k = first; k < std::min<std::size_t>(order.size(), first + kClusterSize);
             ++k)
            any = any || isActive[order[k]];
        windows += any ? 1 : 0;
    }

    SmoothingLengthParams<double> hp;
    hp.targetNeighbors = 60;
    hp.tolerance       = 5;
    hp.maxIterations   = 1;
    PhaseLoadStats stats;
    LoopPolicy pol;
    pol.stats = &stats;
    ClusterWorkspace<double> clusters;
    auto res = updateSmoothingLengths(ps, tree, nl, clusters, hp, {}, /*reuseLists*/ true, pol);
    ASSERT_EQ(res.iterations, 1u);

    EXPECT_EQ(stats.invocations, 2u); // the h update and the re-walk
    std::size_t iterations = 0;
    for (auto it : stats.workerIterations)
        iterations += it;
    EXPECT_EQ(iterations, active + windows);
}

// --- gradients ----------------------------------------------------------------

class GradientSweep : public ::testing::TestWithParam<double> // jitter
{
};

TEST_P(GradientSweep, IadExactForLinearField)
{
    LatticeFixture f(14, GetParam());
    Kernel<double> kernel(KernelType::Sinc);
    computeVolumeElementWeights(f.ps, VolumeElements::Standard);
    computeDensity(f.ps, f.nl, kernel, f.box);
    computeIadCoefficients(f.ps, f.nl, kernel, f.box);

    // linear field f = 2x + 3y - z; note the box is periodic but the field
    // is not -- only test interior particles away from the wrap.
    std::vector<double> field(f.ps.size());
    for (std::size_t i = 0; i < f.ps.size(); ++i)
        field[i] = 2 * f.ps.x[i] + 3 * f.ps.y[i] - f.ps.z[i];

    std::size_t tested = 0;
    for (std::size_t i = 0; i < f.ps.size(); ++i)
    {
        double margin = 2.5 * f.ps.h[i];
        bool interior = f.ps.x[i] > margin && f.ps.x[i] < 1 - margin &&
                        f.ps.y[i] > margin && f.ps.y[i] < 1 - margin &&
                        f.ps.z[i] > margin && f.ps.z[i] < 1 - margin;
        if (!interior) continue;
        auto g = iadScalarGradient(f.ps, f.nl, kernel, f.box,
                                   std::span<const double>(field), i);
        EXPECT_NEAR(g.x, 2.0, 0.02) << "i=" << i;
        EXPECT_NEAR(g.y, 3.0, 0.03) << "i=" << i;
        EXPECT_NEAR(g.z, -1.0, 0.02) << "i=" << i;
        ++tested;
        if (tested > 200) break;
    }
    EXPECT_GT(tested, 20u);
}

TEST_P(GradientSweep, IadBeatsKernelDerivativeOnDisorder)
{
    double jitter = GetParam();
    if (jitter == 0.0) GTEST_SKIP() << "comparison only meaningful with disorder";

    LatticeFixture f(14, jitter);
    Kernel<double> kernel(KernelType::Sinc);
    computeVolumeElementWeights(f.ps, VolumeElements::Standard);
    computeDensity(f.ps, f.nl, kernel, f.box);
    computeIadCoefficients(f.ps, f.nl, kernel, f.box);

    std::vector<double> field(f.ps.size());
    for (std::size_t i = 0; i < f.ps.size(); ++i)
        field[i] = 2 * f.ps.x[i] + 3 * f.ps.y[i] - f.ps.z[i];
    Vec3<double> exact{2, 3, -1};

    double errIad = 0, errKd = 0;
    std::size_t tested = 0;
    for (std::size_t i = 0; i < f.ps.size(); ++i)
    {
        double margin = 2.5 * f.ps.h[i];
        bool interior = f.ps.x[i] > margin && f.ps.x[i] < 1 - margin &&
                        f.ps.y[i] > margin && f.ps.y[i] < 1 - margin &&
                        f.ps.z[i] > margin && f.ps.z[i] < 1 - margin;
        if (!interior) continue;
        auto gi = iadScalarGradient(f.ps, f.nl, kernel, f.box,
                                    std::span<const double>(field), i);
        auto gk = kernelDerivativeScalarGradient(f.ps, f.nl, kernel, f.box,
                                                 std::span<const double>(field), i);
        errIad += norm(gi - exact);
        errKd += norm(gk - exact);
        ++tested;
    }
    ASSERT_GT(tested, 50u);
    // IAD is exact on linear fields regardless of disorder; the kernel
    // derivative estimate degrades with jitter (Garcia-Senz et al. 2012).
    EXPECT_LT(errIad, 0.5 * errKd);
}

INSTANTIATE_TEST_SUITE_P(Jitter, GradientSweep, ::testing::Values(0.0, 0.1, 0.3));

// --- div/curl -----------------------------------------------------------------

TEST(DivCurl, RigidRotationHasZeroDivergence)
{
    LatticeFixture f(14);
    Kernel<double> kernel(KernelType::Sinc);
    // rigid rotation about z through the box center
    double w = 5.0;
    for (std::size_t i = 0; i < f.ps.size(); ++i)
    {
        double xc = f.ps.x[i] - 0.5, yc = f.ps.y[i] - 0.5;
        f.ps.vx[i] = w * yc;
        f.ps.vy[i] = -w * xc;
        f.ps.vz[i] = 0;
        f.ps.c[i]  = 35.0;
    }
    computeVolumeElementWeights(f.ps, VolumeElements::Standard);
    computeDensity(f.ps, f.nl, kernel, f.box);
    computeIadCoefficients(f.ps, f.nl, kernel, f.box);
    computeDivCurl(f.ps, f.nl, kernel, f.box, GradientMode::IAD);

    // |curl| = 2w, div = 0 for interior particles; Balsara -> ~0
    std::size_t tested = 0;
    for (std::size_t i = 0; i < f.ps.size(); ++i)
    {
        double margin = 2.5 * f.ps.h[i];
        bool interior = f.ps.x[i] > margin && f.ps.x[i] < 1 - margin &&
                        f.ps.y[i] > margin && f.ps.y[i] < 1 - margin &&
                        f.ps.z[i] > margin && f.ps.z[i] < 1 - margin;
        if (!interior) continue;
        EXPECT_NEAR(f.ps.divv[i], 0.0, 0.3) << "i=" << i;
        EXPECT_NEAR(f.ps.curlv[i], 2 * w, 0.4) << "i=" << i;
        EXPECT_LT(f.ps.balsara[i], 0.1) << "i=" << i;
        ++tested;
        if (tested > 100) break;
    }
    EXPECT_GT(tested, 20u);
}

TEST(DivCurl, UniformExpansionHasZeroCurl)
{
    LatticeFixture f(14);
    Kernel<double> kernel(KernelType::Sinc);
    // Hubble flow v = H (r - center): div v = 3H, curl = 0
    double H = 2.0;
    for (std::size_t i = 0; i < f.ps.size(); ++i)
    {
        f.ps.vx[i] = H * (f.ps.x[i] - 0.5);
        f.ps.vy[i] = H * (f.ps.y[i] - 0.5);
        f.ps.vz[i] = H * (f.ps.z[i] - 0.5);
        f.ps.c[i]  = 35.0;
    }
    computeVolumeElementWeights(f.ps, VolumeElements::Standard);
    computeDensity(f.ps, f.nl, kernel, f.box);
    computeIadCoefficients(f.ps, f.nl, kernel, f.box);
    computeDivCurl(f.ps, f.nl, kernel, f.box, GradientMode::IAD);

    std::size_t tested = 0;
    for (std::size_t i = 0; i < f.ps.size(); ++i)
    {
        double margin = 2.5 * f.ps.h[i];
        bool interior = f.ps.x[i] > margin && f.ps.x[i] < 1 - margin &&
                        f.ps.y[i] > margin && f.ps.y[i] < 1 - margin &&
                        f.ps.z[i] > margin && f.ps.z[i] < 1 - margin;
        if (!interior) continue;
        EXPECT_NEAR(f.ps.divv[i], 3 * H, 0.3) << "i=" << i;
        EXPECT_NEAR(f.ps.curlv[i], 0.0, 0.3) << "i=" << i;
        EXPECT_GT(f.ps.balsara[i], 0.9) << "i=" << i;
        ++tested;
        if (tested > 100) break;
    }
    EXPECT_GT(tested, 20u);
}

// --- momentum & energy conservation -------------------------------------------

class ConservationSweep : public ::testing::TestWithParam<GradientMode>
{
};

TEST_P(ConservationSweep, PairwiseForcesConserveMomentum)
{
    LatticeFixture f(12, 0.25);
    Kernel<double> kernel(KernelType::Sinc);
    Xoshiro256pp rng(77);
    for (std::size_t i = 0; i < f.ps.size(); ++i)
    {
        f.ps.vx[i] = rng.normal() * 0.1;
        f.ps.vy[i] = rng.normal() * 0.1;
        f.ps.vz[i] = rng.normal() * 0.1;
        f.ps.u[i]  = 1.0;
    }
    computeVolumeElementWeights(f.ps, VolumeElements::Standard);
    computeDensity(f.ps, f.nl, kernel, f.box);
    // ideal gas EOS inline
    for (std::size_t i = 0; i < f.ps.size(); ++i)
    {
        f.ps.p[i] = (5.0 / 3.0 - 1.0) * f.ps.rho[i] * f.ps.u[i];
        f.ps.c[i] = std::sqrt(5.0 / 3.0 * f.ps.p[i] / f.ps.rho[i]);
    }
    if (GetParam() == GradientMode::IAD)
    {
        computeIadCoefficients(f.ps, f.nl, kernel, f.box);
    }
    computeDivCurl(f.ps, f.nl, kernel, f.box, GetParam());
    // phase H sums each row followed by its kept bucket
    MissingPairs<double> pairs;
    findMissingPairs(f.nl, f.ps.x, f.ps.y, f.ps.z, f.ps.h, f.box, pairs);
    ASSERT_GT(pairs.keptEntries, 0u);
    MomentumRecordBuffer<double> records;
    computeMomentumEnergy(f.ps, f.nl, kernel, f.box, GetParam(), {}, {}, {}, {}, &records,
                          &pairs);

    // total force and total energy rate must vanish (pairwise antisymmetry)
    double fx = 0, fy = 0, fz = 0, de = 0, fscale = 0;
    for (std::size_t i = 0; i < f.ps.size(); ++i)
    {
        fx += f.ps.m[i] * f.ps.ax[i];
        fy += f.ps.m[i] * f.ps.ay[i];
        fz += f.ps.m[i] * f.ps.az[i];
        de += f.ps.m[i] * (f.ps.du[i] + f.ps.vx[i] * f.ps.ax[i] +
                           f.ps.vy[i] * f.ps.ay[i] + f.ps.vz[i] * f.ps.az[i]);
        fscale += f.ps.m[i] * std::abs(f.ps.ax[i]);
    }
    double tol = 1e-11 * std::max(1.0, fscale);
    EXPECT_NEAR(fx, 0.0, tol) << gradientModeName(GetParam());
    EXPECT_NEAR(fy, 0.0, tol);
    EXPECT_NEAR(fz, 0.0, tol);
    EXPECT_NEAR(de, 0.0, tol);
}

INSTANTIATE_TEST_SUITE_P(Gradients, ConservationSweep,
                         ::testing::Values(GradientMode::KernelDerivative,
                                           GradientMode::IAD));

TEST(MomentumEnergy, UniformPressureNoAcceleration)
{
    LatticeFixture f(12);
    Kernel<double> kernel(KernelType::Sinc);
    for (std::size_t i = 0; i < f.ps.size(); ++i)
    {
        f.ps.u[i] = 1.0;
    }
    computeVolumeElementWeights(f.ps, VolumeElements::Standard);
    computeDensity(f.ps, f.nl, kernel, f.box);
    for (std::size_t i = 0; i < f.ps.size(); ++i)
    {
        f.ps.p[i] = 1.0;
        f.ps.c[i] = 1.0;
    }
    computeDivCurl(f.ps, f.nl, kernel, f.box, GradientMode::KernelDerivative);
    computeMomentumEnergy(f.ps, f.nl, kernel, f.box, GradientMode::KernelDerivative);

    // uniform pressure on a symmetric lattice: accelerations ~ 0
    for (std::size_t i = 0; i < f.ps.size(); i += 53)
    {
        EXPECT_NEAR(f.ps.ax[i], 0.0, 1e-8);
        EXPECT_NEAR(f.ps.ay[i], 0.0, 1e-8);
        EXPECT_NEAR(f.ps.az[i], 0.0, 1e-8);
    }
}

TEST(MomentumEnergy, PressureGradientPushesOutward)
{
    // high pressure in the center: central particles accelerate away
    LatticeFixture f(12);
    Kernel<double> kernel(KernelType::Sinc);
    computeVolumeElementWeights(f.ps, VolumeElements::Standard);
    computeDensity(f.ps, f.nl, kernel, f.box);
    for (std::size_t i = 0; i < f.ps.size(); ++i)
    {
        double r2 = (f.ps.x[i] - 0.5) * (f.ps.x[i] - 0.5) +
                    (f.ps.y[i] - 0.5) * (f.ps.y[i] - 0.5) +
                    (f.ps.z[i] - 0.5) * (f.ps.z[i] - 0.5);
        f.ps.p[i] = std::exp(-r2 / 0.02);
        f.ps.c[i] = 1.0;
    }
    computeDivCurl(f.ps, f.nl, kernel, f.box, GradientMode::KernelDerivative);
    computeMomentumEnergy(f.ps, f.nl, kernel, f.box, GradientMode::KernelDerivative);

    std::size_t outward = 0, total = 0;
    for (std::size_t i = 0; i < f.ps.size(); ++i)
    {
        Vec3<double> r{f.ps.x[i] - 0.5, f.ps.y[i] - 0.5, f.ps.z[i] - 0.5};
        double rn = norm(r);
        if (rn < 0.1 || rn > 0.3) continue; // in the gradient region
        Vec3<double> a{f.ps.ax[i], f.ps.ay[i], f.ps.az[i]};
        if (dot(a, r) > 0) ++outward;
        ++total;
    }
    ASSERT_GT(total, 50u);
    EXPECT_GT(double(outward) / double(total), 0.95);
}

TEST(MomentumEnergy, ArtificialViscosityHeatsOnCompression)
{
    // head-on compression: AV converts kinetic energy to heat (du > 0)
    LatticeFixture f(12);
    Kernel<double> kernel(KernelType::Sinc);
    for (std::size_t i = 0; i < f.ps.size(); ++i)
    {
        // converging flow toward the x = 0.5 plane
        f.ps.vx[i] = f.ps.x[i] < 0.5 ? 1.0 : -1.0;
        f.ps.u[i]  = 0.01;
    }
    computeVolumeElementWeights(f.ps, VolumeElements::Standard);
    computeDensity(f.ps, f.nl, kernel, f.box);
    for (std::size_t i = 0; i < f.ps.size(); ++i)
    {
        f.ps.p[i] = (5.0 / 3.0 - 1.0) * f.ps.rho[i] * f.ps.u[i];
        f.ps.c[i] = std::sqrt(5.0 / 3.0 * f.ps.p[i] / f.ps.rho[i]);
    }
    computeDivCurl(f.ps, f.nl, kernel, f.box, GradientMode::KernelDerivative);
    computeMomentumEnergy(f.ps, f.nl, kernel, f.box, GradientMode::KernelDerivative);

    // particles at the collision plane must be heating
    double duMax = 0;
    for (std::size_t i = 0; i < f.ps.size(); ++i)
    {
        if (std::abs(f.ps.x[i] - 0.5) < 0.06) duMax = std::max(duMax, f.ps.du[i]);
    }
    EXPECT_GT(duMax, 0.0);
}

TEST(MomentumEnergy, ActiveSubsetOnlyTouchesActive)
{
    LatticeFixture f(10);
    Kernel<double> kernel(KernelType::Sinc);
    computeVolumeElementWeights(f.ps, VolumeElements::Standard);
    computeDensity(f.ps, f.nl, kernel, f.box);
    for (std::size_t i = 0; i < f.ps.size(); ++i)
    {
        f.ps.p[i] = 1.0 + f.ps.x[i];
        f.ps.c[i] = 1.0;
    }
    computeDivCurl(f.ps, f.nl, kernel, f.box, GradientMode::KernelDerivative);

    // compute on a subset; others keep their previous (zero) acceleration
    std::vector<std::size_t> active{0, 5, 10};
    computeMomentumEnergy(f.ps, f.nl, kernel, f.box, GradientMode::KernelDerivative, {},
                          active);
    std::size_t nonzero = 0;
    for (std::size_t i = 0; i < f.ps.size(); ++i)
    {
        bool isActive = i == 0 || i == 5 || i == 10;
        bool touched  = f.ps.ax[i] != 0.0 || f.ps.ay[i] != 0.0 || f.ps.az[i] != 0.0 ||
                       f.ps.du[i] != 0.0;
        if (!isActive)
        {
            EXPECT_FALSE(touched) << i;
        }
        if (touched) ++nonzero;
    }
    EXPECT_LE(nonzero, 3u);
}

TEST(NeighborSymmetrize, MakesListsSymmetric)
{
    LatticeFixture f(10, 0.3);
    // asymmetric h: double a few particles' radii and re-search
    for (std::size_t i = 0; i < 20; ++i)
        f.ps.h[i] *= 1.3;
    oracle::findNeighborsGlobal(f.tree, f.ps.x, f.ps.y, f.ps.z, f.ps.h, f.nl);
    MissingPairs<double> pairs;
    findMissingPairs(f.nl, f.ps.x, f.ps.y, f.ps.z, f.ps.h, f.box, pairs);
    // the rows phase H sums: each row followed by its kept bucket
    auto merged = oracle::mergedRows(f.nl, pairs);

    for (std::size_t i = 0; i < f.ps.size(); ++i)
    {
        for (auto j : merged.neighbors(i))
        {
            auto njs = merged.neighbors(j);
            bool found = false;
            for (auto k : njs)
            {
                if (k == std::uint32_t(i)) found = true;
            }
            EXPECT_TRUE(found) << i << " -> " << j;
        }
    }
}
