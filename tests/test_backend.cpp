/// Backend-layer tests (src/backend/): the Scalar backend against the seed
/// loops, and the Simd lane kernels against Scalar.
///
/// The contract under test (docs/ARCHITECTURE.md "Backend layer"):
///  - Scalar, the 1-lane instance of each phase kernel, is BITWISE the
///    seed solver's per-pair loop (the oracle in backend_oracle.hpp) for
///    every kernel type, gradient mode, box, active subset and edge case;
///  - Simd results match Scalar to relative tolerance per phase — tight
///    (~1e-12) for the closed-form kernels whose lanes replicate the exact
///    scalar FP expressions, looser for Sinc whose lanes read the lookup
///    table instead of calling pow/sin per pair;
///  - Simd results are themselves BITWISE invariant across worker-pool
///    sizes and all six scheduling strategies (fixed-order lane reduction);
///  - remainder tiles (count % laneWidth != 0) and empty neighbor lists
///    are exact edge cases, not approximations.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "backend/kernel_backend.hpp"
#include "backend/lane_kernel.hpp"
#include "backend/simd_tile.hpp"
#include "domain/box.hpp"
#include "ic/lattice.hpp"
#include "math/rng.hpp"
#include "sph/boundaries.hpp"
#include "sph/density.hpp"
#include "sph/divcurl.hpp"
#include "sph/eos.hpp"
#include "sph/iad.hpp"
#include "sph/kernels.hpp"
#include "sph/momentum_energy.hpp"
#include "sph/particles.hpp"
#include "sph/smoothing_length.hpp"
#include "tree/neighbors.hpp"
#include "tree/octree.hpp"

#include "backend_oracle.hpp"
#include "neighbor_oracle.hpp"

using namespace sphexa;

namespace {

struct PoolSizeGuard
{
    std::size_t saved;
    explicit PoolSizeGuard(std::size_t n) : saved(WorkerPool::instance().size())
    {
        WorkerPool::instance().resize(n);
    }
    ~PoolSizeGuard() { WorkerPool::instance().resize(saved); }
};

constexpr std::array<KernelType, 6> kAllKernels{
    KernelType::Sinc,       KernelType::CubicSpline, KernelType::WendlandC2,
    KernelType::WendlandC4, KernelType::WendlandC6,  KernelType::DebrunSpiky};

constexpr std::array<SchedulingStrategy, 6> kAllStrategies{
    SchedulingStrategy::Static,    SchedulingStrategy::SelfScheduling,
    SchedulingStrategy::Guided,    SchedulingStrategy::Trapezoid,
    SchedulingStrategy::Factoring, SchedulingStrategy::AdaptiveWeightedFactoring};

/// Per-kernel parity tolerance: the closed-form lanes replicate the scalar
/// per-pair expressions bitwise, so only the neighbor-sum association
/// differs; the Sinc lanes read the LookupTable (~1e-8 per sample) instead
/// of calling pow/sin.
double parityTol(KernelType k) { return k == KernelType::Sinc ? 2e-6 : 1e-11; }

/// A jittered periodic lattice with a smooth shear + rotation velocity
/// field, all upstream fields (rho/vol/gradh, p/c, IAD coefficients,
/// balsara) filled by the Scalar reference path.
struct BackendFixture
{
    ParticleSetD ps;
    Box<double> box;
    Octree<double> tree;
    NeighborList<double> nl{0, 384};
    Kernel<double> kernel;

    explicit BackendFixture(KernelType type, std::size_t side = 10, double jitter = 0.2,
                            bool periodic = true)
        : box({0, 0, 0}, {1, 1, 1}, periodic, periodic, periodic), kernel(type)
    {
        cubicLattice(ps, side, side, side, box);
        double dx = 1.0 / double(side);
        if (jitter > 0) jitterPositions(ps, box, dx, jitter, 42);
        for (std::size_t i = 0; i < ps.size(); ++i)
        {
            ps.m[i] = 1.0 / double(ps.size());
            ps.h[i] = initialSmoothingLength(ps.size(), box, 60u);
            ps.u[i] = 1.0;
            // smooth, non-trivial velocity field: shear + rigid rotation
            ps.vx[i] = 0.3 * ps.y[i] - 0.1 * ps.z[i];
            ps.vy[i] = -0.2 * ps.x[i] + 0.05 * std::sin(6.28 * ps.z[i]);
            ps.vz[i] = 0.15 * ps.x[i] + 0.1 * ps.y[i];
        }
        tree.build(ps.x, ps.y, ps.z, box);
        nl.reset(ps.size(), 384);
        SmoothingLengthParams<double> hp;
        hp.targetNeighbors = 60;
        hp.tolerance       = 10;
        ClusterWorkspace<double> clusters;
        updateSmoothingLengths(ps, tree, nl, clusters, hp);
        // pair-symmetric rows for phase H: each row followed by its bucket
        MissingPairs<double> pairs;
        findMissingPairs(nl, ps.x, ps.y, ps.z, ps.h, box, pairs);
        nl = oracle::mergedRows(nl, pairs);
        fillUpstream(ps);
    }

    /// Scalar prerequisites for the phase under test: density, EOS, IAD
    /// coefficients and the div/curl (balsara) pass.
    void fillUpstream(ParticleSetD& target) const
    {
        computeVolumeElementWeights(target, VolumeElements::Standard);
        computeDensity(target, nl, kernel, box);
        Eos<double> eos{IdealGasEos<double>(5.0 / 3.0)};
        for (std::size_t i = 0; i < target.size(); ++i)
        {
            auto res    = eos(target.rho[i], target.u[i]);
            target.p[i] = res.pressure;
            target.c[i] = res.soundSpeed;
        }
        computeIadCoefficients(target, nl, kernel, box);
        computeDivCurl(target, nl, kernel, box, GradientMode::IAD);
    }
};

ComputeBackend<double> simd() { return {KernelBackend::Simd, nullptr}; }

/// |a-b| <= tol * scale, with scale the max magnitude of the reference
/// field (mixed abs/rel: fields like ax hover near zero on near-uniform
/// sets, where a pure relative gate is meaningless).
void expectFieldNear(const std::vector<double>& ref, const std::vector<double>& got,
                     double tol, const char* what)
{
    ASSERT_EQ(ref.size(), got.size());
    double scale = 1e-30;
    for (double v : ref)
        scale = std::max(scale, std::abs(v));
    for (std::size_t i = 0; i < ref.size(); ++i)
    {
        EXPECT_NEAR(ref[i], got[i], tol * scale) << what << " i=" << i;
    }
}

void expectFieldBitwise(const std::vector<double>& ref, const std::vector<double>& got,
                        const char* what)
{
    ASSERT_EQ(ref.size(), got.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
    {
        // exact representation match, not tolerance
        EXPECT_EQ(ref[i], got[i]) << what << " i=" << i;
    }
}

/// Every field phases E-H write.
const std::pair<const char*, std::vector<double> ParticleSetD::*> kPhaseOutputs[] = {
    {"vol", &ParticleSetD::vol},     {"rho", &ParticleSetD::rho},
    {"gradh", &ParticleSetD::gradh}, {"c11", &ParticleSetD::c11},
    {"c12", &ParticleSetD::c12},     {"c13", &ParticleSetD::c13},
    {"c22", &ParticleSetD::c22},     {"c23", &ParticleSetD::c23},
    {"c33", &ParticleSetD::c33},     {"divv", &ParticleSetD::divv},
    {"curlv", &ParticleSetD::curlv}, {"balsara", &ParticleSetD::balsara},
    {"ax", &ParticleSetD::ax},       {"ay", &ParticleSetD::ay},
    {"az", &ParticleSetD::az},       {"du", &ParticleSetD::du},
    {"vsig", &ParticleSetD::vsig}};

/// Phases E-H from \p start through the Scalar shells and through the seed
/// loops (backend_oracle.hpp): every field they write must match bitwise,
/// maxVsignal included.
void expectScalarMatchesOracle(const ParticleSetD& start, const NeighborList<double>& nl,
                               const Kernel<double>& kernel, const Box<double>& box,
                               GradientMode mode, std::span<const std::size_t> active = {})
{
    auto scalar = start;
    auto seed   = start;
    computeDensity(scalar, nl, kernel, box, active);
    computeIadCoefficients(scalar, nl, kernel, box, active);
    computeDivCurl(scalar, nl, kernel, box, mode, active);
    auto stats = computeMomentumEnergy(scalar, nl, kernel, box, mode, {}, active);
    EXPECT_EQ(oracle::computePhases(seed, nl, kernel, box, mode, active), stats.maxVsignal);
    for (const auto& [name, field] : kPhaseOutputs)
        expectFieldBitwise(seed.*field, scalar.*field, name);
}

/// gtest identifier for a kernel type: display names like "M4 spline" are
/// not valid identifiers; keep alphanumerics only.
std::string kernelId(KernelType k)
{
    std::string name(kernelName(k));
    std::erase_if(name, [](unsigned char c) { return std::isalnum(c) == 0; });
    return name;
}

} // namespace

// --- LaneKernel vs Kernel, single-lane -------------------------------------

TEST(LaneKernel, MatchesKernelAcrossSupport)
{
    for (KernelType type : kAllKernels)
    {
        Kernel<double> kernel(type);
        LaneKernel<double> lanes(kernel);
        double tol = type == KernelType::Sinc ? 2e-7 : 0.0;
        for (int k = 0; k <= 2200; ++k)
        {
            double q = 2.2 * double(k) / 2200.0;
            double f, df;
            lanes.fdf(q, f, df);
            if (tol == 0.0)
            {
                // closed forms replicate fq/dfq bitwise
                EXPECT_EQ(f, kernel.fq(q)) << kernelName(type) << " q=" << q;
                EXPECT_EQ(df, kernel.dfq(q)) << kernelName(type) << " q=" << q;
            }
            else
            {
                EXPECT_NEAR(f, kernel.fq(q), tol) << "q=" << q;
                EXPECT_NEAR(df, kernel.dfq(q), tol * 10) << "q=" << q;
            }
        }
        // the self-contribution sample must be exact for every kernel: the
        // density self term uses q=0 and is gated bitwise elsewhere
        double f0, df0;
        lanes.fdf(0.0, f0, df0);
        EXPECT_EQ(f0, kernel.fq(0.0)) << kernelName(type);
    }
}

TEST(LaneKernel, NaNLaneStaysNaNAndLeavesOtherLanesUnchanged)
{
    // a NaN q (a bad h or position upstream) must surface in its own lane
    // of f, df and fdf — as Kernel::fq/dfq return NaN on the Scalar path —
    // and must not disturb the tile's other lanes
    constexpr std::size_t W = LaneKernel<double>::width;
    constexpr std::size_t bad = W / 2;
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (KernelType type : kAllKernels)
    {
        SCOPED_TRACE(kernelName(type));
        Kernel<double> kernel(type);
        LaneKernel<double> lanes(kernel);
        EXPECT_TRUE(std::isnan(kernel.fq(nan)));
        EXPECT_TRUE(std::isnan(kernel.dfq(nan)));

        double q[W], qRef[W];
        for (std::size_t l = 0; l < W; ++l)
            q[l] = qRef[l] = 2.4 * double(l) / double(W - 1); // the last lanes leave the support
        q[bad] = nan;
        double f[W], df[W], ff[W], fd[W], fRef[W], dfRef[W];
        lanes.f(q, f);
        lanes.df(q, df);
        lanes.fdf(q, ff, fd);
        lanes.fdf(qRef, fRef, dfRef);
        for (std::size_t l = 0; l < W; ++l)
        {
            if (l == bad)
            {
                EXPECT_TRUE(std::isnan(f[l]));
                EXPECT_TRUE(std::isnan(df[l]));
                EXPECT_TRUE(std::isnan(ff[l]));
                EXPECT_TRUE(std::isnan(fd[l]));
                continue;
            }
            EXPECT_EQ(f[l], fRef[l]) << "lane " << l;
            EXPECT_EQ(df[l], dfRef[l]) << "lane " << l;
            EXPECT_EQ(ff[l], fRef[l]) << "lane " << l;
            EXPECT_EQ(fd[l], dfRef[l]) << "lane " << l;
        }
    }
}

TEST(LaneKernel, SincTableOfFewerThanTwoSamplesThrows)
{
    // sizing the Sinc table reaches LookupTable's check: a 1-sample table
    // would read past its end, a 0-sample one an empty vector
    Kernel<double> sinc(KernelType::Sinc);
    for (std::size_t n : {0u, 1u})
        EXPECT_THROW(LaneKernel<double>(sinc, n), std::invalid_argument) << n;
    EXPECT_NO_THROW(LaneKernel<double>(sinc, 2));
}

// --- Scalar backend vs the seed loops --------------------------------------

/// (kernel type, periodic box); each instance sweeps both gradient modes
/// over all particles and over an active subset.
class ScalarOracle : public ::testing::TestWithParam<std::tuple<KernelType, bool>>
{
};

TEST_P(ScalarOracle, BitwiseEqualToSeedLoops)
{
    auto [type, periodic] = GetParam();
    BackendFixture f(type, 8, 0.2, periodic);
    // one coincident pair (r = 0): density and IAD keep it, the
    // kernel-derivative div/curl and both momentum modes skip it
    std::size_t b = f.nl.row(0).data[0];
    f.ps.x[b]     = f.ps.x[0];
    f.ps.y[b]     = f.ps.y[0];
    f.ps.z[b]     = f.ps.z[0];
    std::vector<std::size_t> subset;
    for (std::size_t i = 1; i < f.ps.size(); i += 3)
        subset.push_back(i);
    for (GradientMode mode : {GradientMode::IAD, GradientMode::KernelDerivative})
    {
        SCOPED_TRACE(gradientModeName(mode));
        expectScalarMatchesOracle(f.ps, f.nl, f.kernel, f.box, mode);
        SCOPED_TRACE("active subset");
        expectScalarMatchesOracle(f.ps, f.nl, f.kernel, f.box, mode, subset);
    }
}

INSTANTIATE_TEST_SUITE_P(KernelsBoxes, ScalarOracle,
                         ::testing::Combine(::testing::ValuesIn(kAllKernels),
                                            ::testing::Bool()),
                         [](const auto& info) {
                             return kernelId(std::get<0>(info.param)) +
                                    (std::get<1>(info.param) ? "Periodic" : "Open");
                         });

// --- per-phase Simd vs Scalar parity ---------------------------------------

class BackendParity : public ::testing::TestWithParam<KernelType>
{
};

TEST_P(BackendParity, DensityMatchesScalar)
{
    BackendFixture f(GetParam());
    auto scalar = f.ps;
    auto vec    = f.ps;
    computeDensity(scalar, f.nl, f.kernel, f.box);
    computeDensity(vec, f.nl, f.kernel, f.box, {}, {}, simd());
    double tol = parityTol(GetParam());
    expectFieldNear(scalar.rho, vec.rho, tol, "rho");
    expectFieldNear(scalar.vol, vec.vol, tol, "vol");
    expectFieldNear(scalar.gradh, vec.gradh, tol, "gradh");
}

TEST_P(BackendParity, IadCoefficientsMatchScalar)
{
    BackendFixture f(GetParam());
    auto scalar = f.ps;
    auto vec    = f.ps;
    computeIadCoefficients(scalar, f.nl, f.kernel, f.box);
    computeIadCoefficients(vec, f.nl, f.kernel, f.box, {}, {}, simd());
    double tol = parityTol(GetParam());
    expectFieldNear(scalar.c11, vec.c11, tol, "c11");
    expectFieldNear(scalar.c12, vec.c12, tol, "c12");
    expectFieldNear(scalar.c13, vec.c13, tol, "c13");
    expectFieldNear(scalar.c22, vec.c22, tol, "c22");
    expectFieldNear(scalar.c23, vec.c23, tol, "c23");
    expectFieldNear(scalar.c33, vec.c33, tol, "c33");
}

TEST_P(BackendParity, DivCurlMatchesScalarBothGradientModes)
{
    for (GradientMode mode : {GradientMode::IAD, GradientMode::KernelDerivative})
    {
        BackendFixture f(GetParam());
        auto scalar = f.ps;
        auto vec    = f.ps;
        computeDivCurl(scalar, f.nl, f.kernel, f.box, mode);
        computeDivCurl(vec, f.nl, f.kernel, f.box, mode, {}, {}, simd());
        double tol = parityTol(GetParam());
        expectFieldNear(scalar.divv, vec.divv, tol, "divv");
        expectFieldNear(scalar.curlv, vec.curlv, tol, "curlv");
        expectFieldNear(scalar.balsara, vec.balsara, 10 * tol, "balsara");
    }
}

TEST_P(BackendParity, MomentumEnergyMatchesScalarBothGradientModes)
{
    for (GradientMode mode : {GradientMode::IAD, GradientMode::KernelDerivative})
    {
        BackendFixture f(GetParam());
        auto scalar = f.ps;
        auto vec    = f.ps;
        auto sStats = computeMomentumEnergy(scalar, f.nl, f.kernel, f.box, mode);
        auto vStats = computeMomentumEnergy(vec, f.nl, f.kernel, f.box, mode, {}, {}, {},
                                            simd());
        double tol = parityTol(GetParam());
        expectFieldNear(scalar.ax, vec.ax, tol, "ax");
        expectFieldNear(scalar.ay, vec.ay, tol, "ay");
        expectFieldNear(scalar.az, vec.az, tol, "az");
        expectFieldNear(scalar.du, vec.du, tol, "du");
        expectFieldNear(scalar.vsig, vec.vsig, tol, "vsig");
        EXPECT_NEAR(sStats.maxVsignal, vStats.maxVsignal,
                    tol * std::abs(sStats.maxVsignal));
    }
}

INSTANTIATE_TEST_SUITE_P(Kernels, BackendParity, ::testing::ValuesIn(kAllKernels),
                         [](const auto& info) { return kernelId(info.param); });

// --- parity on an open (non-periodic) box ----------------------------------

TEST(BackendParityOpenBox, AllPhasesMatchScalar)
{
    // exercises the infinite-half-width wrap path (selects never fire)
    BackendFixture f(KernelType::WendlandC2, 10, 0.2, /*periodic=*/false);
    auto scalar = f.ps;
    auto vec    = f.ps;
    computeDensity(scalar, f.nl, f.kernel, f.box);
    computeDensity(vec, f.nl, f.kernel, f.box, {}, {}, simd());
    computeIadCoefficients(scalar, f.nl, f.kernel, f.box);
    computeIadCoefficients(vec, f.nl, f.kernel, f.box, {}, {}, simd());
    computeDivCurl(scalar, f.nl, f.kernel, f.box, GradientMode::IAD);
    computeDivCurl(vec, f.nl, f.kernel, f.box, GradientMode::IAD, {}, {}, simd());
    computeMomentumEnergy(scalar, f.nl, f.kernel, f.box, GradientMode::IAD);
    computeMomentumEnergy(vec, f.nl, f.kernel, f.box, GradientMode::IAD, {}, {}, {},
                          simd());
    double tol = parityTol(KernelType::WendlandC2);
    expectFieldNear(scalar.rho, vec.rho, tol, "rho");
    expectFieldNear(scalar.c11, vec.c11, tol, "c11");
    expectFieldNear(scalar.divv, vec.divv, tol, "divv");
    expectFieldNear(scalar.ax, vec.ax, tol, "ax");
    expectFieldNear(scalar.du, vec.du, tol, "du");
}

// --- Simd bitwise invariance across pools and strategies -------------------

TEST(BackendInvariance, SimdBitwiseAcrossPoolsAndStrategies)
{
    BackendFixture f(KernelType::Sinc, 8);

    // reference: pool of 1, Static
    ParticleSetD ref;
    {
        PoolSizeGuard guard(1);
        ref = f.ps;
        computeDensity(ref, f.nl, f.kernel, f.box, {}, {}, simd());
        computeIadCoefficients(ref, f.nl, f.kernel, f.box, {}, {}, simd());
        computeDivCurl(ref, f.nl, f.kernel, f.box, GradientMode::IAD, {}, {}, simd());
        computeMomentumEnergy(ref, f.nl, f.kernel, f.box, GradientMode::IAD, {}, {}, {},
                              simd());
    }

    for (std::size_t pool : {1u, 2u, 4u})
    {
        PoolSizeGuard guard(pool);
        for (SchedulingStrategy strat : kAllStrategies)
        {
            LoopPolicy pol;
            pol.strategy = strat;
            std::vector<double> awf; // AWF needs a weight vector to adapt
            if (strat == SchedulingStrategy::AdaptiveWeightedFactoring)
                pol.awfWeights = &awf;

            auto ps = f.ps;
            computeDensity(ps, f.nl, f.kernel, f.box, {}, pol, simd());
            computeIadCoefficients(ps, f.nl, f.kernel, f.box, {}, pol, simd());
            computeDivCurl(ps, f.nl, f.kernel, f.box, GradientMode::IAD, {}, pol, simd());
            computeMomentumEnergy(ps, f.nl, f.kernel, f.box, GradientMode::IAD, {}, {},
                                  pol, simd());

            expectFieldBitwise(ref.rho, ps.rho, "rho");
            expectFieldBitwise(ref.gradh, ps.gradh, "gradh");
            expectFieldBitwise(ref.c11, ps.c11, "c11");
            expectFieldBitwise(ref.c33, ps.c33, "c33");
            expectFieldBitwise(ref.divv, ps.divv, "divv");
            expectFieldBitwise(ref.balsara, ps.balsara, "balsara");
            expectFieldBitwise(ref.ax, ps.ax, "ax");
            expectFieldBitwise(ref.du, ps.du, "du");
            expectFieldBitwise(ref.vsig, ps.vsig, "vsig");
        }
    }
}

// --- phase H's persistent record buffer ------------------------------------

namespace {

/// The rows of the first \p n particles of \p nl without their entries
/// >= n: the lists of a set truncated to n particles (removeGhosts).
NeighborList<double> truncatedLists(const NeighborList<double>& nl, std::size_t n)
{
    using Index = NeighborList<double>::Index;
    NeighborList<double> out(n, 384);
    for (std::size_t i = 0; i < n; ++i)
    {
        auto row = nl.row(i);
        std::vector<Index> kept;
        for (std::size_t k = 0; k < row.count; ++k)
            if (row.data[k] < n) kept.push_back(row.data[k]);
        out.set(i, kept);
    }
    return out;
}

} // namespace

TEST(MomentumRecords, AttachedBufferNeverServesStaleRecords)
{
    // one buffer attached across calls, as a driver holds it, must give
    // every call the bits of a call that packs into a fresh buffer: the
    // records are rewritten for every particle on every call
    BackendFixture f(KernelType::WendlandC2, 8);
    BackendFixture big(KernelType::WendlandC2, 9);
    MomentumRecordBuffer<double> records;
    auto expectFreshBits = [&](const ParticleSetD& start, const NeighborList<double>& nl,
                               std::span<const std::size_t> active, const char* what) {
        SCOPED_TRACE(what);
        for (const ComputeBackend<double>& be : {ComputeBackend<double>{}, simd()})
        {
            for (GradientMode mode : {GradientMode::IAD, GradientMode::KernelDerivative})
            {
                auto fresh = start;
                auto held  = start;
                auto fs = computeMomentumEnergy(fresh, nl, f.kernel, f.box, mode, {}, active,
                                                {}, be);
                auto hs = computeMomentumEnergy(held, nl, f.kernel, f.box, mode, {}, active,
                                                {}, be, &records);
                EXPECT_EQ(fs.maxVsignal, hs.maxVsignal);
                expectFieldBitwise(fresh.ax, held.ax, "ax");
                expectFieldBitwise(fresh.ay, held.ay, "ay");
                expectFieldBitwise(fresh.az, held.az, "az");
                expectFieldBitwise(fresh.du, held.du, "du");
                expectFieldBitwise(fresh.vsig, held.vsig, "vsig");
            }
        }
    };

    auto ps = f.ps;
    expectFreshBits(ps, f.nl, {}, "first call");
    const std::size_t n = ps.size();
    EXPECT_EQ(records.capacity(), n);

    // one particle's pressure and another's IAD matrix change between calls
    ps.p[3] *= 1.5;
    ps.c11[f.nl.row(3).data[1]] *= 0.5;
    expectFreshBits(ps, f.nl, {}, "after a p and a c11 change");

    // the set shrinks as ghostRemove truncates it, then grows past the
    // buffer's size; the buffer only grows
    auto shrunk = ps;
    removeGhosts(shrunk, n / 4);
    shrunk.p[0] *= 2.0;
    expectFreshBits(shrunk, truncatedLists(f.nl, shrunk.size()), {}, "after shrinking");
    EXPECT_EQ(records.capacity(), n);
    ASSERT_GT(big.ps.size(), n);
    expectFreshBits(big.ps, big.nl, {}, "after growing");
    EXPECT_EQ(records.capacity(), big.ps.size());

    // an active-subset call still repacks every particle: an inactive
    // neighbor of an active particle changes its pressure and velocity
    std::vector<std::size_t> active;
    for (std::size_t i = 0; i < big.ps.size(); i += 4)
        active.push_back(i);
    auto sub = big.ps;
    auto row0            = big.nl.row(0);
    std::size_t inactive = row0.data[0];
    for (std::size_t k = 1; k < row0.count && inactive % 4 == 0; ++k)
        inactive = row0.data[k];
    ASSERT_NE(inactive % 4, 0u);
    sub.p[inactive] *= 3.0;
    sub.vx[inactive] += 0.25;
    expectFreshBits(sub, big.nl, active, "active subset");
}

// --- remainder tiles and empty neighborhoods -------------------------------

TEST(BackendEdgeCases, RemainderTilesAndEmptyLists)
{
    // particle i carries exactly i neighbors: spans empty (0), partial
    // tiles, exact multiples of the lane width (8, 16) and remainders
    const std::size_t n = 2 * backend::kLaneWidth + 4; // 20 with width 8
    BackendFixture f(KernelType::CubicSpline, 6, 0.15);
    ASSERT_GE(f.ps.size(), n);

    using Index = NeighborList<double>::Index;
    NeighborList<double> nl(f.ps.size(), 64);
    for (std::size_t i = 0; i < f.ps.size(); ++i)
    {
        std::vector<Index> nbs;
        std::size_t want = i < n ? i : (i % n);
        for (std::size_t j = 0; nbs.size() < want; ++j)
        {
            if (j == i) continue;
            nbs.push_back(Index(j));
        }
        nl.set(i, nbs);
    }

    auto scalar = f.ps;
    auto vec    = f.ps;
    computeDensity(scalar, nl, f.kernel, f.box);
    computeDensity(vec, nl, f.kernel, f.box, {}, {}, simd());
    computeIadCoefficients(scalar, nl, f.kernel, f.box);
    computeIadCoefficients(vec, nl, f.kernel, f.box, {}, {}, simd());
    computeDivCurl(scalar, nl, f.kernel, f.box, GradientMode::IAD);
    computeDivCurl(vec, nl, f.kernel, f.box, GradientMode::IAD, {}, {}, simd());
    computeMomentumEnergy(scalar, nl, f.kernel, f.box, GradientMode::IAD);
    computeMomentumEnergy(vec, nl, f.kernel, f.box, GradientMode::IAD, {}, {}, {},
                          simd());

    double tol = parityTol(KernelType::CubicSpline);
    expectFieldNear(scalar.rho, vec.rho, tol, "rho");
    expectFieldNear(scalar.gradh, vec.gradh, tol, "gradh");
    expectFieldNear(scalar.c11, vec.c11, tol, "c11");
    expectFieldNear(scalar.divv, vec.divv, tol, "divv");
    expectFieldNear(scalar.ax, vec.ax, tol, "ax");
    expectFieldNear(scalar.du, vec.du, tol, "du");

    // the empty row (particle 0) is exact: self-only density, zero motion
    EXPECT_EQ(scalar.rho[0], vec.rho[0]);
    EXPECT_EQ(vec.divv[0], 0.0);
    EXPECT_EQ(vec.ax[0], 0.0);
    EXPECT_EQ(vec.du[0], 0.0);
    EXPECT_EQ(vec.vsig[0], 0.0);

    // and the Scalar path is the seed loops on every one of these rows
    for (GradientMode mode : {GradientMode::IAD, GradientMode::KernelDerivative})
    {
        SCOPED_TRACE(gradientModeName(mode));
        expectScalarMatchesOracle(f.ps, nl, f.kernel, f.box, mode);
    }
}

