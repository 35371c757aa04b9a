/// Kernel library tests: 3D normalization, compact support, smoothness,
/// derivative consistency and the grad-h identity, swept over all kernel
/// families with parameterized tests.

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "math/quadrature.hpp"
#include "sph/kernels.hpp"

using namespace sphexa;

class KernelSweep : public ::testing::TestWithParam<KernelType>
{
protected:
    Kernel<double> k{GetParam()};
};

TEST_P(KernelSweep, NormalizedIn3D)
{
    // 4 pi int_0^2 W(q) q^2 dq = 1 for h = 1 (independent quadrature).
    auto integrand = [&](double q) { return k.fq(q) * q * q; };
    double integral = 4 * std::numbers::pi * integrate<double>(integrand, 0.0, 2.0, 1e-13);
    EXPECT_NEAR(integral, 1.0, 1e-8) << kernelName(GetParam());
}

TEST_P(KernelSweep, CompactSupport)
{
    EXPECT_DOUBLE_EQ(k.fq(2.0), 0.0);
    EXPECT_DOUBLE_EQ(k.fq(2.5), 0.0);
    EXPECT_DOUBLE_EQ(k.dfq(2.0), 0.0);
    EXPECT_DOUBLE_EQ(k.value(3.0, 1.0), 0.0);
    EXPECT_GT(k.fq(0.0), 0.0);
    EXPECT_GT(k.fq(1.0), 0.0);
}

TEST_P(KernelSweep, MonotonicallyDecreasing)
{
    double prev = k.fq(0.0);
    for (double q = 0.05; q <= 2.0; q += 0.05)
    {
        double cur = k.fq(q);
        EXPECT_LE(cur, prev + 1e-14) << "q=" << q;
        prev = cur;
    }
}

TEST_P(KernelSweep, DerivativeMatchesFiniteDifference)
{
    const double dq = 1e-6;
    for (double q : {0.1, 0.35, 0.73, 1.0, 1.2, 1.7, 1.95})
    {
        double fd = (k.fq(q + dq) - k.fq(q - dq)) / (2 * dq);
        EXPECT_NEAR(k.dfq(q), fd, 1e-5 * std::max(1.0, std::abs(fd))) << "q=" << q;
    }
}

TEST_P(KernelSweep, DerivativeNonPositive)
{
    for (double q = 0.0; q <= 2.0; q += 0.01)
    {
        EXPECT_LE(k.dfq(q), 1e-14) << "q=" << q;
    }
}

TEST_P(KernelSweep, ValueScalesAsHMinus3)
{
    // W(0, h) = sigma f(0) / h^3
    double w1 = k.value(0.0, 1.0);
    double w2 = k.value(0.0, 2.0);
    EXPECT_NEAR(w1 / w2, 8.0, 1e-12);
}

TEST_P(KernelSweep, SelfSimilarity)
{
    // W(r, h) = W(r/h, 1)/h^3 for several (r, h)
    for (double h : {0.5, 1.0, 3.0})
    {
        for (double q : {0.2, 0.9, 1.5})
        {
            EXPECT_NEAR(k.value(q * h, h), k.value(q, 1.0) / (h * h * h), 1e-12);
        }
    }
}

TEST_P(KernelSweep, GradHIdentity)
{
    // dW/dh = -(3 W + q dW/dq)/h at h=1: check against finite difference in h.
    const double dh = 1e-6;
    Kernel<double> kh{GetParam()};
    for (double r : {0.3, 0.8, 1.4})
    {
        double fd = (kh.value(r, 1.0 + dh) - kh.value(r, 1.0 - dh)) / (2 * dh);
        EXPECT_NEAR(kh.dh(r, 1.0), fd, 1e-5 * std::max(1.0, std::abs(fd))) << "r=" << r;
    }
}

INSTANTIATE_TEST_SUITE_P(AllKernels, KernelSweep,
                         ::testing::Values(KernelType::Sinc, KernelType::CubicSpline,
                                           KernelType::WendlandC2, KernelType::WendlandC4,
                                           KernelType::WendlandC6, KernelType::DebrunSpiky),
                         [](const auto& info) {
                             switch (info.param)
                             {
                                 case KernelType::Sinc: return "Sinc";
                                 case KernelType::CubicSpline: return "M4";
                                 case KernelType::WendlandC2: return "WendlandC2";
                                 case KernelType::WendlandC4: return "WendlandC4";
                                 case KernelType::WendlandC6: return "WendlandC6";
                                 case KernelType::DebrunSpiky: return "DebrunSpiky";
                             }
                             return "unknown";
                         });

// --- sinc-family specifics --------------------------------------------------

TEST(SincKernel, NormalizationVariesWithExponent)
{
    // Higher n concentrates the kernel: larger central value.
    Kernel<double> k3(KernelType::Sinc, 3.0);
    Kernel<double> k5(KernelType::Sinc, 5.0);
    Kernel<double> k8(KernelType::Sinc, 8.0);
    EXPECT_LT(k3.fq(0.0), k5.fq(0.0));
    EXPECT_LT(k5.fq(0.0), k8.fq(0.0));
}

TEST(SincKernel, EachExponentNormalized)
{
    for (double n : {3.0, 4.0, 5.0, 6.5, 9.0, 12.0})
    {
        Kernel<double> k(KernelType::Sinc, n);
        auto integrand = [&](double q) { return k.fq(q) * q * q; };
        double integral =
            4 * std::numbers::pi * integrate<double>(integrand, 0.0, 2.0, 1e-13);
        EXPECT_NEAR(integral, 1.0, 1e-8) << "n=" << n;
    }
}

TEST(SincKernel, RejectsInvalidExponent)
{
    EXPECT_THROW((Kernel<double>(KernelType::Sinc, 1.0)), std::invalid_argument);
}

TEST(SincKernel, ApproachesCubicSplineShapeAtN3)
{
    // The n=3 sinc is known to resemble (not equal) the M4 spline: both
    // normalized, same support; their central values are within ~15%.
    Kernel<double> sinc3(KernelType::Sinc, 3.0);
    Kernel<double> m4(KernelType::CubicSpline);
    EXPECT_NEAR(sinc3.fq(0.0), m4.fq(0.0), 0.15 * m4.fq(0.0));
}

// --- Debrun spiky specifics -------------------------------------------------

TEST(DebrunSpiky, GradientNonzeroAtOrigin)
{
    // the defining property of the pressure kernel: f'(0) = -12, not 0, so
    // close particle pairs always feel a repulsive pressure gradient
    Kernel<double> spiky(KernelType::DebrunSpiky);
    EXPECT_NEAR(spiky.dfq(0.0), -12.0 * 15.0 / (64 * std::numbers::pi), 1e-14);
    // contrast: the bell-shaped M4 has a flat top
    EXPECT_DOUBLE_EQ(Kernel<double>(KernelType::CubicSpline).dfq(0.0), 0.0);
}

TEST(DebrunSpiky, ClosedFormNormalization)
{
    // sigma = 15/(64 pi): int_0^2 (2-q)^3 q^2 dq = 16/15
    double sigma = Kernel<double>(KernelType::DebrunSpiky).normalization();
    EXPECT_NEAR(sigma, 15.0 / (64 * std::numbers::pi), 1e-15);
    EXPECT_NEAR(sigma, 0.074603879574326, 1e-14);
}

TEST(DebrunSpiky, MatchesPublishedCoefficientForm)
{
    // the classic spiky form W(r) = 15/(pi H^6) (H - r)^3 with support
    // radius H equals this library's sigma/h^3 (2 - q)^3 at h = H/2; the
    // 3D coefficient for H = 0.789 is a published golden value
    Kernel<double> spiky(KernelType::DebrunSpiky);
    double H     = 0.789;
    double coeff = 19.791529914316335; // 15 / (pi * 0.789^6)
    for (double r : {0.1, 0.3, 0.6})
    {
        EXPECT_NEAR(spiky.value(r, H / 2), coeff * std::pow(H - r, 3.0), 1e-12 * coeff)
            << "r=" << r;
    }
}

// --- closed-form normalizations --------------------------------------------

TEST(KernelNormalization, ClosedFormsMatchLiterature)
{
    constexpr double pi = std::numbers::pi;
    EXPECT_NEAR(Kernel<double>(KernelType::CubicSpline).normalization(), 1.0 / pi, 1e-15);
    EXPECT_NEAR(Kernel<double>(KernelType::WendlandC2).normalization(), 21.0 / (16 * pi),
                1e-15);
    EXPECT_NEAR(Kernel<double>(KernelType::WendlandC4).normalization(), 495.0 / (256 * pi),
                1e-15);
    EXPECT_NEAR(Kernel<double>(KernelType::WendlandC6).normalization(), 1365.0 / (512 * pi),
                1e-15);
}

TEST(KernelNormalization, FloatInstantiation)
{
    // 32-bit instantiation exists and is normalized (the library is generic
    // even though the mini-app mandates 64-bit).
    Kernel<float> k(KernelType::WendlandC2);
    auto integrand = [&](float q) { return k.fq(q) * q * q; };
    float integral =
        4 * std::numbers::pi_v<float> * integrateSimpson<float>(integrand, 0.f, 2.f, 2000);
    EXPECT_NEAR(integral, 1.0f, 1e-4f);
}

TEST(KernelNames, AllDistinct)
{
    EXPECT_EQ(kernelName(KernelType::Sinc), "Sinc");
    EXPECT_EQ(kernelName(KernelType::CubicSpline), "M4 spline");
    EXPECT_EQ(kernelName(KernelType::WendlandC2), "Wendland C2");
}
