/// Unit tests for the math substrate: Vec3, SymMat3, RNG, quadrature,
/// lookup tables, statistics, and the square-patch pressure series.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>

#include "math/lookup_table.hpp"
#include "math/matrix3.hpp"
#include "math/quadrature.hpp"
#include "math/rng.hpp"
#include "math/series.hpp"
#include "math/statistics.hpp"
#include "math/vec.hpp"

using namespace sphexa;

TEST(Vec3, BasicArithmetic)
{
    Vec3d a{1, 2, 3}, b{4, 5, 6};
    EXPECT_EQ(a + b, (Vec3d{5, 7, 9}));
    EXPECT_EQ(b - a, (Vec3d{3, 3, 3}));
    EXPECT_EQ(a * 2.0, (Vec3d{2, 4, 6}));
    EXPECT_EQ(2.0 * a, a * 2.0);
    EXPECT_EQ(-a, (Vec3d{-1, -2, -3}));
    EXPECT_DOUBLE_EQ(dot(a, b), 32.0);
}

TEST(Vec3, CrossProductOrthogonality)
{
    Vec3d a{1, 2, 3}, b{-2, 1, 5};
    Vec3d c = cross(a, b);
    EXPECT_NEAR(dot(c, a), 0.0, 1e-14);
    EXPECT_NEAR(dot(c, b), 0.0, 1e-14);
}

TEST(Vec3, CrossProductRightHanded)
{
    Vec3d ex{1, 0, 0}, ey{0, 1, 0};
    EXPECT_EQ(cross(ex, ey), (Vec3d{0, 0, 1}));
}

TEST(Vec3, NormAndIndexing)
{
    Vec3d v{3, 4, 0};
    EXPECT_DOUBLE_EQ(norm(v), 5.0);
    EXPECT_DOUBLE_EQ(norm2(v), 25.0);
    EXPECT_DOUBLE_EQ(v[0], 3.0);
    EXPECT_DOUBLE_EQ(v[1], 4.0);
    EXPECT_DOUBLE_EQ(v[2], 0.0);
    v[2] = 7;
    EXPECT_DOUBLE_EQ(v.z, 7.0);
}

TEST(Vec3, MinMax)
{
    Vec3d a{1, 5, 3}, b{2, 4, 3};
    EXPECT_EQ(min(a, b), (Vec3d{1, 4, 3}));
    EXPECT_EQ(max(a, b), (Vec3d{2, 5, 3}));
}

TEST(SymMat3, IdentityInverse)
{
    auto I = SymMat3d::identity();
    auto Iinv = I.inverse();
    EXPECT_DOUBLE_EQ(Iinv.xx, 1.0);
    EXPECT_DOUBLE_EQ(Iinv.yy, 1.0);
    EXPECT_DOUBLE_EQ(Iinv.zz, 1.0);
    EXPECT_DOUBLE_EQ(Iinv.xy, 0.0);
}

TEST(SymMat3, InverseTimesMatrixIsIdentity)
{
    // A well-conditioned SPD matrix built from outer products.
    SymMat3d m;
    m.addOuter(Vec3d{1, 0.2, -0.1}, 2.0);
    m.addOuter(Vec3d{-0.3, 1.1, 0.4}, 1.5);
    m.addOuter(Vec3d{0.2, -0.5, 0.9}, 3.0);
    auto inv = m.inverse();

    // Verify M * M^-1 = I by applying both to basis vectors.
    Vec3d basis[3] = {{1, 0, 0}, {0, 1, 0}, {0, 0, 1}};
    for (int k = 0; k < 3; ++k)
    {
        Vec3d r = m * (inv * basis[k]);
        for (int c = 0; c < 3; ++c)
        {
            EXPECT_NEAR(r[c], basis[k][c], 1e-12) << "k=" << k << " c=" << c;
        }
    }
}

TEST(SymMat3, SingularFallsBackToIdentity)
{
    SymMat3d m; // zero matrix
    auto inv = m.inverse();
    EXPECT_DOUBLE_EQ(inv.xx, 1.0);
    EXPECT_DOUBLE_EQ(inv.yy, 1.0);
    EXPECT_DOUBLE_EQ(inv.zz, 1.0);

    // rank-1 matrix is singular too
    SymMat3d r1;
    r1.addOuter(Vec3d{1, 1, 1}, 1.0);
    auto inv1 = r1.inverse();
    EXPECT_DOUBLE_EQ(inv1.xx, 1.0);
}

TEST(SymMat3, DeterminantKnownValue)
{
    // diag(2, 3, 4) -> det 24
    SymMat3d m{2, 0, 0, 3, 0, 4};
    EXPECT_DOUBLE_EQ(m.determinant(), 24.0);
    EXPECT_DOUBLE_EQ(m.trace(), 9.0);
}

TEST(SymMat3, MatVecProduct)
{
    SymMat3d m{1, 2, 3, 4, 5, 6};
    // full matrix: [1 2 3; 2 4 5; 3 5 6]
    Vec3d v{1, 1, 1};
    Vec3d r = m * v;
    EXPECT_DOUBLE_EQ(r.x, 6.0);
    EXPECT_DOUBLE_EQ(r.y, 11.0);
    EXPECT_DOUBLE_EQ(r.z, 14.0);
}

TEST(Rng, Determinism)
{
    Xoshiro256pp a(42), b(42);
    for (int i = 0; i < 1000; ++i)
    {
        EXPECT_EQ(a(), b());
    }
}

TEST(Rng, DifferentSeedsDiffer)
{
    Xoshiro256pp a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
    {
        if (a() == b()) ++same;
    }
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange)
{
    Xoshiro256pp r(7);
    for (int i = 0; i < 10000; ++i)
    {
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanConverges)
{
    Xoshiro256pp r(11);
    double s = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        s += r.uniform();
    EXPECT_NEAR(s / n, 0.5, 0.005);
}

TEST(Rng, NormalMoments)
{
    Xoshiro256pp r(13);
    double s = 0, s2 = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
    {
        double x = r.normal();
        s += x;
        s2 += x * x;
    }
    EXPECT_NEAR(s / n, 0.0, 0.02);
    EXPECT_NEAR(s2 / n, 1.0, 0.03);
}

TEST(Rng, UniformIntBounds)
{
    Xoshiro256pp r(17);
    for (int i = 0; i < 10000; ++i)
    {
        EXPECT_LT(r.uniformInt(10), 10u);
    }
}

TEST(Quadrature, PolynomialExact)
{
    // Simpson is exact for cubics.
    auto f = [](double x) { return 3 * x * x * x - x + 2; };
    double v = integrate<double>(f, 0.0, 2.0);
    EXPECT_NEAR(v, 3 * 4.0 - 2.0 + 4.0, 1e-12); // 12 - 2 + 4 = 14
}

TEST(Quadrature, SineIntegral)
{
    double v = integrate<double>([](double x) { return std::sin(x); }, 0.0,
                                 std::numbers::pi, 1e-14);
    EXPECT_NEAR(v, 2.0, 1e-10);
}

TEST(Quadrature, CompositeSimpsonAgrees)
{
    auto f = [](double x) { return std::exp(-x * x); };
    double a = integrate<double>(f, 0.0, 3.0, 1e-13);
    double b = integrateSimpson<double>(f, 0.0, 3.0, 2000);
    EXPECT_NEAR(a, b, 1e-9);
}

TEST(LookupTable, ExactAtNodes)
{
    auto f = [](double x) { return x * x; };
    LookupTable<double> t(f, 0.0, 2.0, 101);
    for (int i = 0; i <= 100; ++i)
    {
        double x = 2.0 * i / 100;
        EXPECT_NEAR(t(x), f(x), 1e-12);
    }
}

TEST(LookupTable, InterpolationError)
{
    auto f = [](double x) { return std::sin(x); };
    LookupTable<double> t(f, 0.0, 3.0, 3001);
    for (double x = 0.0005; x < 3.0; x += 0.0173)
    {
        EXPECT_NEAR(t(x), f(x), 1e-6);
    }
}

TEST(LookupTable, ClampsOutsideDomain)
{
    LookupTable<double> t([](double x) { return x; }, 1.0, 2.0, 11);
    EXPECT_DOUBLE_EQ(t(0.0), 1.0);
    EXPECT_DOUBLE_EQ(t(5.0), 2.0);
}

TEST(LookupTable, PropagatesNaN)
{
    // a NaN argument must stay NaN, not be clamped to a sample (which would
    // absorb the bad state) nor be cast to an index (undefined behavior)
    LookupTable<double> t([](double x) { return x; }, 1.0, 2.0, 11);
    double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_TRUE(std::isnan(t(nan)));
    EXPECT_TRUE(std::isnan(t(-nan)));
    EXPECT_DOUBLE_EQ(t(1.5), 1.5);
}

TEST(LookupTable, JustBelowUpperBoundStaysInTheLastInterval)
{
    // at nextafter(b, a), (x - a) * inv_dx rounds up to exactly n - 1 for
    // these tables: the lookup must return a value between the last two
    // samples and read nothing past its table (the ASan leg sees that read)
    struct Case
    {
        double a, b;
        std::size_t n;
    };
    auto f = [](double x) { return 1.0 + x * x; };
    for (Case c : {Case{-1.0, 1.0, 11}, Case{0.0, 3.0, 18}})
    {
        SCOPED_TRACE(testing::Message() << "[" << c.a << ", " << c.b << "], n = " << c.n);
        LookupTable<double> t(f, c.a, c.b, c.n);
        double dx   = (c.b - c.a) / double(c.n - 1);
        double x    = std::nextafter(c.b, c.a);
        double last = f(c.a + double(c.n - 1) * dx);
        double prev = f(c.a + double(c.n - 2) * dx);
        double v    = t(x);
        EXPECT_GE(v, std::min(prev, last));
        EXPECT_LE(v, std::max(prev, last));
    }
}

TEST(LookupTable, RejectsFewerThanTwoSamplesOrAnEmptyInterval)
{
    // evaluation reads samples i and i + 1, so a 0- or 1-sample table has
    // nothing to interpolate (checked in every build type)
    auto f = [](double x) { return x; };
    EXPECT_THROW(LookupTable<double>(f, 0.0, 2.0, 0), std::invalid_argument);
    EXPECT_THROW(LookupTable<double>(f, 0.0, 2.0, 1), std::invalid_argument);
    EXPECT_THROW(LookupTable<double>(f, 2.0, 2.0, 11), std::invalid_argument);
    EXPECT_THROW(LookupTable<double>(f, 2.0, 1.0, 11), std::invalid_argument);
    EXPECT_THROW(LookupTable<double>(f, 0.0, std::numeric_limits<double>::quiet_NaN(), 11),
                 std::invalid_argument);
    LookupTable<double> two(f, 0.0, 2.0, 2);
    EXPECT_DOUBLE_EQ(two(0.5), 0.5);
}

TEST(Statistics, BasicAggregates)
{
    std::vector<double> v{1, 2, 3, 4};
    EXPECT_DOUBLE_EQ(sum<double>(v), 10.0);
    EXPECT_DOUBLE_EQ(mean<double>(v), 2.5);
    EXPECT_DOUBLE_EQ(maxValue<double>(v), 4.0);
    EXPECT_DOUBLE_EQ(minValue<double>(v), 1.0);
}

TEST(Statistics, LoadBalanceRatio)
{
    std::vector<double> balanced{2, 2, 2, 2};
    std::vector<double> skewed{1, 1, 1, 5};
    EXPECT_DOUBLE_EQ(loadBalanceRatio<double>(balanced), 1.0);
    EXPECT_DOUBLE_EQ(loadBalanceRatio<double>(skewed), 2.0 / 5.0);
}

TEST(Statistics, Percentile)
{
    std::vector<double> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
    EXPECT_DOUBLE_EQ(percentile<double>(v, 0), 1.0);
    EXPECT_DOUBLE_EQ(percentile<double>(v, 100), 10.0);
    EXPECT_NEAR(percentile<double>(v, 50), 5.5, 1e-12);
}

TEST(Statistics, RunningStatsMatchesBatch)
{
    Xoshiro256pp r(3);
    RunningStats<double> rs;
    std::vector<double> v;
    for (int i = 0; i < 1000; ++i)
    {
        double x = r.uniform(-3, 7);
        rs.add(x);
        v.push_back(x);
    }
    EXPECT_NEAR(rs.mean(), mean<double>(v), 1e-10);
    EXPECT_NEAR(rs.stddev(), stddev<double>(v), 1e-8);
    EXPECT_DOUBLE_EQ(rs.min(), minValue<double>(v));
    EXPECT_DOUBLE_EQ(rs.max(), maxValue<double>(v));
}

// --- square patch pressure series -----------------------------------------

TEST(SquarePatchSeries, ZeroOnBoundary)
{
    SquarePatchPressure<double> p(1.0, 5.0, 1.0, 32);
    EXPECT_NEAR(p(0.0, 0.5), 0.0, 1e-10);
    EXPECT_NEAR(p(1.0, 0.5), 0.0, 1e-10);
    EXPECT_NEAR(p(0.5, 0.0), 0.0, 1e-10);
    EXPECT_NEAR(p(0.5, 1.0), 0.0, 1e-10);
}

TEST(SquarePatchSeries, SymmetryAboutCenter)
{
    SquarePatchPressure<double> p(1.0, 5.0, 1.0, 32);
    EXPECT_NEAR(p(0.3, 0.4), p(0.7, 0.4), 1e-10);
    EXPECT_NEAR(p(0.3, 0.4), p(0.3, 0.6), 1e-10);
    EXPECT_NEAR(p(0.2, 0.3), p(0.3, 0.2), 1e-10);
}

TEST(SquarePatchSeries, NegativeInInterior)
{
    // The rotating patch has negative pressure in the interior -- the very
    // feature that triggers tensile instability (Sec. 5.1 of the paper).
    SquarePatchPressure<double> p(1.0, 5.0, 1.0, 32);
    EXPECT_LT(p.centerValue(), 0.0);
    EXPECT_LT(p(0.25, 0.25), 0.0);
}

TEST(SquarePatchSeries, Convergence)
{
    SquarePatchPressure<double> p8(1.0, 5.0, 1.0, 8);
    SquarePatchPressure<double> p32(1.0, 5.0, 1.0, 32);
    SquarePatchPressure<double> p64(1.0, 5.0, 1.0, 64);
    double e8  = std::abs(p8.centerValue() - p64.centerValue());
    double e32 = std::abs(p32.centerValue() - p64.centerValue());
    EXPECT_LT(e32, e8);
    // tail decays ~1/terms^2
    EXPECT_LT(e32, 1e-4 * std::abs(p64.centerValue()));
}

TEST(SquarePatchSeries, ScalesWithOmegaSquared)
{
    SquarePatchPressure<double> p1(1.0, 1.0, 1.0, 32);
    SquarePatchPressure<double> p5(1.0, 5.0, 1.0, 32);
    EXPECT_NEAR(p5(0.4, 0.6) / p1(0.4, 0.6), 25.0, 1e-9);
}

TEST(SquarePatchSeries, SatisfiesPoissonEquation)
{
    // For steady rigid rotation  -grad(P)/rho = (v.grad)v = -w^2 r, so
    // laplacian(P) = +2 rho w^2 (with P < 0 inside and P = 0 on the free
    // surface). Verify with a central-difference Laplacian.
    double rho = 1.0, w = 5.0, L = 1.0;
    SquarePatchPressure<double> p(rho, w, L, 64);
    double hstep = 1e-3;
    double x = 0.37, y = 0.61;
    double lap = (p(x + hstep, y) + p(x - hstep, y) + p(x, y + hstep) + p(x, y - hstep) -
                  4 * p(x, y)) /
                 (hstep * hstep);
    EXPECT_NEAR(lap, 2 * rho * w * w, 0.05 * std::abs(2 * rho * w * w));
}
