/// The floating-point semantics the root CMakeLists.txt pins on the sphexa
/// target (-ffp-contract=off -fno-math-errno) must reach every consumer.
/// They are PUBLIC because the library is header-only templates, compiled
/// in each consumer's translation unit like this one, not in libsphexa.a.
/// If a flag stops propagating, a host-ISA build may contract a*b+c into an
/// FMA and leave the bits the goldens and the bitwise suites were written
/// against.

#include <gtest/gtest.h>

TEST(FpSemantics, MathErrnoIsOff)
{
#if defined(__GNUC__) || defined(__clang__)
#ifdef __NO_MATH_ERRNO__
    SUCCEED();
#else
    FAIL() << "-fno-math-errno did not reach this translation unit";
#endif
#else
    GTEST_SKIP() << "the pinned flags are set for GCC and Clang only";
#endif
}

TEST(FpSemantics, ProductMinusItsRoundedSelfIsZero)
{
    // a*b = 1 + 2^-29 + 2^-60 is not a double: it rounds to 1 + 2^-29. A
    // contracted fma(a, b, -c) returns the rounding residual 2^-60, two
    // roundings return exactly 0. The volatile reads keep a and b runtime
    // values and give the second product its own multiply, so the compiler
    // can neither fold it nor reuse c.
    volatile double va = 1.0 + 0x1p-30;
    volatile double vb = 1.0 + 0x1p-30;
    volatile double vc = va * vb;
    double c           = vc;
    double r           = va * vb - c;
    EXPECT_EQ(r, 0.0) << "a*b - c was contracted into an FMA (residual " << r << ")";
}
