/// Equation-of-state tests: ideal gas, Tait (weakly compressible), and
/// isothermal closures, plus the type-erased dispatcher.

#include <gtest/gtest.h>

#include <cmath>

#include "core/config.hpp"
#include "sph/eos.hpp"
#include "sph/eos_wcsph.hpp"

using namespace sphexa;

TEST(IdealGas, PressureAndSoundSpeed)
{
    IdealGasEos<double> eos(5.0 / 3.0);
    auto r = eos(2.0, 3.0); // rho=2, u=3
    EXPECT_DOUBLE_EQ(r.pressure, (5.0 / 3.0 - 1.0) * 2.0 * 3.0); // 4
    EXPECT_DOUBLE_EQ(r.soundSpeed, std::sqrt(5.0 / 3.0 * 4.0 / 2.0));
}

TEST(IdealGas, ZeroEnergyZeroPressure)
{
    IdealGasEos<double> eos;
    auto r = eos(1.0, 0.0);
    EXPECT_DOUBLE_EQ(r.pressure, 0.0);
}

TEST(IdealGas, PressureLinearInEnergy)
{
    IdealGasEos<double> eos(1.4);
    auto a = eos(1.0, 1.0);
    auto b = eos(1.0, 2.0);
    EXPECT_DOUBLE_EQ(b.pressure, 2 * a.pressure);
}

TEST(Tait, ZeroPressureAtReferenceDensity)
{
    TaitEos<double> eos(1000.0, 50.0);
    auto r = eos(1000.0, 0.0);
    EXPECT_NEAR(r.pressure, 0.0, 1e-9);
    EXPECT_NEAR(r.soundSpeed, 50.0, 1e-9);
}

TEST(Tait, StiffResponse)
{
    // 1% compression with gamma=7: P ~ B * 7 * 0.01
    double rho0 = 1.0, c0 = 35.0;
    TaitEos<double> eos(rho0, c0);
    double B = rho0 * c0 * c0 / 7.0;
    auto r = eos(1.01 * rho0, 0.0);
    EXPECT_NEAR(r.pressure, B * (std::pow(1.01, 7.0) - 1.0), 1e-12);
    EXPECT_GT(r.pressure, B * 0.068); // > linearized estimate
}

TEST(Tait, NegativePressureUnderTension)
{
    // The square patch develops negative pressures (tensile region): Tait
    // must produce P < 0 for rho < rho0.
    TaitEos<double> eos(1.0, 35.0);
    auto r = eos(0.99, 0.0);
    EXPECT_LT(r.pressure, 0.0);
}

TEST(Tait, SoundSpeedIncreasesWithDensity)
{
    TaitEos<double> eos(1.0, 35.0);
    EXPECT_GT(eos(1.05, 0.0).soundSpeed, eos(1.0, 0.0).soundSpeed);
}

TEST(Tait, MatchesWcsphReferenceFormula)
{
    // cal_pressure_wcsph reference case: water column, rho0 = 1000,
    // c0^2 = 1500, gamma = 7, 10% compressed
    double rho0 = 1000.0, c2 = 1500.0, gamma = 7.0, rho = 1100.0;
    double B = wcsphStiffness(rho0, c2, gamma);
    EXPECT_NEAR(B, 1500.0 * 1000.0 / 7.0, 1e-9);

    double ref = B * (std::pow(rho / rho0, gamma) - 1.0);
    EXPECT_NEAR(calPressureWcsph(rho, rho0, c2, gamma), ref, 1e-9 * ref);

    TaitEos<double> eos(rho0, std::sqrt(c2), gamma);
    EXPECT_NEAR(eos(rho, 0.0).pressure, ref, 1e-9 * ref);
    EXPECT_NEAR(eos(rho, 0.0).soundSpeed, calSoundSpeedWcsph(rho, rho0, c2, gamma),
                1e-12);
}

TEST(Tait, MakeTaitEosAppliesParameterBlock)
{
    TaitEos<double> eos(2.0, 20.0, 7.0, /*pressureFloor*/ 0.0);
    EXPECT_DOUBLE_EQ(eos.referenceDensity(), 2.0);
    EXPECT_DOUBLE_EQ(eos.referenceSoundSpeed(), 20.0);
    // the floor clamps the tensile branch: rho < rho0 gives P = 0, not P < 0
    EXPECT_DOUBLE_EQ(eos(1.9, 0.0).pressure, 0.0);
    EXPECT_GT(eos(2.1, 0.0).pressure, 0.0);
    // defaults leave the floor off: tension passes through
    TaitEos<double> open(2.0, 20.0);
    EXPECT_LT(open(1.9, 0.0).pressure, 0.0);

    // a config selects the closure by its taitEos field alone
    SimulationConfig<double> cfg;
    EXPECT_EQ(eosFromConfig(cfg).name(), "ideal-gas");
    cfg.taitEos = eos;
    EXPECT_EQ(eosFromConfig(cfg).name(), "tait");
    EXPECT_DOUBLE_EQ(eosFromConfig(cfg)(1.9, 0.0).pressure, 0.0);
}

TEST(Isothermal, PressureProportionalToDensity)
{
    IsothermalEos<double> eos(2.0);
    auto a = eos(1.0, 99.0); // u ignored
    auto b = eos(3.0, 0.0);
    EXPECT_DOUBLE_EQ(a.pressure, 4.0);
    EXPECT_DOUBLE_EQ(b.pressure, 12.0);
    EXPECT_DOUBLE_EQ(a.soundSpeed, 2.0);
    EXPECT_DOUBLE_EQ(b.soundSpeed, 2.0);
}

TEST(EosVariant, DispatchesCorrectly)
{
    Eos<double> ideal{IdealGasEos<double>(5.0 / 3.0)};
    Eos<double> tait{TaitEos<double>(1.0, 35.0)};
    Eos<double> iso{IsothermalEos<double>(1.5)};

    EXPECT_EQ(ideal.name(), "ideal-gas");
    EXPECT_EQ(tait.name(), "tait");
    EXPECT_EQ(iso.name(), "isothermal");
    EXPECT_TRUE(ideal.isIdealGas());
    EXPECT_FALSE(tait.isIdealGas());

    EXPECT_DOUBLE_EQ(ideal(2.0, 3.0).pressure, 4.0);
    EXPECT_NEAR(tait(1.0, 0.0).pressure, 0.0, 1e-12);
    EXPECT_DOUBLE_EQ(iso(2.0, 0.0).pressure, 4.5);
}

TEST(EosVariant, DefaultIsIdealGas)
{
    Eos<double> eos;
    EXPECT_TRUE(eos.isIdealGas());
}
