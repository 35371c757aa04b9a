#pragma once

/// \file eos_wcsph.hpp
/// The Cole/Tait closure of weakly-compressible SPH (WCSPH) in the
/// reference form free-surface solvers ship it:
///
///     B = c0^2 rho0 / gamma                     (the "weak" stiffness)
///     P(rho) = B [ (rho/rho0)^gamma - 1 ]
///     c(rho)^2 = dP/drho = c0^2 (rho/rho0)^(gamma-1)
///
/// c0 is chosen ~10x the maximum expected flow speed so density varies by
/// less than 1% (the weak-compressibility regime). The standalone
/// calPressureWcsph/calSoundSpeedWcsph functions mirror the
/// cal_pressure_wcsph(rho, rho0, c^2, gamma) reference formula of WCSPH
/// codes and are the analytic oracle the golden tests check TaitEos
/// (sph/eos.hpp) against; a config selects that closure through its
/// taitEos field (core/config.hpp, eosFromConfig).

#include <cmath>

namespace sphexa {

/// Tait stiffness B = c^2 rho0 / gamma from the squared reference sound
/// speed (the "B_weak" of WCSPH references).
template<class T>
T wcsphStiffness(T rho0, T c0Squared, T gamma)
{
    return c0Squared * rho0 / gamma;
}

/// Reference Cole/Tait pressure, cal_pressure_wcsph form:
/// P = B [(rho/rho0)^gamma - 1] with B = c^2 rho0 / gamma.
template<class T>
T calPressureWcsph(T rho, T rho0, T c0Squared, T gamma)
{
    T b = wcsphStiffness(rho0, c0Squared, gamma);
    return b * (std::pow(rho / rho0, gamma) - T(1));
}

/// Reference Tait sound speed c = sqrt(dP/drho) = c0 (rho/rho0)^((gamma-1)/2).
template<class T>
T calSoundSpeedWcsph(T rho, T rho0, T c0Squared, T gamma)
{
    return std::sqrt(c0Squared * std::pow(rho / rho0, gamma - T(1)));
}

} // namespace sphexa
