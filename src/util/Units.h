// SI unit helpers for circuit quantities.
//
// All internal quantities in nemtcam are plain `double` in base SI units
// (seconds, volts, amperes, farads, ohms, joules, watts). These constants
// make magnitudes readable at construction sites:
//
//   double c = 20 * units::aF;      // 2e-17 F
#pragma once

namespace nemtcam::units {

// Time.
inline constexpr double s = 1.0;
inline constexpr double minute = 60.0;
inline constexpr double hour = 3600.0;
inline constexpr double day = 86400.0;
inline constexpr double year = 365.25 * 86400.0;  // Julian year
inline constexpr double ms = 1e-3;
inline constexpr double us = 1e-6;
inline constexpr double ns = 1e-9;
inline constexpr double ps = 1e-12;
inline constexpr double fs = 1e-15;

// Capacitance.
inline constexpr double F = 1.0;
inline constexpr double uF = 1e-6;
inline constexpr double nF = 1e-9;
inline constexpr double pF = 1e-12;
inline constexpr double fF = 1e-15;
inline constexpr double aF = 1e-18;

// Resistance.
inline constexpr double Ohm = 1.0;
inline constexpr double kOhm = 1e3;
inline constexpr double MOhm = 1e6;
inline constexpr double GOhm = 1e9;

// Voltage / current.
inline constexpr double V = 1.0;
inline constexpr double mV = 1e-3;
inline constexpr double uV = 1e-6;
inline constexpr double A = 1.0;
inline constexpr double mA = 1e-3;
inline constexpr double uA = 1e-6;
inline constexpr double nA = 1e-9;
inline constexpr double pA = 1e-12;

// Energy / power.
inline constexpr double J = 1.0;
inline constexpr double pJ = 1e-12;
inline constexpr double fJ = 1e-15;
inline constexpr double aJ = 1e-18;
inline constexpr double W = 1.0;
inline constexpr double mW = 1e-3;
inline constexpr double uW = 1e-6;
inline constexpr double nW = 1e-9;

// Length (for parasitic wire models).
inline constexpr double m = 1.0;
inline constexpr double um = 1e-6;
inline constexpr double nm = 1e-9;

}  // namespace nemtcam::units
