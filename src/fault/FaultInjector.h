// Applies drawn FaultSpecs to a built circuit by device-name convention.
//
// Three naming conventions are understood. Hand-built circuits (unit
// tests, bench_fault_campaign's ladder demo) name per-column devices
// "<base>_<col>" ("N1_3", "Tw1_0", "Ts_7", …); a one-row template
// (SearchTemplate, WriteTemplate) scopes them under their cell instance
// as "Xcell<col>.<base>" ("Xcell3.N1"); an N-row ArrayTemplate adds the
// row level, "Xrow<row>.Xcell<col>.<base>" ("Xrow2.Xcell3.N1") — there
// the fault's row must match the scope too. Names without a row scope
// match any row. The injector walks the circuit's
// device list, parses the column index from either form, and mutates the
// matching devices in place through the fault hooks
// (NemRelay::force_stuck / set_contact_resistance / set_gate_leakage,
// Mosfet::set_vth_outlier) — the AssemblyCache's recorded stamp pattern
// is unaffected because the hooks only change stamp *values* (a
// stuck-open relay with g_off = 0 still stamps its zero into its recorded
// slots). Every hook is absolute, so applying the same FaultSpec twice is
// idempotent — callers may re-inject an accumulated fault list into a
// persistent circuit (lifetime engine circuit checks) without stacking
// severities.
#pragma once

#include <vector>

#include "fault/FaultModel.h"
#include "spice/Circuit.h"

namespace nemtcam::fault {

// The severities FaultInjector applies when it mutates devices:
//  - kDriftROn: drifted contact resistance (Ω; nominal 1 kΩ);
//  - kLeakG: gate–body leakage (S), which gives µs-scale retention;
//  - kVthShift: |ΔVth| (V), its sign carried by the FaultSpec;
//  - kGOffBroken: a fractured beam's contact leakage, exactly 0.
inline constexpr double kDriftROn = 50e3;
inline constexpr double kLeakG = 1e-9;
inline constexpr double kVthShift = 0.15;
inline constexpr double kGOffBroken = 0.0;

class FaultInjector {
 public:
  // Applies one fault to every matching device in the circuit. Relay
  // faults target "N1_<col>" or "N2_<col>" per spec.on_n1; MosVthOutlier
  // shifts every MOSFET in the column (the compare stack shares the
  // outlier's process corner). Returns the number of devices mutated.
  int apply(spice::Circuit& circuit, const FaultSpec& spec) const;

  // Deterministically draws and applies the faults of row 0 of a
  // width-wide array (the per-trial single-row fixture path used by the
  // Monte-Carlo campaign). Returns the applied specs.
  std::vector<FaultSpec> inject(spice::Circuit& circuit, std::uint64_t seed,
                                int width, const FaultRates& rates) const;
};

}  // namespace nemtcam::fault
