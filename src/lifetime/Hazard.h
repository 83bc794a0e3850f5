// Deterministic wear-out hazard model: every cell's whole fault future as
// a pure function of (seed, row, col).
//
// The fault campaign (fault/FaultModel) draws a *static* defect map: each
// cell either has a fault or it does not. Lifetime simulation needs the
// time dimension — WHEN does each cell's fault switch on — and it needs
// the answer to be reproducible at any parallelism and replayable from
// any point in time. So instead of integrating stochastic arrivals, each
// cell gets an immutable CellFate drawn once from splitmix64 streams over
// (seed, row, col):
//
//  - wear_dead:  the wear fraction (cycles/rated) at which the cell fails
//    hard (stuck contact / fractured beam). Weibull in wear with a steep
//    shape (β≈6) centred just above the rated endurance — deaths cluster
//    near the rating, as cycling-endurance distributions do.
//  - wear_drift: the wear fraction at which contact resistance degrades
//    enough to matter (ContactDrift, Weak). Weibull with a lower scale
//    (η≈0.7) and shallower shape — drift precedes death.
//  - time_leak:  an absolute-time gate-leak onset (GateLeak / Vth outlier,
//    Weak), exponential with a large per-cell MTBF. This is the only
//    channel independent of traffic: dielectric wear happens to hot and
//    cold rows alike.
//
// The Weibull scales and shapes and the leak MTBF are constants
// (Hazard.cpp), not configuration. The engine turns these thresholds into
// event times analytically (wear grows piecewise-linearly between
// events), which is what makes years of simulated lifetime cost
// O(events), not O(operations).
#pragma once

#include <cstdint>
#include <vector>

#include "core/EnergyModel.h"
#include "fault/FaultModel.h"

namespace nemtcam::lifetime {

// One cell's immutable fault future.
struct CellFate {
  double wear_dead;   // wear fraction at which the cell fails hard
  double wear_drift;  // wear fraction at which contact drift onsets
  double time_leak;   // absolute time (s) at which gate leak onsets
  bool dead_closed;   // hard failure flavor: stuck-closed vs stuck-open
  bool on_n1;         // which compare branch the fault sits on
  bool positive;      // sign bit for signed severities (Vth direction)
};

CellFate cell_fate(std::uint64_t seed, int row, int col);

// Per-row first onsets: every cell of a row wears at the same rate (the
// write stream flips a fixed fraction of its cells), so the first cell to
// cross each threshold is simply the min over the row.
struct RowFate {
  double wear_dead = 0.0;   // min wear_dead over the row's cells
  int dead_col = -1;
  double wear_drift = 0.0;  // min wear_drift over the row's cells
  int drift_col = -1;
  double time_leak = 0.0;   // min time_leak over the row's cells
  int leak_col = -1;
};

RowFate row_fate(std::uint64_t seed, int row, int width);

// The FaultKind a fate channel materializes as. Hard failures use the
// relay stuck kinds for every technology — they are the Dead classifiers
// of fault::health_of; on non-relay cells the circuit injector simply has
// no device to pin, but the behavioral classification (and the retirement
// it triggers) is technology-independent. Leak onsets map to GateLeak on
// the relay technology and to a Vth outlier elsewhere.
fault::FaultKind dead_fault_kind(const CellFate& fate);
fault::FaultKind leak_fault_kind(core::TcamTech tech);

// Materializes the full fault list of one row at a given (wear, time)
// point: every cell whose threshold has been crossed, (row, col)
// ascending as fault::FaultReport requires.
std::vector<fault::FaultSpec> faults_of_row(std::uint64_t seed, int row,
                                            int width, core::TcamTech tech,
                                            double wear, double now);

}  // namespace nemtcam::lifetime
