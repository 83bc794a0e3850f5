#include "lifetime/Hazard.h"

#include <cmath>
#include <limits>

namespace nemtcam::lifetime {

namespace {

// Distinct splitmix64 streams per fate channel so the draws are mutually
// independent (same trick as fault::cell_hash, one xor-folded constant
// per channel).
constexpr std::uint64_t kDeadStream = 0x9e3779b97f4a7c15ull;
constexpr std::uint64_t kDriftStream = 0xbf58476d1ce4e5b9ull;
constexpr std::uint64_t kLeakStream = 0x94d049bb133111ebull;
constexpr std::uint64_t kFlagStream = 0xd6e8feb86659fd93ull;

// Hard-failure Weibull in wear fraction: w* = η·(−ln u)^(1/β).
constexpr double kEtaDead = 1.05;
constexpr double kBetaDead = 6.0;
// Contact-drift onset Weibull in wear fraction.
constexpr double kEtaDrift = 0.70;
constexpr double kBetaDrift = 4.0;
// Gate-leak onset: exponential in absolute time, per-cell mean (s). It
// keeps leak rare over a 10-year horizon for a 64×64 array (expected
// onsets ≈ rows·width·horizon/mtbf ≈ 13 over 10 years).
constexpr double kLeakMtbf = 1.0e10;

// Top 53 bits → [0, 1).
double to_unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

double weibull_threshold(double u, double eta, double beta) {
  // Inverse CDF; u ∈ [0,1). −log1p(−u) is −ln(1−u) without cancellation.
  return eta * std::pow(-std::log1p(-u), 1.0 / beta);
}

}  // namespace

CellFate cell_fate(std::uint64_t seed, int row, int col) {
  const double u_dead = to_unit(fault::cell_hash(seed ^ kDeadStream, row, col));
  const double u_drift =
      to_unit(fault::cell_hash(seed ^ kDriftStream, row, col));
  const double u_leak = to_unit(fault::cell_hash(seed ^ kLeakStream, row, col));
  const std::uint64_t flags = fault::cell_hash(seed ^ kFlagStream, row, col);

  CellFate fate;
  fate.wear_dead = weibull_threshold(u_dead, kEtaDead, kBetaDead);
  fate.wear_drift = weibull_threshold(u_drift, kEtaDrift, kBetaDrift);
  // Exponential inverse CDF; u_leak == 0 maps to 0 onset with probability
  // 2^-53 — harmless (an infant-mortality leak).
  fate.time_leak = -kLeakMtbf * std::log1p(-u_leak);
  fate.dead_closed = (flags & 1u) != 0;
  fate.on_n1 = (flags & 2u) != 0;
  fate.positive = (flags & 4u) != 0;
  return fate;
}

RowFate row_fate(std::uint64_t seed, int row, int width) {
  RowFate out;
  out.wear_dead = std::numeric_limits<double>::infinity();
  out.wear_drift = std::numeric_limits<double>::infinity();
  out.time_leak = std::numeric_limits<double>::infinity();
  for (int c = 0; c < width; ++c) {
    const CellFate f = cell_fate(seed, row, c);
    if (f.wear_dead < out.wear_dead) {
      out.wear_dead = f.wear_dead;
      out.dead_col = c;
    }
    if (f.wear_drift < out.wear_drift) {
      out.wear_drift = f.wear_drift;
      out.drift_col = c;
    }
    if (f.time_leak < out.time_leak) {
      out.time_leak = f.time_leak;
      out.leak_col = c;
    }
  }
  return out;
}

fault::FaultKind dead_fault_kind(const CellFate& fate) {
  return fate.dead_closed ? fault::FaultKind::RelayStuckClosed
                          : fault::FaultKind::RelayStuckOpen;
}

fault::FaultKind leak_fault_kind(core::TcamTech tech) {
  return tech == core::TcamTech::Nem3T2N ? fault::FaultKind::GateLeak
                                         : fault::FaultKind::MosVthOutlier;
}

std::vector<fault::FaultSpec> faults_of_row(std::uint64_t seed, int row,
                                            int width, core::TcamTech tech,
                                            double wear, double now) {
  std::vector<fault::FaultSpec> out;
  for (int c = 0; c < width; ++c) {
    const CellFate f = cell_fate(seed, row, c);
    fault::FaultSpec spec;
    spec.row = row;
    spec.col = c;
    spec.on_n1 = f.on_n1;
    spec.positive = f.positive;
    // One fault per cell, worst first: a dead cell's drift/leak history
    // is irrelevant once the contact is welded or fractured.
    if (wear >= f.wear_dead) {
      spec.kind = dead_fault_kind(f);
    } else if (wear >= f.wear_drift) {
      spec.kind = tech == core::TcamTech::Nem3T2N
                      ? fault::FaultKind::ContactDrift
                      : fault::FaultKind::MosVthOutlier;
    } else if (now >= f.time_leak) {
      spec.kind = leak_fault_kind(tech);
    } else {
      continue;
    }
    out.push_back(spec);
  }
  return out;
}

}  // namespace nemtcam::lifetime
