// Per-operation latency/energy model for each TCAM technology.
//
// The default constants are the circuit-level results of this repository's
// benches (64×64 array, Calibration::standard()); see EXPERIMENTS.md for
// the paper-vs-measured comparison. Energies scale linearly with row width
// (lines and cells per row) relative to the 64-wide reference; latencies
// scale with width for the ML-discharge-limited searches and are
// device-limited (width-independent) for NVM/NEM writes.
#pragma once

#include <string>

namespace nemtcam::core {

enum class TcamTech { Sram16T, Nem3T2N, Rram2T2R, Fefet2F };

const char* tech_name(TcamTech t);

struct OpCosts {
  double write_latency;   // s, per row write
  double write_energy;    // J, per row write (64-wide reference)
  double search_latency;  // s, worst-case 1-bit mismatch (64-wide reference)
  double search_energy;   // J, per search (64-wide reference)
  // Dynamic-technology refresh (zero for the nonvolatile/static ones).
  double refresh_energy;  // J per whole-array one-shot refresh
  double refresh_latency; // s per refresh op
  double retention_time;  // s; 0 = no refresh needed
  bool write_latency_device_limited;  // true: write time ≈ device switching
};

class EnergyModel {
 public:
  // Reference costs measured by the circuit benches at width 64, 64 rows.
  static OpCosts reference(TcamTech tech);

  EnergyModel(TcamTech tech, int width, int rows);

  double write_latency() const;
  double write_energy() const;
  double search_latency() const;
  double search_energy() const;
  double search_edp() const { return search_latency() * search_energy(); }
  double refresh_energy() const;
  double refresh_latency() const;
  double retention_time() const;
  bool needs_refresh() const { return retention_time() > 0.0; }
  // Average background power spent on refresh (J/op ÷ retention).
  double refresh_power() const;

 private:
  TcamTech tech_;
  int width_;
  int rows_;
  OpCosts ref_;
};

}  // namespace nemtcam::core
