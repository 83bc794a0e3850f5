// Shared transaction scaffolding for the circuit-level TCAM rows: match-
// line precharge, searchline drivers, line parasitics, port binding and
// measurement.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/Ternary.h"
#include "erc/Checker.h"
#include "hier/Elaborate.h"
#include "spice/Circuit.h"
#include "spice/Transient.h"
#include "tcam/Calibration.h"
#include "tcam/Metrics.h"

namespace nemtcam::tcam {

// The edge every line driver makes: `v0` until `t_edge`, then a 20 ps
// linear ramp to `v1`.
std::unique_ptr<spice::Waveform> step_wave(double v0, double v1, double t_edge);

// Searchline levels for one key trit: 1 → SL = VDD, SL̄ = 0; 0 → SL = 0,
// SL̄ = VDD; X → both 0, so no compare path conducts.
struct SearchlineLevels {
  double sl;
  double slb;
};
SearchlineLevels searchline_levels(core::Ternary key_trit, double vdd);

// Where one transaction binds a cell's ports, by port name: a `row` net is
// shared by every cell of the row (ml, vdd, shared rails, a write's
// wordline), a `columns` entry gives the port one net per column (sl/slb,
// a write's bitlines). A port named in neither binds to ground: the
// transaction does not use it (a search's bitlines, a write's matchline).
struct PortNets {
  std::map<std::string, spice::NodeId> row;
  std::map<std::string, std::vector<spice::NodeId>> columns;
};

// Elaborates one instance of `cell` (which carries no nested instances)
// under `scope`, its ports bound through `nets` for column `col`.
hier::InstanceHandles elaborate_cell(spice::Circuit& ckt,
                                     const hier::SubcktDef& cell,
                                     const std::string& scope,
                                     const PortNets& nets, int col,
                                     const hier::ParamEnv& env);

// Builds the design-independent part of a search transaction:
//  - VDD rail, matchline with precharge PMOS and wire/sense parasitics,
//  - per-column SL/SL̄ pairs driven according to the key
//    (searchline_levels),
//  - the transaction timeline: ML precharges during [0, t_precharge],
//    the precharge device turns off, then SLs switch at t_edge.
// The caller attaches one cell per column between ml and the sl/slb pair,
// runs the transient, and extracts SearchMetrics.
class SearchFixture {
 public:
  // c_sl_gate_per_row: additional SL loading contributed by each array row's
  // cell (e.g. the SRAM compare-stack gates hang directly on the
  // searchlines; the NVM cells present only small electrode stubs).
  SearchFixture(const Calibration& cal, const CellGeometry& geo, int width,
                int array_rows, const core::TernaryWord& key,
                double c_sl_gate_per_row = 0.0);

  spice::Circuit& circuit() noexcept { return circuit_; }
  int width() const noexcept { return static_cast<int>(sl_.size()); }
  spice::NodeId vdd() const noexcept { return vdd_; }
  spice::NodeId ml() const noexcept { return ml_; }
  spice::NodeId sl(int col) const { return sl_.at(static_cast<std::size_t>(col)); }
  spice::NodeId slb(int col) const { return slb_.at(static_cast<std::size_t>(col)); }
  double t_edge() const noexcept { return t_edge_; }
  double t_end() const noexcept { return t_end_; }

  // Static-analysis hook: the fixture pre-registers the generic rules
  // (ML precharge reachability); row builders add design-specific rules
  // (fan-in count, relay-pair consistency, …) before run().
  erc::Checker& checker() noexcept { return checker_; }

  // Runs the ERC pass over the assembled circuit (cached — rules run
  // once). run() calls this when erc::default_enforce() is on; tests call
  // it directly to assert fixtures are clean.
  const erc::Report& check();

  // Runs the transient under spice::step_defaults. When ERC enforcement is
  // on and check() reports errors, no transient is run: the result carries
  // the structured report as its failure text.
  spice::TransientResult run();

  // The nets a cell's ports bind to: ml and vdd, and each column's sl/slb.
  PortNets port_nets() const;

  // Re-aims the searchline drivers at a new key without touching the
  // topology: each Vdrv_sl/Vdrv_slb source gets a fresh step waveform
  // (Circuit::rebind_source), so the solver cache's stamp pattern and
  // symbolic LU survive. Part of the template-replay contract
  // (hier/Elaborate.h).
  void rebind_key(const core::TernaryWord& key);

  // Interprets the run. Match/mismatch is decided at the sense strobe
  // (t_edge + strobe_delay): matched = ML still above the sense level
  // there. Latency is the SL-edge → ML-crossing time when the ML crossed.
  // Non-const: reads the circuit's solver-cache telemetry. When
  // sta::default_enabled(), also attaches the closed-form STA bounds
  // (SearchMetrics::sta) from a fresh static pass over the bound circuit.
  SearchMetrics metrics(const spice::TransientResult& result,
                        double strobe_delay);

  // The static pass alone: timing/energy/margin bounds for the circuit
  // as currently bound (ICs seeded, key rebound), no transient needed.
  StaSummary sta_summary(double strobe_delay);

 private:
  Calibration cal_;  // by value: rows may pass a locally adjusted copy
  erc::Checker checker_;
  std::optional<erc::Report> report_;
  spice::Circuit circuit_;
  spice::NodeId vdd_;
  spice::NodeId ml_;
  std::vector<spice::NodeId> sl_;
  std::vector<spice::NodeId> slb_;
  double t_edge_;
  double t_end_;
};

// Adds a driven line: a node with wire capacitance `c_line` and a source
// stepping from `v0` to `v1` at `t_edge` (step_wave) through the line
// driver impedance. Returns the line node.
spice::NodeId add_driven_line(spice::Circuit& c, const Calibration& cal,
                              const std::string& name, double c_line,
                              double v0, double v1, double t_edge);

}  // namespace nemtcam::tcam
