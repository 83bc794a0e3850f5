// Row search transactions: the per-design search spec, and the row-level
// template TcamRow, the lifetime engine and the benches search through.
//
// Each row design describes its per-column cell as a hier::SubcktDef plus
// hooks (shared rails, a state binder, ERC rules) in a SearchTemplateSpec
// (RowSpecs.h factories). A SearchTemplate searches one row of an
// `array_rows`-row array: it is a one-row ArrayTemplate whose searchlines
// model the whole column, the other rows standing in as lumped line load
// (ArrayTemplate.h). The first search builds the circuit, one cell
// instance per column under the scope "Xcell<col>", and registers the
// rules. Every later search with the same stored word reuses that circuit
// verbatim: the key change is a waveform rebind on the SL drivers, the
// stored word a device-state re-seed — neither bumps the topology
// revision, so the solver cache's stamp pattern and symbolic LU carry
// over (zero reconstruction; the stamp_pattern_builds metric stays flat).
// Nor does a replay re-solve the precharge: every key holds the
// searchlines at 0 V until the SL edge, so the search resumes there from
// the checkpoint the template's last full run took, unless the circuit's
// state at t = 0 or its LU pivot order moved since (ArrayFixture::run).
// Every figure a resumed search reports is the full run's, bit for bit.
//
// A search with a different stored word rebuilds the template: the
// registered ERC rules and the cached report are bound to the word they
// were built for.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/Ternary.h"
#include "erc/Checker.h"
#include "hier/Elaborate.h"
#include "tcam/Calibration.h"
#include "tcam/Harness.h"
#include "tcam/Metrics.h"

namespace nemtcam::tcam {

// Facts a design's array_rules hook needs to register its ERC rules for
// one row of an ArrayTemplate (a SearchTemplate's is row 0 of one).
struct ArrayRowContext {
  erc::Checker& checker;
  spice::NodeId ml;
  spice::NodeId vdd;
  int row = 0;
  int width = 0;
  // Instance-path prefix of this row's cells: cell c lives at
  // "<scope>Xcell<c>" — scope is "" in a one-row template, "Xrow<r>." in
  // an N-row one.
  std::string scope;
};

struct SearchTemplateSpec {
  Calibration cal;  // possibly a locally adjusted copy (e.g. MRAM window)
  CellGeometry geo;
  // SL loading each stand-in row's cell adds beyond the wire (e.g. the
  // SRAM compare-stack gates hang directly on the searchlines; the NVM
  // cells present only small electrode stubs).
  double c_sl_gate_per_row = 0.0;

  // Nominal sense-strobe delay at the reference 64-bit width; see
  // width_scaled_strobe for other widths.
  double t_strobe = 0.0;

  // Extra ML loading per cell beyond the wire parasitics the fixture
  // already models (e.g. the RRAM MIM electrode plates).
  double c_ml_load_per_cell = 0.0;

  // Per-column cell, elaborated by the kind's search and by its write
  // (WriteTemplate). Ports are bound by name (PortNets): a search binds
  // "ml", "vdd", "sl", "slb" to the fixture nets (sl/slb per column) and
  // the names shared_rails returns to those rails; a write binds the nets
  // of the kind's WriteTemplateSpec. Anything else binds to ground — which
  // is how one all-ports cell definition serves both the search (bitlines
  // and wordline grounded) and the write (matchline grounded) of every
  // design.
  hier::SubcktDef cell;

  // Optional: builds design-specific rails shared by every cell — and, in
  // an array, by every row (read biases, always-on read wordlines). The
  // returned names become bindable cell ports.
  std::function<std::map<std::string, spice::NodeId>(spice::Circuit&,
                                                     spice::NodeId vdd)>
      shared_rails;

  // Seeds one elaborated cell with a stored trit: device-state pokes and
  // node ICs. Runs on the first build and on every replay (after
  // Circuit::reset_device_states), so it must write every IC it owns —
  // zeros included, or a replay inherits the previous word's level.
  std::function<void(spice::Circuit&, const hier::InstanceHandles&,
                     core::Ternary)>
      bind;

  // Optional: registers design-specific ERC rules for one row (first
  // build only; the fixture caches the report for replays). Rules that
  // inspect the whole circuit rather than one row's devices (the relay
  // refresh window) should register only for row 0.
  std::function<void(const ArrayRowContext&, const core::TernaryWord& stored)>
      array_rules;
};

// The sense strobe of a `width`-bit row from the 64-bit reference strobe:
// the ML time constant has a width-proportional wire/junction part and a
// fixed part (sense amp, precharge junction), so it shrinks sub-linearly.
inline double width_scaled_strobe(double t_strobe, int width) {
  return t_strobe * (0.25 + 0.75 * static_cast<double>(width) / 64.0);
}

class ArrayTemplate;

class SearchTemplate {
 public:
  SearchTemplate(SearchTemplateSpec spec, int width, int array_rows);
  ~SearchTemplate();

  SearchMetrics search(const core::TernaryWord& key,
                       const core::TernaryWord& stored, double strobe_delay);

  // Guarantees the circuit exists and is aimed at (key, stored) — building
  // or rebinding exactly as search() would — without running a transient.
  // The lifetime engine calls this, then mutates device parameters in
  // place (aging setters, fault injection) before search() replays; the
  // mutations survive because replays never rebuild for an unchanged word.
  void ensure_built(const core::TernaryWord& key,
                    const core::TernaryWord& stored);

  // The elaborated circuit, for in-place device mutation between replays.
  // Null until the first build/ensure_built.
  spice::Circuit* circuit() noexcept;

  // How many times the underlying circuit was (re)built — for the
  // zero-reconstruction assertions.
  std::uint64_t builds() const noexcept;

  const SearchTemplateSpec& spec() const noexcept;

  // Nominal sense strobe for this row's width.
  double default_strobe() const;
  // Time of the SL edge every strobe delay is measured from. Valid once
  // the circuit is built (circuit() non-null).
  double t_edge() const;

 private:
  std::unique_ptr<ArrayTemplate> arr_;
};

}  // namespace nemtcam::tcam
