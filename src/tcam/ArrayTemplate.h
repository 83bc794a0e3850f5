// Column-coupled full-array search transactions.
//
// A SearchTemplate simulates one row against lumped stand-ins for the
// rest of the array. ArrayTemplate drops the stand-ins: it elaborates a
// true N×M array — N matchlines with their own precharge devices, N×M
// cells, and shared searchline pairs modelled as segmented RC ladders
// that every row taps — so all N rows load the SL drivers at once and
// evaluate the key in parallel, coupling through the lines exactly as
// the tiled silicon would.
//
// The whole array is one MNA system, solved like every row circuit: the
// circuit's AssemblyCache replays the fixed stamp pattern and refactors
// one monolithic SparseLu per Newton iteration, reusing its symbolic
// analysis across iterations, time steps and replayed searches.
//
// The elaborate-once / replay-many contract matches SearchTemplate:
// key changes rebind the driver waveforms, stored-word changes to the
// same words re-seed device state; only a different stored image
// rebuilds. Cell instance paths are "Xrow<r>.Xcell<c>.<card>" — the ERC
// rules and the fault injector address cells through the same two-level
// scope.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/Ternary.h"
#include "erc/Checker.h"
#include "spice/Circuit.h"
#include "spice/Transient.h"
#include "tcam/SearchTemplate.h"

namespace nemtcam::util {
class ThreadPool;
}

namespace nemtcam::tcam {

struct ArrayOptions {
  // Shared-searchline discretization: each SL/SL̄ runs as `sl_segments`
  // RC sections (per-cell wire R and C from the Calibration), rows
  // tapping their nearest section node. More segments → finer line
  // model, 2·M more unknowns per extra segment. Clamped to [1, N].
  int sl_segments = 2;
  // Run the ERC pass before the transient. Worth disabling for the very
  // large bench arrays: the rules walk the full device list per row.
  bool run_erc = true;
  // Read only by perfbench/driver.cpp; remove at the next benchmark change.
  util::ThreadPool* pool = nullptr;
};

// Per-matchline outcome of one array search.
struct ArrayRowResult {
  bool matched = false;  // ML above the sense level at the strobe
  double latency = 0.0;  // SL edge → ML crossing the sense level (s)
  double ml_final = 0.0;
  double ml_min = 0.0;  // minimum after the SL edge
  // This row's static bounds from the whole-array STA pass (the energy
  // band and line/retention worst cases repeat the array-level figures).
  StaSummary sta;
};

struct ArraySearchMetrics {
  bool ok = false;
  std::vector<ArrayRowResult> rows;
  int match_count = 0;
  double energy = 0.0;  // whole-array net source energy (J)
  // Solver-effort telemetry.
  std::size_t steps = 0;
  std::size_t steps_rejected = 0;
  std::size_t newton_iters = 0;
  std::size_t erc_errors = 0;
  std::size_t erc_warnings = 0;
  std::size_t stamp_pattern_builds = 0;  // replay ⇒ unchanged
  // Read only by perfbench/driver.cpp; remove at the next benchmark change.
  std::size_t bbd_blocks = 0, bbd_border = 0;
  // Array-level STA aggregate: timing bounds span every discharging row
  // (t_lo = earliest, t_hi = latest), margin/v_strobe come from the row
  // closest to the sense threshold, energy band covers the whole array.
  StaSummary sta;
  std::string note;
};

// Design-independent array scaffolding: VDD/precharge rails, N matchlines
// with precharge PMOS and wire parasitics, M segmented SL/SL̄ ladders
// driven per the key. The template adds each row's cells on top.
class ArrayFixture {
 public:
  ArrayFixture(const Calibration& cal, const CellGeometry& geo, int rows,
               int width, const core::TernaryWord& key,
               const ArrayOptions& opt);

  spice::Circuit& circuit() noexcept { return circuit_; }
  int rows() const noexcept { return rows_; }
  int width() const noexcept { return width_; }
  spice::NodeId vdd() const noexcept { return vdd_; }
  spice::NodeId ml(int row) const {
    return ml_.at(static_cast<std::size_t>(row));
  }
  // The searchline tap row `row` connects to: the RC-ladder section node
  // nearest that row.
  spice::NodeId sl(int row, int col) const;
  spice::NodeId slb(int row, int col) const;
  // The nets row `row`'s cell ports bind to: its ml, vdd, and its taps of
  // each column's sl/slb.
  PortNets port_nets(int row) const;
  double t_edge() const noexcept { return t_edge_; }
  double t_end() const noexcept { return t_end_; }

  erc::Checker& checker() noexcept { return checker_; }
  const erc::Report& check();

  // ERC gate (when enabled) + transient over the search timeline, probing
  // every matchline.
  spice::TransientResult run();

  // Re-aims all 2M searchline drivers at a new key (waveform rebind; no
  // topology change, the stamp pattern and symbolic LU survive).
  void rebind_key(const core::TernaryWord& key);

  ArraySearchMetrics metrics(const spice::TransientResult& result,
                             double strobe_delay);

 private:
  Calibration cal_;
  ArrayOptions opt_;
  int rows_ = 0;
  int width_ = 0;
  int n_segments_ = 1;
  erc::Checker checker_;
  std::optional<erc::Report> report_;
  spice::Circuit circuit_;
  spice::NodeId vdd_{};
  std::vector<spice::NodeId> ml_;
  // [col][segment] ladder nodes; segment 0 carries the driver.
  std::vector<std::vector<spice::NodeId>> sl_seg_;
  std::vector<std::vector<spice::NodeId>> slb_seg_;
  std::vector<int> seg_of_row_;
  std::vector<int> rows_in_seg_;
  double c_vline_ = 0.0;  // per-cell vertical-wire C (F)
  double r_vline_ = 0.0;  // per-cell vertical-wire R (Ω)
  double t_edge_ = 0.0;
  double t_end_ = 0.0;

  std::vector<spice::NodeId> build_ladder(const std::string& name,
                                          double v_drive);
};

// Elaborate-once / replay-many N×M array built from the same per-kind
// SearchTemplateSpec a single-row SearchTemplate uses (RowSpecs.h
// factories): same cells, same binder, same ERC hooks — the spec's
// array_rules run once per row with the row's scope and matchline.
class ArrayTemplate {
 public:
  ArrayTemplate(SearchTemplateSpec spec, int rows, int width,
                ArrayOptions opt = {});

  int rows() const noexcept { return rows_; }
  int width() const noexcept { return width_; }

  // Replaces row `row`'s stored word. The next search rebuilds the
  // template (ERC rules and cached report are bound to the stored image).
  void store(int row, const core::TernaryWord& word);
  const core::TernaryWord& stored(int row) const {
    return stored_.at(static_cast<std::size_t>(row));
  }

  // Searches every row against `key` in one coupled transient.
  // strobe_delay < 0 → the spec's nominal strobe scaled for this width.
  ArraySearchMetrics search(const core::TernaryWord& key,
                            double strobe_delay = -1.0);

  // Nominal sense strobe for this width.
  double default_strobe() const {
    return width_scaled_strobe(spec_.t_strobe, width_);
  }

  std::uint64_t builds() const noexcept { return builds_; }
  const SearchTemplateSpec& spec() const noexcept { return spec_; }
  // For telemetry assertions and in-place circuit mutation (fault
  // injection between searches); null before the first search.
  const ArrayFixture* fixture() const noexcept { return fx_.get(); }
  ArrayFixture* fixture() noexcept { return fx_.get(); }

 private:
  void build(const core::TernaryWord& key);

  SearchTemplateSpec spec_;
  int rows_;
  int width_;
  ArrayOptions opt_;
  std::unique_ptr<ArrayFixture> fx_;
  std::vector<std::vector<hier::InstanceHandles>> cells_;  // [row][col]
  std::vector<core::TernaryWord> stored_;
  core::TernaryWord built_key_;
  std::vector<core::TernaryWord> built_stored_;
  std::uint64_t builds_ = 0;
};

}  // namespace nemtcam::tcam
