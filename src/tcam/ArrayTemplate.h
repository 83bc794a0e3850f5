// Search transactions on column-coupled TCAM arrays, from one row up.
//
// ArrayTemplate elaborates `rows` rows of real cells — matchlines with
// their own precharge devices, one cell per column, and shared
// searchline pairs modelled as segmented RC ladders that every row taps —
// so the simulated rows load the SL drivers at once and evaluate the key
// in parallel, coupling through the lines exactly as the tiled silicon
// would. The searchlines model a column `column_rows` cells tall: the
// rows not simulated stand in as lumped load on each line's driven head
// section. A full array simulates every row of its column; a row search
// (SearchTemplate) is the one-row case, the paper's per-row methodology
// with the other rows of its 64×64 array as line load.
//
// The whole circuit is one MNA system: the circuit's AssemblyCache
// replays the fixed stamp pattern and refactors one monolithic SparseLu
// per Newton iteration, reusing its symbolic analysis across iterations,
// time steps and replayed searches.
//
// Elaborate once, replay many: a key change rebinds the driver
// waveforms, a store of the same words re-seeds device state; only a
// different stored image rebuilds. A replay resumes at the SL edge from
// the checkpoint the last full run took there, since nothing before the
// edge depends on the key (ArrayFixture::run), and reports exactly what
// a full run reports. An N-row template scopes row r's
// hardware by row ("ml<r>", cells "Xrow<r>.Xcell<c>.<card>"); a one-row
// template names it unscoped ("ml", "Xcell<c>.<card>"), the single-row
// names the fault injector reads as any row. The ERC rules and the fault
// injector address cells through the same scopes.
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
  // Read only by perfbench/driver.cpp; remove at the next benchmark change.
  util::ThreadPool* pool = nullptr;
};

// Per-matchline outcome of one array search.
struct ArrayRowResult {
  bool matched = false;  // ML above the sense level at the strobe
  double latency = 0.0;  // SL edge → ML crossing the sense level (s)
  double ml_final = 0.0;
  double ml_min = 0.0;  // minimum after the SL edge
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
  // Always empty. Read only by perfbench/driver.cpp; remove at the next
  // benchmark change.
  StaSummary sta;
  std::string note;
};

// Design-independent array scaffolding: VDD/precharge rails, `rows`
// matchlines with precharge PMOS and wire parasitics, `width` segmented
// SL/SL̄ ladders driven per the key. The template adds each row's cells on
// top. Each SL/SL̄ runs as min(2, rows) RC sections (per-cell wire R and C
// from the Calibration), rows tapping their nearest section node. The
// ladders model a column of `column_rows` ≥ rows cells; the
// column_rows − rows stand-in rows load each line's driven head section
// with their wire C plus spec.c_sl_gate_per_row each.
class ArrayFixture {
 public:
  ArrayFixture(const SearchTemplateSpec& spec, int rows, int width,
               const core::TernaryWord& key, int column_rows);
  // The checkpoint's run points at circuit_: the fixture stays put.
  ArrayFixture(const ArrayFixture&) = delete;
  ArrayFixture& operator=(const ArrayFixture&) = delete;

  spice::Circuit& circuit() noexcept { return circuit_; }
  spice::NodeId vdd() const noexcept { return vdd_; }
  spice::NodeId ml(int row) const {
    return ml_.at(static_cast<std::size_t>(row));
  }
  // Matchline node names, by row (the STA probes).
  const std::vector<std::string>& ml_names() const noexcept {
    return ml_names_;
  }
  // Name of row `row`'s copy of a per-row part: `base` alone in a one-row
  // fixture, `base` + row otherwise ("Cml" / "Cml3").
  std::string row_name(const std::string& base, int row) const;
  // Instance-path prefix of row `row`'s cells: "" in a one-row fixture,
  // "Xrow<row>." otherwise.
  std::string scope(int row) const;
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
  // Runs the ERC pass over the assembled circuit once and caches it.
  const erc::Report& check();

  // ERC gate (errors → no transient, the cached report as the failure
  // text) + transient over the search timeline, probing every matchline.
  //
  // Until t_edge no searchline moves, whatever the key (rebind_key), so
  // the transient up to t_edge depends only on the circuit's state at
  // t = 0 and the solver cache's LU pivot order. A run checkpoints itself
  // there: the engine's loop state (spice::TransientRun) and every
  // device's dynamic state. A later run resumes from the checkpoint when
  // all three hold:
  //  - the circuit's state digest at t = 0 (Circuit::state_digest: every
  //    device's parameters and dynamic state after the reset and the
  //    binders, and the initial conditions) equals the one the
  //    checkpoint was captured from, so a fault, aging or variation edit,
  //    an IC change or state a reset does not clear (a stuck relay's gate
  //    charge) forces a full run;
  //  - the solver cache still holds the pivot order the checkpoint's
  //    prefix was solved with (AssemblyCache::pivot_order): no pattern
  //    build or full factorization since the capture, and none in the
  //    capturing run between its first factorization and t_edge;
  //  - the capturing run reached t_edge.
  // The resumed run reports the whole transient, prefix included, exactly
  // as a full run would: every figure and counter is bit-identical.
  spice::TransientResult run();

  // Re-aims all 2M searchline drivers at a new key (waveform rebind; no
  // topology change, the stamp pattern and symbolic LU survive). The
  // checkpoint in run() rests on this being the only rebind and on every
  // driver being step_wave(0, v, t_edge): 0 V until t_edge, with the same
  // breakpoints for every key.
  void rebind_key(const core::TernaryWord& key);

  // Interprets the run. Row r matched when its ML is still above the
  // sense level at the strobe (t_edge + strobe_delay); its latency is the
  // SL-edge → ML-crossing time when the ML crossed. It reads the transient
  // only: a caller that wants the closed-form STA bounds runs the STA pass
  // (sta/Sta.h) over circuit() with the ml_names() probes
  // (tcam/StaBridge.h).
  ArraySearchMetrics metrics(const spice::TransientResult& result,
                             double strobe_delay);

 private:
  Calibration cal_;  // by value: rows may pass a locally adjusted copy
  int rows_ = 0;
  int width_ = 0;
  int n_segments_ = 1;
  erc::Checker checker_;
  std::optional<erc::Report> report_;
  spice::Circuit circuit_;
  spice::NodeId vdd_{};
  std::vector<spice::NodeId> ml_;
  std::vector<std::string> ml_names_;
  // Ladder nodes, [col * n_segments_ + segment]; segment 0 carries the
  // driver.
  std::vector<spice::NodeId> sl_;
  std::vector<spice::NodeId> slb_;
  std::vector<int> seg_of_row_;
  double t_edge_ = 0.0;
  double t_end_ = 0.0;

  // The last full run's state at t_edge (see run()). A digest of the
  // t = 0 image, not the image: keeping one per template costs memory
  // the digest does not.
  struct Checkpoint {
    spice::TransientRun run;
    std::vector<double> device_states;
    util::Digest128 image;
    std::uint64_t pivot_order;
  };
  std::optional<Checkpoint> checkpoint_;
};

// Elaborate-once / replay-many array of `rows` rows, built from the
// per-kind SearchTemplateSpec (RowSpecs.h factories): the spec's cells,
// binder and ERC hooks — its array_rules run once per row with the row's
// scope and matchline. `column_rows` ≥ rows is the height of the column
// the searchlines model (0: rows); see ArrayFixture.
class ArrayTemplate {
 public:
  ArrayTemplate(SearchTemplateSpec spec, int rows, int width,
                ArrayOptions opt = {}, int column_rows = 0);

  int rows() const noexcept { return rows_; }

  // Replaces row `row`'s stored word. The next search rebuilds the
  // template (ERC rules and cached report are bound to the stored image).
  void store(int row, const core::TernaryWord& word);
  const core::TernaryWord& stored(int row) const {
    return stored_.at(static_cast<std::size_t>(row));
  }

  // Guarantees the circuit exists and is aimed at `key` over the stored
  // image — building or rebinding exactly as search() would — without
  // running a transient. Device mutations made after it (aging, fault
  // injection) survive into search(), which never rebuilds for an
  // unchanged image.
  void ensure_built(const core::TernaryWord& key);

  // Searches every row against `key` in one coupled transient.
  // strobe_delay < 0 → the spec's nominal strobe scaled for this width.
  ArraySearchMetrics search(const core::TernaryWord& key,
                            double strobe_delay = -1.0);

  // Nominal sense strobe for this width.
  double default_strobe() const {
    return width_scaled_strobe(spec_.t_strobe, width_);
  }
  // Time of the SL edge every strobe delay is measured from; valid once
  // built.
  double t_edge() const { return fx_->t_edge(); }

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
  int column_rows_;
  std::unique_ptr<ArrayFixture> fx_;
  std::vector<std::vector<hier::InstanceHandles>> cells_;  // [row][col]
  std::vector<core::TernaryWord> stored_;
  core::TernaryWord built_key_;
  std::vector<core::TernaryWord> built_stored_;
  std::uint64_t builds_ = 0;
};

}  // namespace nemtcam::tcam
