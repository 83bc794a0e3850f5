// Elaborate-once / replay-many write transactions.
//
// A row's write drives the same per-column cell its search elaborates
// (SearchTemplateSpec::cell), with the ports bound by name to the write's
// nets instead of the search fixture's: row lines (wordline, supply, the
// RRAM's bipolar write line) and column lines (bitlines, program lines),
// each a source through its driver impedance onto its line capacitance.
// Ports the write does not name bind to ground — the matchline and
// searchlines of most designs. The design-specific parts (nets, timeline,
// drive waveforms, the per-cell verdict) come from the kind's
// WriteTemplateSpec (write_spec_for in tcam/RowSpecs.h; the 3T2N one-shot
// refresh is a write too, nem3t2n_refresh_spec).
//
// The constructor elaborates the circuit. Every write then rebinds each
// column driver to its (old, new) trit pair, resets device state, seeds
// the old word through the cell's binder and runs the transient. None of
// that bumps the topology revision, so the stamp pattern and symbolic LU
// carry over from write to write.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/Ternary.h"
#include "devices/Sources.h"
#include "spice/Transient.h"
#include "tcam/SearchTemplate.h"

namespace nemtcam::tcam {

// Every write asserts its drivers at this time (s).
inline constexpr double kWriteEdge = 0.1e-9;

// One driven net of the write circuit: a source through `r_drive` (0: an
// ideal source) onto a grounded line capacitance, bound to the cell port
// of the same name.
struct WriteNet {
  std::string port;
  bool per_column = false;  // one net per column; else one for the row
  // Line capacitance: c_per_cell for every cell the line spans (array_rows
  // for a column net, width for a row net) plus c_fixed (driver or sense
  // loading). No capacitor when the total is zero.
  double c_per_cell = 0.0;
  double c_fixed = 0.0;
  double r_drive = 0.0;
  // The drive of a column whose trit goes old → new; the net starts at the
  // waveform's t = 0 value. A row net drives every word alike: it is built
  // once, from (X, X).
  std::function<std::unique_ptr<spice::Waveform>(core::Ternary old_trit,
                                                 core::Ternary new_trit)>
      wave;
};

// The usual line nets: the line driver's impedance and load on the
// column's (or row's) wire capacitance, stepping from 0 V at kWriteEdge
// to `level` of the new trit (a column line) or at `t_edge` to `level` (a
// row line).
WriteNet column_line(std::string port, const Calibration& cal,
                     const CellGeometry& geo,
                     std::function<double(core::Ternary)> level);
WriteNet row_line(std::string port, const Calibration& cal,
                  const CellGeometry& geo, double level,
                  double t_edge = kWriteEdge);
// An ideal source held at `level`, with no line load (the SRAM cells'
// supply, the MRAM's 0 V write bitlines).
WriteNet held_net(std::string port, bool per_column, double level);

// Judges one cell of a finished write transient, recording each storage
// element through record_outcome.
using WriteCheck = std::function<void(
    const spice::TransientResult&, const hier::InstanceHandles& cell,
    core::Ternary old_trit, core::Ternary new_trit, WriteMetrics& m)>;

struct WriteTemplateSpec {
  std::vector<WriteNet> nets;
  double t_end = 0.0;  // transient length (s), run under spice::step_defaults

  // Overrides of the cell's parameter defaults, as an X card would give
  // them: a device the write sizes differently from the search.
  hier::ParamEnv params;

  // Optional: seeds one cell with its old trit. Empty uses the search
  // spec's bind; the contract is the same (write every IC it owns, zeros
  // included).
  std::function<void(spice::Circuit&, const hier::InstanceHandles&,
                     core::Ternary)>
      bind;

  WriteCheck check;
};

// Folds one storage element of `cell` (its local name) into a write's
// verdict: an element that missed its target fails the write and names
// itself in the note; one that reached it raises the latency to
// `t_settle`, its settle time after kWriteEdge (≤ 0: it did not move).
void record_outcome(WriteMetrics& m, const hier::InstanceHandles& cell,
                    const char* local, bool reached, double t_settle);

class WriteTemplate {
 public:
  WriteTemplate(const SearchTemplateSpec& cell_spec, WriteTemplateSpec spec,
                int width, int array_rows);

  // Writes `new_word` over `old_word` (the cells start in the old state).
  WriteMetrics write(const core::TernaryWord& old_word,
                     const core::TernaryWord& new_word);

  // The elaborated cells, column by column, for in-place device edits
  // between writes (the 3T2N refresh draws its relay thresholds here).
  const std::vector<hier::InstanceHandles>& cells() const noexcept {
    return cells_;
  }

 private:
  // One column net (an index into spec_.nets) and its source per column.
  struct ColumnDrivers {
    std::size_t net;
    std::vector<devices::VSource*> sources;
  };

  devices::VSource& add_net(const WriteNet& net, const std::string& name,
                            int cells_spanned);

  WriteTemplateSpec spec_;
  std::function<void(spice::Circuit&, const hier::InstanceHandles&,
                     core::Ternary)>
      bind_;
  spice::Circuit ckt_;
  std::vector<ColumnDrivers> columns_;
  std::vector<hier::InstanceHandles> cells_;
};

}  // namespace nemtcam::tcam
