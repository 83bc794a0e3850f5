// Circuit-level TCAM row simulator interface.
//
// A TcamRow models one word-row of `width` cells embedded in an array of
// `array_rows` rows: vertical lines (BL/SL) carry the parasitic load of the
// full column height, horizontal lines (ML/WL) the load of the full row
// width — matching the paper's "per-row measurement on a 64×64 array with
// line parasitics scaled by cell size" methodology.
//
// Every transaction (write / search / refresh) runs a transient analysis
// on a transistor-level netlist seeded from the currently stored word;
// metrics come from the waveforms and device state telemetry, exactly like
// .measure on a SPICE deck. Searches, writes and refreshes elaborate the
// kind's cell (tcam/RowSpecs.h) into a template once and replay it. A
// search's SearchTemplate rebinds the searchline drivers for a new key and
// rebuilds for a new stored word; a write's WriteTemplate rebinds the
// write drivers to each (old, new) word pair; the 3T2N one-shot refresh
// replays two WriteTemplates of its cell (Nem3T2NRow::refresh_at).
#pragma once

#include <memory>
#include <string>

#include "core/Ternary.h"
#include "tcam/Calibration.h"
#include "tcam/Metrics.h"

namespace nemtcam::spice {
class Circuit;
}

namespace nemtcam::tcam {

using core::Ternary;
using core::TernaryWord;

// The paper's evaluated designs (Fig. 2 + the 3T2N contribution), plus two
// designs it describes but does not benchmark: the conventional 5T dynamic
// CMOS TCAM of ref [4] (the intro's row-by-row-refresh baseline) and the
// 4T2F FeFET TCAM of Fig. 2(c).
enum class TcamKind {
  Sram16T, Nem3T2N, Rram2T2R, Fefet2F,  // the paper's evaluated designs
  Dtcam5T, Fefet4T2F, Mram4T2M,         // designs it describes (Fig. 2 / §I-II)
};

const char* kind_name(TcamKind k);

class SearchTemplate;
class WriteTemplate;

class TcamRow {
 public:
  virtual ~TcamRow();  // out-of-line: the templates are incomplete here

  virtual TcamKind kind() const = 0;
  int width() const noexcept { return width_; }
  int array_rows() const noexcept { return array_rows_; }
  const Calibration& cal() const noexcept { return cal_; }

  // Establishes the stored word instantly (device-state poke, no transaction
  // simulated). Used to set up search experiments.
  void store(const TernaryWord& word);

  const TernaryWord& stored() const noexcept { return stored_; }

  // Simulates the full write transaction replacing the stored word, on the
  // kind's WriteTemplate (elaborated on the first write). On success the
  // stored word is updated.
  WriteMetrics write(const TernaryWord& word);

  // Simulates a search against the stored word at the kind's width-scaled
  // sense strobe (SearchTemplate::default_strobe).
  SearchMetrics search(const TernaryWord& key);

 protected:
  TcamRow(int width, int array_rows, const Calibration& cal);

  // In-place device-parameter edits on the search circuit, applied after
  // the template is built or rebound and before every replay (the RRAM
  // row's resistance variation). The default edits nothing.
  virtual void rebind_devices(spice::Circuit&) {}

  TernaryWord stored_;

 private:
  // Elaborated from search_spec_for(kind(), cal()) on the first search.
  std::unique_ptr<SearchTemplate> search_tpl_;
  // Elaborated from the same cell and write_spec_for(kind(), cal()) on the
  // first write.
  std::unique_ptr<WriteTemplate> write_tpl_;
  int width_;
  int array_rows_;
  Calibration cal_;
};

// Factory.
std::unique_ptr<TcamRow> make_row(TcamKind kind, int width, int array_rows,
                                  const Calibration& cal = Calibration::standard());

}  // namespace nemtcam::tcam
