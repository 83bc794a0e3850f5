// Per-design transaction specs, factored out of the row classes so every
// consumer elaborates the same cell against the same hooks:
//   - ArrayTemplate tiles rows of real cells on shared column lines, the
//     rows of the column it does not simulate standing in as line load:
//     N rows for the column-coupled full-array path, one for a row search
//     (SearchTemplate, TcamRow's per-row methodology), and
//   - WriteTemplate drives one row's cells from its write lines (the 3T2N
//     one-shot refresh is a write of the stored word over itself).
// Each search factory captures everything design-specific — the cell
// SubcktDef, the state binder, shared rails, ML loading, strobe timing, ERC
// rules — in one SearchTemplateSpec; each write factory adds the write's
// nets, timeline, drive waveforms and verdict in a WriteTemplateSpec. The
// templates stay design-agnostic.
#pragma once

#include <string>

#include "tcam/Fefet2FRow.h"
#include "tcam/SearchTemplate.h"
#include "tcam/TcamRow.h"
#include "tcam/WriteTemplate.h"

namespace nemtcam::tcam {

SearchTemplateSpec sram16t_search_spec(const Calibration& cal);
SearchTemplateSpec nem3t2n_search_spec(const Calibration& cal);
SearchTemplateSpec rram2t2r_search_spec(const Calibration& cal);
SearchTemplateSpec fefet2f_search_spec(const Calibration& cal);
SearchTemplateSpec dtcam5t_search_spec(const Calibration& cal);
SearchTemplateSpec fefet4t2f_search_spec(const Calibration& cal);
SearchTemplateSpec mram4t2m_search_spec(const Calibration& cal);

WriteTemplateSpec sram16t_write_spec(const Calibration& cal);
WriteTemplateSpec nem3t2n_write_spec(const Calibration& cal);
WriteTemplateSpec rram2t2r_write_spec(const Calibration& cal);
WriteTemplateSpec fefet2f_write_spec(const Calibration& cal);
WriteTemplateSpec dtcam5t_write_spec(const Calibration& cal);
WriteTemplateSpec fefet4t2f_write_spec(const Calibration& cal);
WriteTemplateSpec mram4t2m_write_spec(const Calibration& cal);

// The 3T2N one-shot refresh (Fig. 4) as a write of the stored word over
// itself: every bitline steps to `v_refresh` at kWriteEdge, the wordline
// to v_wl_write 0.5 ns later, and stored '1's start from `v_pre_one`. A
// cell passes when both relays kept their state; the latency is when
// every storage node has settled to within 5% of V_DD of `v_refresh`.
WriteTemplateSpec nem3t2n_refresh_spec(const Calibration& cal,
                                       double v_refresh, double v_pre_one);

// Dispatch by kind (the per-kind factories, nothing else).
SearchTemplateSpec search_spec_for(TcamKind kind, const Calibration& cal);
WriteTemplateSpec write_spec_for(TcamKind kind, const Calibration& cal);

// Write parts shared by the FeFET designs (2FeFET, 4T2F), which hold a
// trit as the polarizations of two FeFETs (Fefet2FRow::states_for): a
// column line that drives one device's gate to ±v_fefet_write by the new
// trit, and the check that a cell's devices `first` and `second` ended
// polarized toward their wanted V_th (a device that switched settles at
// its program/erase completion).
WriteNet fefet_program_line(std::string port, const Calibration& cal,
                            const CellGeometry& geo,
                            bool Fefet2FRow::FefetStates::*low_vth);
WriteCheck fefet_write_check(const char* first, const char* second);

}  // namespace nemtcam::tcam
