// Glue between the tcam calibration/metrics layer and the sta:: engine,
// for callers that ask for bounds: derives StaOptions from a Calibration
// plus the search's strobe (the STA margin rules every template build
// registers use it too), and folds a full StaReport down to one
// matchline's StaSummary. A search computes no bounds; a caller that
// checks them runs the STA pass (sta/Sta.h) over the searched circuit
// with these options and folds the report per matchline. Kept out of
// Harness.h so Metrics.h stays free of sta includes.
#pragma once

#include <string>

#include "sta/Sta.h"
#include "tcam/Calibration.h"
#include "tcam/Metrics.h"

namespace nemtcam::tcam {

// Analysis options matching how the search fixtures drive the circuit:
// the calibration's rails, precharge window and sense level, the caller's
// strobe delay, and the refresh cadence (0 = refresh-window rule silent).
sta::StaOptions sta_options_for(const Calibration& cal, double strobe_delay);

// Collapses a report to the single-matchline summary for `ml_node`
// (bounds of that ML, whole-circuit energy band, worst line/retention).
StaSummary sta_summary_from(const sta::StaReport& rep,
                            const std::string& ml_node);

}  // namespace nemtcam::tcam
