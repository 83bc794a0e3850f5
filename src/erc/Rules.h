// Built-in ERC rule passes.
//
// Rule catalog (see DESIGN.md §8 for the full table):
//   connect.dangling        E  node touched by exactly one device terminal
//   connect.island          E  component with no path to ground or a source
//   connect.no-dc-path      E  node with no DC-conductive route to ground
//   dc.structural-singular  E  DC stamp pattern is structurally rank-
//                              deficient (capacitor-only cut set, sense-
//                              only node, …) — the MNA matrix is singular
//                              for every value assignment
//   value.*                 E/W non-physical device parameters (negative
//                              R/C/L, V_PO ≥ V_PI hysteresis inversion,
//                              inverted memory windows, …)
//
// Each pass appends findings; none throws. The connectivity pass returns
// the set of nodes it already attributed so the structural pass can
// suppress duplicate attributions of the same defect.
#pragma once

#include <vector>

#include "erc/NodeGraph.h"
#include "erc/Report.h"
#include "spice/Circuit.h"

namespace nemtcam::erc {

// Dangling terminals, ground/source-less islands, nodes with no DC path to
// ground. Returns per-node flags (indexed by NodeId) for nodes already
// covered by a finding.
std::vector<char> check_connectivity(const NodeGraph& graph, Report& report);

// Structural-rank pass over the DC stamp pattern (gmin-free): one finding
// per unknown spice::dc_undetermined_unknowns flags (the Dulmage–
// Mendelsohn-style matching from linalg::structural_rank). Nodes flagged
// in `already_attributed` are skipped — the connectivity pass already
// named them. Needs a mutable circuit because devices stamp through their
// non-const hook (state is not modified: only commit() advances state).
void check_dc_structure(spice::Circuit& circuit, const NodeGraph& graph,
                        const std::vector<char>& already_attributed,
                        Report& report);

// Per-device parameter lint (negative R/C/L, relay hysteresis inversion,
// inverted RRAM/FeFET/MTJ windows, non-positive MOS transconductance, …).
void check_values(const spice::Circuit& circuit, Report& report);

}  // namespace nemtcam::erc
