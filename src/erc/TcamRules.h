// TCAM-specific design rules, registered per fixture by the row builders.
//
// These encode the paper's array-tiling invariants — the properties a
// correctly tiled row must satisfy before a search/write/refresh
// transaction is worth simulating:
//   tcam.ml-precharge     E  the matchline has a DC-conductive precharge
//                            path to the VDD rail
//   tcam.ml-fanin         W  the number of cell devices conductively
//                            loading the matchline differs from what the
//                            row geometry implies (a missing or doubled
//                            discharge transistor)
//   tcam.relay-pair       E  a 3T2N cell's complementary relay pair holds
//                            an illegal (S, S̄) state: both closed, or
//                            inconsistent with the stored word
//   tcam.x-encoding       E  a stored don't-care is not encoded OFF/OFF
//   tcam.refresh-window   E  the refresh level V_R is outside a relay's
//                            (V_PO, V_PI) hysteresis window, so one-shot
//                            refresh would destroy or flip stored data
//
// Each factory returns a Checker::CustomRule closure bound to the fixture
// facts (node ids, expected counts, the stored word) the builder knows.
#pragma once

#include <functional>
#include <string>

#include "core/Ternary.h"
#include "erc/Checker.h"

namespace nemtcam::erc {

// Maps a column index to a relay's device name — the cell's instance path,
// "Xcell<col>.N1" in a one-row template, "Xrow<r>.Xcell<col>.N1" in an
// array.
using RelayNamer = std::function<std::string(std::size_t col)>;

// ML must reach `vdd` over DC-conductive edges (the precharge device).
Checker::CustomRule ml_precharge_rule(spice::NodeId ml, spice::NodeId vdd);

// Conductive devices incident on the ML, excluding those also incident on
// `vdd` (the precharge path), must number `expected` (cells_per_column ×
// width discharge paths).
Checker::CustomRule ml_fanin_rule(spice::NodeId ml, spice::NodeId vdd,
                                  int expected);

// Complementary-pair and don't-care encoding consistency for 3T2N rows:
// the relays n1_name(col) / n2_name(col) must hold the (S, S̄) encoding of
// word[col] — One → (closed, open), Zero → (open, closed), X → (open,
// open). Relays pinned by fault injection (NemRelay::stuck()) are skipped:
// an injected defect is not a netlist bug. Missing devices are reported
// (the row is mis-tiled).
Checker::CustomRule nem_pair_rule(core::TernaryWord word, RelayNamer n1_name,
                                  RelayNamer n2_name);

// Every NEM relay's hysteresis window must contain v_refresh strictly:
// V_PO < V_R < V_PI (the one-shot-refresh hold condition).
Checker::CustomRule relay_refresh_window_rule(double v_refresh);

}  // namespace nemtcam::erc
