// Shared transaction scaffolding for the circuit-level TCAM templates:
// the line drivers' edge, the searchline levels of a key trit, and the
// binding of a cell's ports to a transaction's nets. The search fixture
// itself is ArrayFixture (ArrayTemplate.h), the write's WriteTemplate.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/Ternary.h"
#include "hier/Elaborate.h"
#include "spice/Circuit.h"

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

}  // namespace nemtcam::tcam
