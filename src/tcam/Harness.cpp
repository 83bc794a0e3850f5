#include "tcam/Harness.h"

#include "spice/Waveform.h"

namespace nemtcam::tcam {

using spice::NodeId;
using spice::PwlWave;

std::unique_ptr<spice::Waveform> step_wave(double v0, double v1,
                                           double t_edge) {
  return std::make_unique<PwlWave>(std::vector<std::pair<double, double>>{
      {0.0, v0}, {t_edge, v0}, {t_edge + 20e-12, v1}});
}

SearchlineLevels searchline_levels(core::Ternary key_trit, double vdd) {
  return {key_trit == core::Ternary::One ? vdd : 0.0,
          key_trit == core::Ternary::Zero ? vdd : 0.0};
}

hier::InstanceHandles elaborate_cell(spice::Circuit& ckt,
                                     const hier::SubcktDef& cell,
                                     const std::string& scope,
                                     const PortNets& nets, int col,
                                     const hier::ParamEnv& env) {
  std::vector<NodeId> ports;
  ports.reserve(cell.ports.size());
  for (const std::string& p : cell.ports) {
    if (const auto it = nets.columns.find(p); it != nets.columns.end())
      ports.push_back(it->second.at(static_cast<std::size_t>(col)));
    else if (const auto jt = nets.row.find(p); jt != nets.row.end())
      ports.push_back(jt->second);
    else
      ports.push_back(spice::kGround);  // unused in this transaction
  }
  static const hier::Library kEmptyLib;
  return hier::elaborate(ckt, kEmptyLib, cell, scope, ports, env);
}

}  // namespace nemtcam::tcam
