#include "tcam/Harness.h"

#include <chrono>

#include "devices/Mosfet.h"
#include "devices/Passive.h"
#include "devices/Sources.h"
#include "erc/TcamRules.h"
#include "spice/Waveform.h"
#include "sta/Sta.h"
#include "tcam/StaBridge.h"

namespace nemtcam::tcam {

using namespace nemtcam::devices;
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

NodeId add_driven_line(spice::Circuit& c, const Calibration& cal,
                       const std::string& name, double c_line, double v0,
                       double v1, double t_edge) {
  const NodeId n = c.node(name);
  c.add<VSource>("Vdrv_" + name, n, c.ground(), step_wave(v0, v1, t_edge),
                 cal.r_line_driver);
  c.add<Capacitor>("Cline_" + name, n, c.ground(),
                   c_line + cal.c_driver_load);
  return n;
}

SearchFixture::SearchFixture(const Calibration& cal, const CellGeometry& geo,
                             int width, int array_rows,
                             const core::TernaryWord& key,
                             double c_sl_gate_per_row)
    : cal_(cal) {
  NEMTCAM_EXPECT(static_cast<int>(key.size()) == width);
  t_edge_ = cal.t_precharge + 50e-12;
  t_end_ = t_edge_ + cal.t_search_window;

  vdd_ = circuit_.node("vdd");
  circuit_.add<VSource>("Vdd", vdd_, circuit_.ground(), cal.vdd);
  circuit_.set_ic(vdd_, cal.vdd);

  // Matchline: wire parasitics scale with the row width; the sense-amp
  // input load is added on top. Junction loading comes from the attached
  // cell devices themselves.
  ml_ = circuit_.node("ml");
  const double c_ml =
      width * cal.c_hline_per_cell(geo) + cal.c_ml_sense_load;
  circuit_.add<Capacitor>("Cml", ml_, circuit_.ground(), c_ml);

  // Precharge PMOS: on (gate low) during [0, t_precharge], then off.
  const NodeId pchgb = circuit_.node("pchgb");
  circuit_.add<VSource>("Vpchgb", pchgb, circuit_.ground(),
                        step_wave(0.0, cal.vdd, cal.t_precharge));
  circuit_.add<Mosfet>("Mpchg", ml_, pchgb, vdd_,
                       MosfetParams::pmos_lp(cal.w_precharge));

  // Searchlines: column-height wire load plus per-row cell loading,
  // driven per the key at t_edge.
  const double c_sl = array_rows * cal.c_vline_per_cell(geo) +
                      (array_rows - 1) * c_sl_gate_per_row;
  sl_.reserve(static_cast<std::size_t>(width));
  slb_.reserve(static_cast<std::size_t>(width));
  for (int i = 0; i < width; ++i) {
    const SearchlineLevels v =
        searchline_levels(key[static_cast<std::size_t>(i)], cal.vdd);
    sl_.push_back(add_driven_line(circuit_, cal, "sl" + std::to_string(i),
                                  c_sl, 0.0, v.sl, t_edge_));
    slb_.push_back(add_driven_line(circuit_, cal, "slb" + std::to_string(i),
                                   c_sl, 0.0, v.slb, t_edge_));
  }

  checker_.add_rule(erc::ml_precharge_rule(ml_, vdd_));
}

PortNets SearchFixture::port_nets() const {
  return {{{"ml", ml_}, {"vdd", vdd_}}, {{"sl", sl_}, {"slb", slb_}}};
}

void SearchFixture::rebind_key(const core::TernaryWord& key) {
  NEMTCAM_EXPECT(key.size() == sl_.size());
  for (std::size_t i = 0; i < sl_.size(); ++i) {
    const SearchlineLevels v = searchline_levels(key[i], cal_.vdd);
    const std::string sfx = std::to_string(i);
    NEMTCAM_EXPECT(circuit_.rebind_source("Vdrv_sl" + sfx,
                                          step_wave(0.0, v.sl, t_edge_)));
    NEMTCAM_EXPECT(circuit_.rebind_source("Vdrv_slb" + sfx,
                                          step_wave(0.0, v.slb, t_edge_)));
  }
}

const erc::Report& SearchFixture::check() {
  if (!report_.has_value()) report_ = checker_.run(circuit_);
  return *report_;
}

spice::TransientResult SearchFixture::run() {
  if (erc::default_enforce()) {
    const erc::Report& rep = check();
    if (rep.has_errors()) {
      spice::TransientResult r;
      r.failure = "ERC failed before simulation\n" + rep.to_string();
      return r;
    }
  }
  spice::TransientOptions opts = spice::step_defaults(t_end_);
  // metrics() only reads the match line, so record just that node instead
  // of the full unknown vector (O(width) memory per step otherwise).
  opts.probe_nodes = {ml_};
  return spice::run_transient(circuit_, opts);
}

SearchMetrics SearchFixture::metrics(const spice::TransientResult& result,
                                     double strobe_delay) {
  SearchMetrics m;
  m.stamp_pattern_builds = circuit_.solver_cache().stats().pattern_builds;
  if (report_.has_value()) {
    m.erc_errors = report_->count(erc::Severity::Error);
    m.erc_warnings = report_->count(erc::Severity::Warning);
  }
  if (!result.finished) {
    m.note = "transient failed: " + result.failure;
    return m;
  }
  const spice::Trace ml_trace = result.node_trace(ml_);
  m.ml_final = ml_trace.back();
  // Only consider the evaluation window (after the SL edge).
  double ml_min = m.ml_final;
  for (std::size_t i = 0; i < ml_trace.size(); ++i) {
    if (ml_trace.times()[i] >= t_edge_)
      ml_min = std::min(ml_min, ml_trace.values()[i]);
  }
  m.ml_min = ml_min;
  m.energy = result.total_source_energy();
  m.steps = result.steps_taken;
  m.steps_rejected = result.steps_rejected;
  m.newton_iters = result.newton_iterations;

  const double ml_at_strobe = ml_trace.at(t_edge_ + strobe_delay);
  m.matched = ml_at_strobe > cal_.ml_sense_level;

  const auto cross =
      ml_trace.cross_time(cal_.ml_sense_level, /*rising=*/false, t_edge_);
  m.latency = cross.has_value() ? (*cross - t_edge_) : 0.0;
  m.ok = true;
  if (sta::default_enabled()) m.sta = sta_summary(strobe_delay);
  return m;
}

StaSummary SearchFixture::sta_summary(double strobe_delay) {
  const auto t0 = std::chrono::steady_clock::now();
  const sta::StaReport rep = sta::analyze(
      circuit_, {"ml"}, sta_options_for(cal_, strobe_delay));
  StaSummary s = sta_summary_from(rep, "ml");
  s.analysis_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return s;
}

}  // namespace nemtcam::tcam
