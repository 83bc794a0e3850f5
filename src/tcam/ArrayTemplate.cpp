#include "tcam/ArrayTemplate.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <utility>

#include "devices/Mosfet.h"
#include "devices/Passive.h"
#include "devices/Sources.h"
#include "erc/TcamRules.h"
#include "sta/Rules.h"
#include "sta/Sta.h"
#include "tcam/StaBridge.h"

namespace nemtcam::tcam {

using namespace nemtcam::devices;
using spice::NodeId;

ArrayFixture::ArrayFixture(const Calibration& cal, const CellGeometry& geo,
                           int rows, int width, const core::TernaryWord& key,
                           const ArrayOptions& opt)
    : cal_(cal), opt_(opt), rows_(rows), width_(width) {
  NEMTCAM_EXPECT(rows >= 1 && width >= 1);
  NEMTCAM_EXPECT(static_cast<int>(key.size()) == width);
  t_edge_ = cal.t_precharge + 50e-12;
  t_end_ = t_edge_ + cal.t_search_window;

  // Shared rails.
  vdd_ = circuit_.node("vdd");
  circuit_.add<VSource>("Vdd", vdd_, circuit_.ground(), cal.vdd);
  circuit_.set_ic(vdd_, cal.vdd);
  const NodeId pchgb = circuit_.node("pchgb");
  circuit_.add<VSource>("Vpchgb", pchgb, circuit_.ground(),
                        step_wave(0.0, cal.vdd, cal.t_precharge));

  // Row-to-segment map for the shared-line ladders.
  n_segments_ = std::clamp(opt.sl_segments, 1, rows);
  seg_of_row_.resize(static_cast<std::size_t>(rows));
  rows_in_seg_.assign(static_cast<std::size_t>(n_segments_), 0);
  for (int r = 0; r < rows; ++r) {
    const int s = static_cast<int>(
        (static_cast<long long>(r) * n_segments_) / rows);
    seg_of_row_[static_cast<std::size_t>(r)] = s;
    ++rows_in_seg_[static_cast<std::size_t>(s)];
  }

  // Searchline ladders: the column wire C that a single-row fixture lumps
  // onto one node is spread over the segments here (each section carries
  // its rows' worth of wire C and R); the cells' gate/electrode loading
  // is not added — every row is a real attached cell.
  c_vline_ = cal.c_vline_per_cell(geo);
  r_vline_ = cal.r_vline_per_cell(geo);
  sl_seg_.reserve(static_cast<std::size_t>(width));
  slb_seg_.reserve(static_cast<std::size_t>(width));
  for (int i = 0; i < width; ++i) {
    const SearchlineLevels v =
        searchline_levels(key[static_cast<std::size_t>(i)], cal.vdd);
    sl_seg_.push_back(build_ladder("sl" + std::to_string(i), v.sl));
    slb_seg_.push_back(build_ladder("slb" + std::to_string(i), v.slb));
  }

  // Per-row matchline hardware.
  const double c_ml = width * cal.c_hline_per_cell(geo) + cal.c_ml_sense_load;
  ml_.reserve(static_cast<std::size_t>(rows));
  for (int r = 0; r < rows; ++r) {
    const std::string sfx = std::to_string(r);
    const NodeId ml = circuit_.node("ml" + sfx);
    circuit_.add<Capacitor>("Cml" + sfx, ml, circuit_.ground(), c_ml);
    circuit_.add<Mosfet>("Mpchg" + sfx, ml, pchgb, vdd_,
                         MosfetParams::pmos_lp(cal.w_precharge));
    ml_.push_back(ml);
    checker_.add_rule(erc::ml_precharge_rule(ml, vdd_));
  }
}

std::vector<NodeId> ArrayFixture::build_ladder(const std::string& name,
                                               double v_drive) {
  std::vector<NodeId> ladder;
  ladder.reserve(static_cast<std::size_t>(n_segments_));

  const NodeId head = circuit_.node(name);
  circuit_.add<VSource>("Vdrv_" + name, head, circuit_.ground(),
                        step_wave(0.0, v_drive, t_edge_), cal_.r_line_driver);
  circuit_.add<Capacitor>(
      "Cline_" + name, head, circuit_.ground(),
      rows_in_seg_[0] * c_vline_ + cal_.c_driver_load);
  ladder.push_back(head);
  for (int s = 1; s < n_segments_; ++s) {
    const std::string seg = name + "_s" + std::to_string(s);
    const NodeId n = circuit_.node(seg);
    circuit_.add<Resistor>("Rline_" + seg, ladder.back(), n,
                           rows_in_seg_[static_cast<std::size_t>(s)] * r_vline_);
    circuit_.add<Capacitor>(
        "Cline_" + seg, n, circuit_.ground(),
        rows_in_seg_[static_cast<std::size_t>(s)] * c_vline_);
    ladder.push_back(n);
  }
  return ladder;
}

NodeId ArrayFixture::sl(int row, int col) const {
  return sl_seg_.at(static_cast<std::size_t>(col))
      .at(static_cast<std::size_t>(seg_of_row_.at(static_cast<std::size_t>(row))));
}

NodeId ArrayFixture::slb(int row, int col) const {
  return slb_seg_.at(static_cast<std::size_t>(col))
      .at(static_cast<std::size_t>(seg_of_row_.at(static_cast<std::size_t>(row))));
}

PortNets ArrayFixture::port_nets(int row) const {
  PortNets nets{{{"ml", ml(row)}, {"vdd", vdd_}}, {}};
  std::vector<NodeId>& sl_taps = nets.columns["sl"];
  std::vector<NodeId>& slb_taps = nets.columns["slb"];
  for (int c = 0; c < width_; ++c) {
    sl_taps.push_back(sl(row, c));
    slb_taps.push_back(slb(row, c));
  }
  return nets;
}

const erc::Report& ArrayFixture::check() {
  if (!report_.has_value()) report_ = checker_.run(circuit_);
  return *report_;
}

spice::TransientResult ArrayFixture::run() {
  if (opt_.run_erc && erc::default_enforce()) {
    const erc::Report& rep = check();
    if (rep.has_errors()) {
      spice::TransientResult r;
      r.failure = "ERC failed before simulation\n" + rep.to_string();
      return r;
    }
  }
  spice::TransientOptions opts = spice::step_defaults(t_end_);
  opts.probe_nodes = ml_;  // metrics only read the matchlines
  return spice::run_transient(circuit_, opts);
}

void ArrayFixture::rebind_key(const core::TernaryWord& key) {
  NEMTCAM_EXPECT(static_cast<int>(key.size()) == width_);
  for (int i = 0; i < width_; ++i) {
    const SearchlineLevels v =
        searchline_levels(key[static_cast<std::size_t>(i)], cal_.vdd);
    const std::string sfx = std::to_string(i);
    NEMTCAM_EXPECT(circuit_.rebind_source("Vdrv_sl" + sfx,
                                          step_wave(0.0, v.sl, t_edge_)));
    NEMTCAM_EXPECT(circuit_.rebind_source("Vdrv_slb" + sfx,
                                          step_wave(0.0, v.slb, t_edge_)));
  }
}

ArraySearchMetrics ArrayFixture::metrics(const spice::TransientResult& result,
                                         double strobe_delay) {
  ArraySearchMetrics m;
  m.stamp_pattern_builds = circuit_.solver_cache().stats().pattern_builds;
  if (report_.has_value()) {
    m.erc_errors = report_->count(erc::Severity::Error);
    m.erc_warnings = report_->count(erc::Severity::Warning);
  }
  if (!result.finished) {
    m.note = "transient failed: " + result.failure;
    return m;
  }
  m.energy = result.total_source_energy();
  m.steps = result.steps_taken;
  m.steps_rejected = result.steps_rejected;
  m.newton_iters = result.newton_iterations;

  m.rows.resize(static_cast<std::size_t>(rows_));
  for (int r = 0; r < rows_; ++r) {
    ArrayRowResult& rr = m.rows[static_cast<std::size_t>(r)];
    const spice::Trace tr = result.node_trace(ml_[static_cast<std::size_t>(r)]);
    rr.ml_final = tr.back();
    double ml_min = rr.ml_final;
    for (std::size_t i = 0; i < tr.size(); ++i) {
      if (tr.times()[i] >= t_edge_)
        ml_min = std::min(ml_min, tr.values()[i]);
    }
    rr.ml_min = ml_min;
    rr.matched = tr.at(t_edge_ + strobe_delay) > cal_.ml_sense_level;
    const auto cross =
        tr.cross_time(cal_.ml_sense_level, /*rising=*/false, t_edge_);
    rr.latency = cross.has_value() ? (*cross - t_edge_) : 0.0;
    if (rr.matched) ++m.match_count;
  }
  if (sta::default_enabled()) {
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::string> probes;
    probes.reserve(static_cast<std::size_t>(rows_));
    for (int r = 0; r < rows_; ++r)
      probes.push_back(circuit_.node_name(ml_[static_cast<std::size_t>(r)]));
    const sta::StaReport rep =
        sta::analyze(circuit_, probes, sta_options_for(cal_, strobe_delay));
    // Aggregate: timing band spans the rows STA predicts to discharge
    // (margin < 0) — matched rows only leak, their multi-ms "times" would
    // swamp the band. Margin comes from the row closest to the threshold.
    StaSummary agg;
    bool have_margin = false, have_band = false;
    for (int r = 0; r < rows_; ++r) {
      StaSummary& s = m.rows[static_cast<std::size_t>(r)].sta;
      s = sta_summary_from(rep, probes[static_cast<std::size_t>(r)]);
      if (!s.valid) continue;
      if (!agg.valid) agg = s;  // energy band / SL settle / retention are global
      if (!have_margin || std::abs(s.margin) < std::abs(agg.margin)) {
        agg.margin = s.margin;
        agg.v_strobe = s.v_strobe;
        have_margin = true;
      }
      if (s.margin < 0.0 && std::isfinite(s.t_nom) && s.t_nom > 0.0) {
        if (!have_band) {
          agg.t_lo = s.t_lo;
          agg.t_nom = s.t_nom;
          agg.t_hi = s.t_hi;
          have_band = true;
        } else {
          agg.t_lo = std::min(agg.t_lo, s.t_lo);
          agg.t_nom = std::max(agg.t_nom, s.t_nom);
          agg.t_hi = std::max(agg.t_hi, s.t_hi);
        }
      }
    }
    agg.analysis_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    m.sta = agg;
  }
  m.ok = true;
  return m;
}

ArrayTemplate::ArrayTemplate(SearchTemplateSpec spec, int rows, int width,
                             ArrayOptions opt)
    : spec_(std::move(spec)),
      rows_(rows),
      width_(width),
      opt_(opt),
      stored_(static_cast<std::size_t>(rows),
              core::TernaryWord(static_cast<std::size_t>(width),
                                core::Ternary::X)) {
  NEMTCAM_EXPECT(rows >= 1 && width >= 1);
  NEMTCAM_EXPECT(static_cast<bool>(spec_.bind));
  NEMTCAM_EXPECT(!spec_.cell.ports.empty());
}

void ArrayTemplate::store(int row, const core::TernaryWord& word) {
  NEMTCAM_EXPECT(static_cast<int>(word.size()) == width_);
  stored_.at(static_cast<std::size_t>(row)) = word;
}

void ArrayTemplate::build(const core::TernaryWord& key) {
  fx_ = std::make_unique<ArrayFixture>(spec_.cal, spec_.geo, rows_, width_,
                                       key, opt_);
  cells_.assign(static_cast<std::size_t>(rows_), {});
  spice::Circuit& ckt = fx_->circuit();

  std::map<std::string, NodeId> rails;
  if (spec_.shared_rails) rails = spec_.shared_rails(ckt, fx_->vdd());

  for (int r = 0; r < rows_; ++r) {
    const std::string row_scope = "Xrow" + std::to_string(r);
    auto& row_cells = cells_[static_cast<std::size_t>(r)];
    row_cells.reserve(static_cast<std::size_t>(width_));
    if (spec_.c_ml_load_per_cell > 0.0) {
      ckt.add<Capacitor>("Cel_ml" + std::to_string(r), fx_->ml(r),
                         ckt.ground(), width_ * spec_.c_ml_load_per_cell);
    }
    // The fixture's nets take precedence over a shared rail of the same name.
    PortNets nets = fx_->port_nets(r);
    nets.row.insert(rails.begin(), rails.end());
    for (int c = 0; c < width_; ++c)
      row_cells.push_back(elaborate_cell(
          ckt, spec_.cell, row_scope + ".Xcell" + std::to_string(c), nets, c,
          spec_.cell.params));
    if (spec_.array_rules)
      spec_.array_rules(
          ArrayRowContext{fx_->checker(), fx_->ml(r), fx_->vdd(), r, width_,
                          row_scope + "."},
          stored_[static_cast<std::size_t>(r)]);
  }
  // One STA margin-rule pass covers every matchline: the rules run over
  // the array as bound for the first search after the (re)build, at the
  // width-scaled nominal strobe.
  if (sta::default_enabled()) {
    std::vector<std::string> probes;
    probes.reserve(static_cast<std::size_t>(rows_));
    for (int r = 0; r < rows_; ++r) probes.push_back("ml" + std::to_string(r));
    fx_->checker().add_rule(sta::margin_rules(
        std::move(probes), sta_options_for(spec_.cal, default_strobe())));
  }
  built_key_ = key;
  built_stored_ = stored_;
  ++builds_;
}

ArraySearchMetrics ArrayTemplate::search(const core::TernaryWord& key,
                                         double strobe_delay) {
  NEMTCAM_EXPECT(static_cast<int>(key.size()) == width_);
  if (!fx_ || built_stored_ != stored_) {
    build(key);
  } else if (built_key_ != key) {
    fx_->rebind_key(key);
    built_key_ = key;
  }

  spice::Circuit& ckt = fx_->circuit();
  ckt.reset_device_states();
  for (int r = 0; r < rows_; ++r) {
    const core::TernaryWord& word = stored_[static_cast<std::size_t>(r)];
    for (int c = 0; c < width_; ++c)
      spec_.bind(ckt, cells_[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)],
                 word[static_cast<std::size_t>(c)]);
  }

  const auto result = fx_->run();
  return fx_->metrics(result,
                      strobe_delay >= 0.0 ? strobe_delay : default_strobe());
}

}  // namespace nemtcam::tcam
