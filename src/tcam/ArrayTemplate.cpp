#include "tcam/ArrayTemplate.h"

#include <algorithm>
#include <map>
#include <utility>

#include "devices/Mosfet.h"
#include "devices/Passive.h"
#include "devices/Sources.h"
#include "erc/TcamRules.h"
#include "sta/Rules.h"
#include "tcam/StaBridge.h"

namespace nemtcam::tcam {

using namespace nemtcam::devices;
using spice::NodeId;

namespace {
// RC sections per shared searchline (fewer when the array has fewer rows);
// each extra section adds 2·width unknowns.
constexpr int kSlSegments = 2;
}  // namespace

ArrayFixture::ArrayFixture(const SearchTemplateSpec& spec, int rows,
                           int width, const core::TernaryWord& key,
                           int column_rows)
    : cal_(spec.cal), rows_(rows), width_(width) {
  NEMTCAM_EXPECT(rows >= 1 && width >= 1);
  NEMTCAM_EXPECT(column_rows >= rows);
  NEMTCAM_EXPECT(static_cast<int>(key.size()) == width);
  const Calibration& cal = spec.cal;
  t_edge_ = cal.t_precharge + 50e-12;
  t_end_ = t_edge_ + cal.t_search_window;

  vdd_ = circuit_.node("vdd");
  circuit_.add<VSource>("Vdd", vdd_, circuit_.ground(), cal.vdd);
  circuit_.set_ic(vdd_, cal.vdd);

  // Matchlines: wire parasitics scale with the row width; the sense-amp
  // input load is added on top. Junction loading comes from the attached
  // cell devices themselves.
  const double c_ml =
      width * cal.c_hline_per_cell(spec.geo) + cal.c_ml_sense_load;
  ml_.reserve(static_cast<std::size_t>(rows));
  ml_names_.reserve(static_cast<std::size_t>(rows));
  for (int r = 0; r < rows; ++r) {
    ml_names_.push_back(row_name("ml", r));
    ml_.push_back(circuit_.node(ml_names_.back()));
    circuit_.add<Capacitor>(row_name("Cml", r), ml_.back(), circuit_.ground(),
                            c_ml);
  }

  // Precharge PMOS: on (gate low) during [0, t_precharge], then off.
  const NodeId pchgb = circuit_.node("pchgb");
  circuit_.add<VSource>("Vpchgb", pchgb, circuit_.ground(),
                        step_wave(0.0, cal.vdd, cal.t_precharge));
  for (int r = 0; r < rows; ++r) {
    circuit_.add<Mosfet>(row_name("Mpchg", r), ml(r), pchgb, vdd_,
                         MosfetParams::pmos_lp(cal.w_precharge));
    checker_.add_rule(erc::ml_precharge_rule(ml(r), vdd_));
  }

  // Row-to-segment map for the shared-line ladders.
  n_segments_ = std::min(kSlSegments, rows);
  seg_of_row_.resize(static_cast<std::size_t>(rows));
  std::vector<int> rows_in_seg(static_cast<std::size_t>(n_segments_), 0);
  for (int r = 0; r < rows; ++r) {
    const int s = static_cast<int>(
        (static_cast<long long>(r) * n_segments_) / rows);
    seg_of_row_[static_cast<std::size_t>(r)] = s;
    ++rows_in_seg[static_cast<std::size_t>(s)];
  }

  // Searchline ladders, driven per the key at t_edge: each section
  // carries its rows' worth of wire C and R, and the simulated rows' cells
  // load the lines themselves. The stand-in rows lump onto the driven head
  // section: their wire C plus their cells' SL loading.
  const int stand_ins = column_rows - rows;
  const double c_vline = cal.c_vline_per_cell(spec.geo);
  const double r_vline = cal.r_vline_per_cell(spec.geo);
  const double c_head = (rows_in_seg[0] + stand_ins) * c_vline +
                        stand_ins * spec.c_sl_gate_per_row +
                        cal.c_driver_load;
  const auto add_ladder = [&](std::vector<NodeId>& ladder,
                              const std::string& name, double v_drive) {
    NodeId n = circuit_.node(name);
    circuit_.add<VSource>("Vdrv_" + name, n, circuit_.ground(),
                          step_wave(0.0, v_drive, t_edge_), cal.r_line_driver);
    circuit_.add<Capacitor>("Cline_" + name, n, circuit_.ground(), c_head);
    ladder.push_back(n);
    for (int s = 1; s < n_segments_; ++s) {
      const std::string seg = name + "_s" + std::to_string(s);
      const NodeId next = circuit_.node(seg);
      const int k = rows_in_seg[static_cast<std::size_t>(s)];
      circuit_.add<Resistor>("Rline_" + seg, n, next, k * r_vline);
      circuit_.add<Capacitor>("Cline_" + seg, next, circuit_.ground(),
                              k * c_vline);
      ladder.push_back(n = next);
    }
  };
  sl_.reserve(static_cast<std::size_t>(width * n_segments_));
  slb_.reserve(static_cast<std::size_t>(width * n_segments_));
  for (int i = 0; i < width; ++i) {
    const SearchlineLevels v =
        searchline_levels(key[static_cast<std::size_t>(i)], cal.vdd);
    add_ladder(sl_, "sl" + std::to_string(i), v.sl);
    add_ladder(slb_, "slb" + std::to_string(i), v.slb);
  }
}

std::string ArrayFixture::row_name(const std::string& base, int row) const {
  return rows_ == 1 ? base : base + std::to_string(row);
}

std::string ArrayFixture::scope(int row) const {
  return rows_ == 1 ? std::string() : "Xrow" + std::to_string(row) + ".";
}

NodeId ArrayFixture::sl(int row, int col) const {
  const int seg = seg_of_row_.at(static_cast<std::size_t>(row));
  return sl_.at(static_cast<std::size_t>(col * n_segments_ + seg));
}

NodeId ArrayFixture::slb(int row, int col) const {
  const int seg = seg_of_row_.at(static_cast<std::size_t>(row));
  return slb_.at(static_cast<std::size_t>(col * n_segments_ + seg));
}

PortNets ArrayFixture::port_nets(int row) const {
  PortNets nets{{{"ml", ml(row)}, {"vdd", vdd_}}, {}};
  std::vector<NodeId>& sl_taps = nets.columns["sl"];
  std::vector<NodeId>& slb_taps = nets.columns["slb"];
  sl_taps.reserve(static_cast<std::size_t>(width_));
  slb_taps.reserve(static_cast<std::size_t>(width_));
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
  const erc::Report& rep = check();
  if (rep.has_errors()) {
    spice::TransientResult r;
    r.failure = "ERC failed before simulation\n" + rep.to_string();
    return r;
  }
  const spice::AssemblyCache& cache = circuit_.solver_cache();
  const util::Digest128 image = circuit_.state_digest();
  if (checkpoint_ && checkpoint_->image == image &&
      checkpoint_->pivot_order == cache.pivot_order()) {
    circuit_.load_device_states(checkpoint_->device_states);
    spice::TransientRun resumed = checkpoint_->run;
    resumed.advance_to(t_end_);
    return resumed.finish();
  }

  checkpoint_.reset();
  spice::TransientOptions opts = spice::step_defaults(t_end_);
  opts.probe_nodes = ml_;  // metrics only read the matchlines
  const std::uint64_t factorizations =
      cache.stats().full_factorizations + cache.stats().refactorizations;
  spice::TransientRun run(circuit_, circuit_.initial_state(), opts);
  // Captured only when every factorization of the prefix reused the pivot
  // order in force at t_edge: chosen no later than the run's first one.
  if (run.advance_to(t_edge_) && cache.pivot_order() <= factorizations) {
    checkpoint_ = Checkpoint{run, {}, image, cache.pivot_order()};
    circuit_.save_device_states(checkpoint_->device_states);
  }
  run.advance_to(t_end_);
  return run.finish();
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
  m.ok = true;
  return m;
}

ArrayTemplate::ArrayTemplate(SearchTemplateSpec spec, int rows, int width,
                             ArrayOptions /*opt*/, int column_rows)
    : spec_(std::move(spec)),
      rows_(rows),
      width_(width),
      column_rows_(column_rows == 0 ? rows : column_rows),
      stored_(static_cast<std::size_t>(rows),
              core::TernaryWord(static_cast<std::size_t>(width),
                                core::Ternary::X)) {
  NEMTCAM_EXPECT(rows >= 1 && width >= 1);
  NEMTCAM_EXPECT(column_rows_ >= rows);
  NEMTCAM_EXPECT(static_cast<bool>(spec_.bind));
  NEMTCAM_EXPECT(!spec_.cell.ports.empty());
}

void ArrayTemplate::store(int row, const core::TernaryWord& word) {
  NEMTCAM_EXPECT(static_cast<int>(word.size()) == width_);
  stored_.at(static_cast<std::size_t>(row)) = word;
}

void ArrayTemplate::build(const core::TernaryWord& key) {
  fx_ = std::make_unique<ArrayFixture>(spec_, rows_, width_, key,
                                       column_rows_);
  cells_.assign(static_cast<std::size_t>(rows_), {});
  spice::Circuit& ckt = fx_->circuit();

  std::map<std::string, NodeId> rails;
  if (spec_.shared_rails) rails = spec_.shared_rails(ckt, fx_->vdd());

  for (int r = 0; r < rows_; ++r) {
    const std::string scope = fx_->scope(r);
    auto& row_cells = cells_[static_cast<std::size_t>(r)];
    row_cells.reserve(static_cast<std::size_t>(width_));
    if (spec_.c_ml_load_per_cell > 0.0) {
      ckt.add<Capacitor>(fx_->row_name("Cel_ml", r), fx_->ml(r), ckt.ground(),
                         width_ * spec_.c_ml_load_per_cell);
    }
    // The fixture's nets take precedence over a shared rail of the same name.
    PortNets nets = fx_->port_nets(r);
    nets.row.insert(rails.begin(), rails.end());
    for (int c = 0; c < width_; ++c)
      row_cells.push_back(elaborate_cell(ckt, spec_.cell,
                                         scope + "Xcell" + std::to_string(c),
                                         nets, c, spec_.cell.params));
    if (spec_.array_rules)
      spec_.array_rules(ArrayRowContext{fx_->checker(), fx_->ml(r), fx_->vdd(),
                                        r, width_, scope},
                        stored_[static_cast<std::size_t>(r)]);
  }
  // One STA margin-rule pass covers every matchline: the rules run over
  // the array as bound for the first search after the (re)build, at the
  // width-scaled nominal strobe.
  fx_->checker().add_rule(sta::margin_rules(
      fx_->ml_names(), sta_options_for(spec_.cal, default_strobe())));
  built_key_ = key;
  built_stored_ = stored_;
  ++builds_;
}

void ArrayTemplate::ensure_built(const core::TernaryWord& key) {
  NEMTCAM_EXPECT(static_cast<int>(key.size()) == width_);
  if (!fx_ || built_stored_ != stored_) {
    build(key);
  } else if (built_key_ != key) {
    fx_->rebind_key(key);
    built_key_ = key;
  }
}

ArraySearchMetrics ArrayTemplate::search(const core::TernaryWord& key,
                                         double strobe_delay) {
  ensure_built(key);

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
