#include "tcam/Dtcam5TRow.h"

#include <algorithm>

#include "devices/Mosfet.h"
#include "devices/Passive.h"
#include "devices/Sources.h"
#include "erc/TcamRules.h"
#include "hier/Elaborate.h"
#include "spice/Transient.h"
#include "spice/Waveform.h"
#include "tcam/Harness.h"
#include "tcam/RowSpecs.h"
#include "tcam/SearchTemplate.h"

namespace nemtcam::tcam {

using namespace nemtcam::devices;
using spice::Circuit;
using spice::NodeId;
using spice::TransientOptions;

namespace {
// Between the 3T2N and the 16T SRAM cell: dynamic storage, 6 transistors.
const CellGeometry kGeo{14.0, 10.0};  // 140 F²
}  // namespace

Dtcam5TRow::Dtcam5TRow(int width, int array_rows, const Calibration& cal)
    : TcamRow(width, array_rows, cal) {}

Dtcam5TRow::StoredLevels Dtcam5TRow::levels_for(Ternary t, double v_high) {
  switch (t) {
    case Ternary::One: return {v_high, 0.0};
    case Ternary::Zero: return {0.0, v_high};
    case Ternary::X: return {0.0, 0.0};
  }
  return {0.0, 0.0};
}

Dtcam5TRow::StoredLevels Dtcam5TRow::levels_for(Ternary t) const {
  return levels_for(t, cal().v_store_one);
}

SearchTemplateSpec dtcam5t_search_spec(const Calibration& c) {
  SearchTemplateSpec spec;
  spec.cal = c;
  spec.geo = kGeo;
  // The stored level (~0.76 V) drives the top compare device with less
  // overdrive than the SRAM's full-rail latch, so this design is a bit
  // slower than the 16T: give the strobe headroom.
  spec.t_strobe = c.t_strobe_sram * 1.5;
  spec.cell.name = "dtcam5t_cell";
  spec.cell.ports = {"ml", "sl", "slb", "bl", "blb", "wl"};
  const auto fet = [](MosfetParams mp) {
    return [mp](Circuit& k, const std::string& n,
                const std::vector<NodeId>& nd,
                const hier::ParamEnv&) -> spice::Device& {
      return k.add<Mosfet>(n, nd[0], nd[1], nd[2], mp);
    };
  };
  spec.cell.emit("Tw1", {"stg1", "wl", "bl"}, fet(c.nem_write_nmos()));
  spec.cell.emit("Tw2", {"stg2", "wl", "blb"}, fet(c.nem_write_nmos()));
  const MosfetParams cmp = MosfetParams::nmos_lp(c.w_sram_cmp);
  spec.cell.emit("Mc1", {"ml", "stg1", "cmpa"}, fet(cmp));
  spec.cell.emit("Mc2", {"cmpa", "slb", "0"}, fet(cmp));
  spec.cell.emit("Mc3", {"ml", "stg2", "cmpb"}, fet(cmp));
  spec.cell.emit("Mc4", {"cmpb", "sl", "0"}, fet(cmp));
  spec.bind = [high = c.v_store_one](Circuit& ckt,
                                     const hier::InstanceHandles& cell,
                                     Ternary t) {
    const Dtcam5TRow::StoredLevels lv = Dtcam5TRow::levels_for(t, high);
    ckt.set_ic(cell.node_at("stg1"), lv.v1);
    ckt.set_ic(cell.node_at("stg2"), lv.v2);
  };
  spec.array_rules = [](const ArrayRowContext& rc, const TernaryWord&) {
    rc.checker.add_rule(erc::ml_fanin_rule(rc.ml, rc.vdd, 2 * rc.width));
  };
  return spec;
}

WriteMetrics Dtcam5TRow::simulate_write(const TernaryWord& old_word,
                                        const TernaryWord& new_word) {
  const Calibration& c = cal();
  Circuit ckt;
  const double t0 = 0.1e-9;
  const double t_end = t0 + 3e-9;

  const double c_wl = width() * c.c_hline_per_cell(kGeo);
  const NodeId wl = add_driven_line(ckt, c, "wl", c_wl, 0.0, c.v_wl_write, t0);
  const double c_bl = array_rows() * c.c_vline_per_cell(kGeo);

  struct Monitored {
    NodeId node;
    bool target_one;
  };
  std::vector<Monitored> monitored;

  for (int i = 0; i < width(); ++i) {
    const std::string sfx = std::to_string(i);
    const StoredLevels old_lv = levels_for(old_word[static_cast<std::size_t>(i)]);
    const StoredLevels new_lv = levels_for(new_word[static_cast<std::size_t>(i)]);

    const NodeId bl = add_driven_line(ckt, c, "bl" + sfx, c_bl, 0.0,
                                      new_lv.v1 > 0.0 ? c.vdd : 0.0, t0);
    const NodeId blb = add_driven_line(ckt, c, "blb" + sfx, c_bl, 0.0,
                                       new_lv.v2 > 0.0 ? c.vdd : 0.0, t0);
    const NodeId stg1 = ckt.node("stg1_" + sfx);
    const NodeId stg2 = ckt.node("stg2_" + sfx);
    const NodeId cmp_a = ckt.node("cmpa_" + sfx);
    const NodeId cmp_b = ckt.node("cmpb_" + sfx);

    ckt.add<Mosfet>("Tw1_" + sfx, stg1, wl, bl, c.nem_write_nmos());
    ckt.add<Mosfet>("Tw2_" + sfx, stg2, wl, blb, c.nem_write_nmos());
    // Searchlines and ML grounded during the write.
    ckt.add<Mosfet>("Mc1_" + sfx, ckt.ground(), stg1, cmp_a,
                    MosfetParams::nmos_lp(c.w_sram_cmp));
    ckt.add<Mosfet>("Mc2_" + sfx, cmp_a, ckt.ground(), ckt.ground(),
                    MosfetParams::nmos_lp(c.w_sram_cmp));
    ckt.add<Mosfet>("Mc3_" + sfx, ckt.ground(), stg2, cmp_b,
                    MosfetParams::nmos_lp(c.w_sram_cmp));
    ckt.add<Mosfet>("Mc4_" + sfx, cmp_b, ckt.ground(), ckt.ground(),
                    MosfetParams::nmos_lp(c.w_sram_cmp));

    if (old_lv.v1 > 0.0) ckt.set_ic(stg1, old_lv.v1);
    if (old_lv.v2 > 0.0) ckt.set_ic(stg2, old_lv.v2);
    monitored.push_back({stg1, new_lv.v1 > 0.0});
    monitored.push_back({stg2, new_lv.v2 > 0.0});
  }

  const TransientOptions opts = spice::step_defaults(t_end, 20e-12);
  const auto result = run_transient(ckt, opts);

  WriteMetrics m;
  if (!result.finished) {
    m.note = "transient failed: " + result.failure;
    return m;
  }
  m.energy = result.total_source_energy();
  bool all_ok = true;
  double latest = 0.0;
  for (const auto& mon : monitored) {
    const spice::Trace tr = result.node_trace(mon.node);
    // A written '1' first reaches V_WL − V_th quickly and then creeps
    // toward the bitline level through moderate inversion, so the '1'
    // acceptance band is wide ([0.65, 1.05] V); '0' must settle near GND.
    const double target = mon.target_one ? 0.85 * c.vdd : 0.0;
    const double tol = mon.target_one ? 0.2 * c.vdd : 0.12 * c.vdd;
    const auto ts = tr.settle_time(target, tol);
    if (!ts.has_value()) {
      all_ok = false;
      m.note = "storage node " + ckt.node_name(mon.node) + " did not settle";
      continue;
    }
    latest = std::max(latest, std::max(*ts - t0, 0.0));
  }
  m.ok = all_ok;
  m.latency = latest;
  return m;
}

double Dtcam5TRow::simulate_retention(double v_start) const {
  const Calibration& c = cal();
  Circuit ckt;
  const NodeId stg = ckt.node("stg");
  ckt.add<Mosfet>("Tw", stg, ckt.ground(), ckt.ground(), c.nem_write_nmos());
  // Compare-transistor gate load on the storage node.
  auto p = MosfetParams::nmos_lp(c.w_sram_cmp);
  ckt.add<Mosfet>("Mc", ckt.ground(), stg, ckt.ground(), p);
  ckt.set_ic(stg, v_start);

  const TransientOptions opts = spice::step_defaults(500e-6, 100e-9, 1e-6);
  const auto result = run_transient(ckt, opts);
  if (!result.finished) return 0.0;
  // Data is lost once the stored level can no longer switch the compare
  // transistor decisively: V_th plus ~100 mV of overdrive margin.
  const double limit = p.vth + 0.1;
  const auto cross = result.node_trace(stg).cross_time(limit, false);
  return cross.value_or(opts.t_end);
}

RefreshMetrics Dtcam5TRow::row_refresh_cost() {
  RefreshMetrics m;
  const TernaryWord word = stored_;
  const WriteMetrics w = simulate_write(word, word);
  m.energy_per_op = w.energy;  // one row op
  m.latency = 2e-9;            // WL assertion window per row op
  m.retention_time = simulate_retention(cal().v_store_one);
  if (m.retention_time > 0.0)
    m.refresh_power = array_rows() * m.energy_per_op / m.retention_time;
  m.ok = w.ok && m.retention_time > 0.0;
  if (!w.ok) m.note = "row write-back failed: " + w.note;
  return m;
}

}  // namespace nemtcam::tcam
