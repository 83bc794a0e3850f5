#include "tcam/Dtcam5TRow.h"

#include "devices/Mosfet.h"
#include "erc/TcamRules.h"
#include "hier/Elaborate.h"
#include "spice/Transient.h"
#include "tcam/RowSpecs.h"

namespace nemtcam::tcam {

using namespace nemtcam::devices;
using spice::Circuit;
using spice::NodeId;
using spice::TransientOptions;

namespace {
// Between the 3T2N and the 16T SRAM cell: dynamic storage, 6 transistors.
const CellGeometry kGeo{14.0, 10.0};  // 140 F²

// Seeds one cell with a stored trit, a charged storage node at `v_high`:
// both storage-node ICs, zeros included.
auto seed_cell(double v_high) {
  return [v_high](Circuit& ckt, const hier::InstanceHandles& cell,
                  Ternary t) {
    const Dtcam5TRow::StoredLevels lv = Dtcam5TRow::levels_for(t, v_high);
    ckt.set_ic(cell.node_at("stg1"), lv.v1);
    ckt.set_ic(cell.node_at("stg2"), lv.v2);
  };
}
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
  spec.bind = seed_cell(c.v_store_one);
  spec.array_rules = [](const ArrayRowContext& rc, const TernaryWord&) {
    rc.checker.add_rule(erc::ml_fanin_rule(rc.ml, rc.vdd, 2 * rc.width));
  };
  return spec;
}

WriteTemplateSpec dtcam5t_write_spec(const Calibration& c) {
  WriteTemplateSpec w;
  w.t_end = kWriteEdge + 3e-9;
  // Each bitline charges its storage gate to V_DD or empties it; ML and
  // the searchlines are grounded.
  using Levels = Dtcam5TRow::StoredLevels;
  const auto bitline = [&c](std::string port, double Levels::*level) {
    return column_line(std::move(port), c, kGeo,
                       [vdd = c.vdd, level](Ternary t) {
                         return Dtcam5TRow::levels_for(t, vdd).*level;
                       });
  };
  w.nets = {row_line("wl", c, kGeo, c.v_wl_write),
            bitline("bl", &Levels::v1), bitline("blb", &Levels::v2)};
  w.check = [vdd = c.vdd](const spice::TransientResult& r,
                          const hier::InstanceHandles& cell, Ternary,
                          Ternary t, WriteMetrics& m) {
    const Levels lv = Dtcam5TRow::levels_for(t, vdd);
    for (const auto& [node, one] :
         {std::pair{"stg1", lv.v1 > 0.0}, std::pair{"stg2", lv.v2 > 0.0}}) {
      // A written '1' first reaches V_WL − V_th quickly and then creeps
      // toward the bitline level through moderate inversion, so the '1'
      // acceptance band is wide ([0.65, 1.05] V); '0' must settle near GND.
      const auto ts = r.node_trace(cell.node_at(node))
                          .settle_time(one ? 0.85 * vdd : 0.0,
                                       one ? 0.2 * vdd : 0.12 * vdd);
      record_outcome(m, cell, node, ts.has_value(),
                     ts.value_or(0.0) - kWriteEdge);
    }
  };
  return w;
}

double Dtcam5TRow::simulate_retention(double v_start) const {
  // One cell with every port grounded, a '1' stored at `v_start`: the
  // write transistor leaks the storage node toward the grounded bitline.
  const SearchTemplateSpec spec = dtcam5t_search_spec(cal());
  Circuit ckt;
  const hier::InstanceHandles cell =
      elaborate_cell(ckt, spec.cell, "Xcell0", {}, 0, spec.cell.params);
  seed_cell(v_start)(ckt, cell, Ternary::One);

  const TransientOptions opts = spice::step_defaults(500e-6, 1e-6);
  const auto result = run_transient(ckt, opts);
  if (!result.finished) return 0.0;
  // Data is lost once the stored level can no longer switch the compare
  // transistor decisively: V_th plus ~100 mV of overdrive margin.
  const double limit = MosfetParams::nmos_lp(cal().w_sram_cmp).vth + 0.1;
  const auto cross =
      result.node_trace(cell.node_at("stg1")).cross_time(limit, false);
  return cross.value_or(opts.t_end);
}

RefreshMetrics Dtcam5TRow::row_refresh_cost() {
  RefreshMetrics m;
  const TernaryWord word = stored_;
  const WriteMetrics w = write(word);
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
