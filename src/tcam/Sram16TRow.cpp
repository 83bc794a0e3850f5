#include "tcam/Sram16TRow.h"

#include "devices/Mosfet.h"
#include "erc/TcamRules.h"
#include "hier/Elaborate.h"
#include "tcam/RowSpecs.h"

namespace nemtcam::tcam {

using namespace nemtcam::devices;
using spice::Circuit;
using spice::NodeId;

Sram16TRow::Sram16TRow(int width, int array_rows, const Calibration& cal)
    : TcamRow(width, array_rows, cal) {}

Sram16TRow::CellBits Sram16TRow::bits_for(Ternary t) {
  switch (t) {
    case Ternary::One: return {true, false};
    case Ternary::Zero: return {false, true};
    case Ternary::X: return {false, false};
  }
  return {false, false};
}

namespace {

void seed_cell_state(Circuit& ckt, NodeId q, NodeId qb, bool value,
                     double vdd) {
  ckt.set_ic(q, value ? vdd : 0.0);
  ckt.set_ic(qb, value ? 0.0 : vdd);
}

// Appends the six emit cards of one 6T bit cell to a cell definition.
// `tag` is the local device-name prefix ("c1"/"c2"); q/qb the local
// storage-node names; bl/blb/wl port names (grounded during a search).
void emit_6t_cards(hier::SubcktDef& def, const Calibration& c,
                   const std::string& tag, const std::string& q,
                   const std::string& qb, const std::string& bl,
                   const std::string& blb, const std::string& wl) {
  const auto fet = [](MosfetParams mp) {
    return [mp](Circuit& k, const std::string& n,
                const std::vector<NodeId>& nd,
                const hier::ParamEnv&) -> spice::Device& {
      return k.add<Mosfet>(n, nd[0], nd[1], nd[2], mp);
    };
  };
  def.emit(tag + "_pu1", {q, qb, "vdd"},
           fet(MosfetParams::pmos_lp(c.w_sram_pullup)));
  def.emit(tag + "_pd1", {q, qb, "0"},
           fet(MosfetParams::nmos_lp(c.w_sram_pulldn)));
  def.emit(tag + "_pu2", {qb, q, "vdd"},
           fet(MosfetParams::pmos_lp(c.w_sram_pullup)));
  def.emit(tag + "_pd2", {qb, q, "0"},
           fet(MosfetParams::nmos_lp(c.w_sram_pulldn)));
  def.emit(tag + "_ax1", {bl, wl, q},
           fet(MosfetParams::nmos_lp(c.w_sram_access)));
  def.emit(tag + "_ax2", {blb, wl, qb},
           fet(MosfetParams::nmos_lp(c.w_sram_access)));
}

// The 16T cell: two 6T bit cells plus the 4T compare network, all nets as
// ports (bitlines and wordline ground during a search).
hier::SubcktDef sram_cell_def(const Calibration& c) {
  hier::SubcktDef def;
  def.name = "sram16t_cell";
  def.ports = {"ml",  "sl",   "slb", "vdd", "bl1",
               "bl1b", "bl2", "bl2b", "wl"};
  emit_6t_cards(def, c, "c1", "d1", "d1b", "bl1", "bl1b", "wl");
  emit_6t_cards(def, c, "c2", "d2", "d2b", "bl2", "bl2b", "wl");
  const auto cmp = [c](Circuit& k, const std::string& n,
                       const std::vector<NodeId>& nd,
                       const hier::ParamEnv&) -> spice::Device& {
    return k.add<Mosfet>(n, nd[0], nd[1], nd[2],
                         MosfetParams::nmos_lp(c.w_sram_cmp));
  };
  def.emit("Mc1", {"ml", "d1", "cmpa"}, cmp);
  def.emit("Mc2", {"cmpa", "slb", "0"}, cmp);
  def.emit("Mc3", {"ml", "d2", "cmpb"}, cmp);
  def.emit("Mc4", {"cmpb", "sl", "0"}, cmp);
  return def;
}

}  // namespace

SearchTemplateSpec sram16t_search_spec(const Calibration& c) {
  SearchTemplateSpec spec;
  spec.cal = c;
  spec.geo = c.geo_sram;
  spec.c_sl_gate_per_row = c.c_sl_offgate_sram;
  spec.t_strobe = c.t_strobe_sram;
  spec.cell = sram_cell_def(c);
  spec.bind = [vdd = c.vdd](Circuit& ckt, const hier::InstanceHandles& cell,
                            Ternary t) {
    const Sram16TRow::CellBits bits = Sram16TRow::bits_for(t);
    seed_cell_state(ckt, cell.node_at("d1"), cell.node_at("d1b"), bits.d1,
                    vdd);
    seed_cell_state(ckt, cell.node_at("d2"), cell.node_at("d2b"), bits.d2,
                    vdd);
  };
  spec.array_rules = [](const ArrayRowContext& rc, const TernaryWord&) {
    rc.checker.add_rule(erc::ml_fanin_rule(rc.ml, rc.vdd, 2 * rc.width));
  };
  return spec;
}

WriteTemplateSpec sram16t_write_spec(const Calibration& c) {
  using Bits = Sram16TRow::CellBits;
  WriteTemplateSpec w;
  w.t_end = kWriteEdge + c.t_write_window_sram;
  // Four bitlines per column, a complementary pair per 6T cell, driven to
  // the new bits while the wordline opens the access devices. ML and the
  // searchlines stay grounded: the compare network only loads the storage
  // nodes.
  const auto bitline = [&c](std::string port, bool Bits::*bit, bool when) {
    return column_line(std::move(port), c, c.geo_sram,
                       [vdd = c.vdd, bit, when](Ternary t) {
                         return Sram16TRow::bits_for(t).*bit == when ? vdd
                                                                     : 0.0;
                       });
  };
  w.nets = {held_net("vdd", /*per_column=*/false, c.vdd),
            row_line("wl", c, c.geo_sram, c.vdd),
            bitline("bl1", &Bits::d1, true),
            bitline("bl1b", &Bits::d1, false),
            bitline("bl2", &Bits::d2, true),
            bitline("bl2b", &Bits::d2, false)};
  w.check = [vdd = c.vdd](const spice::TransientResult& r,
                          const hier::InstanceHandles& cell, Ternary,
                          Ternary t, WriteMetrics& m) {
    const Bits want = Sram16TRow::bits_for(t);
    for (const auto& [node, high] :
         {std::pair{"d1", want.d1}, std::pair{"d1b", !want.d1},
          std::pair{"d2", want.d2}, std::pair{"d2b", !want.d2}}) {
      const auto ts = r.node_trace(cell.node_at(node))
                          .settle_time(high ? vdd : 0.0, 0.1 * vdd);
      record_outcome(m, cell, node, ts.has_value(),
                     ts.value_or(0.0) - kWriteEdge);
    }
  };
  return w;
}

}  // namespace nemtcam::tcam
