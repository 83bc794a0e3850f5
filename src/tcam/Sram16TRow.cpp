#include "tcam/Sram16TRow.h"

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

// Adds one 6T SRAM bit cell; returns nothing (nodes are created by name).
// q/qb are the storage nodes; bl/blb the bitlines; wl the wordline.
void add_6t_cell(Circuit& ckt, const Calibration& c, const std::string& name,
                 NodeId vdd, NodeId q, NodeId qb, NodeId bl, NodeId blb,
                 NodeId wl) {
  ckt.add<Mosfet>(name + "_pu1", q, qb, vdd,
                  MosfetParams::pmos_lp(c.w_sram_pullup));
  ckt.add<Mosfet>(name + "_pd1", q, qb, ckt.ground(),
                  MosfetParams::nmos_lp(c.w_sram_pulldn));
  ckt.add<Mosfet>(name + "_pu2", qb, q, vdd,
                  MosfetParams::pmos_lp(c.w_sram_pullup));
  ckt.add<Mosfet>(name + "_pd2", qb, q, ckt.ground(),
                  MosfetParams::nmos_lp(c.w_sram_pulldn));
  ckt.add<Mosfet>(name + "_ax1", bl, wl, q,
                  MosfetParams::nmos_lp(c.w_sram_access));
  ckt.add<Mosfet>(name + "_ax2", blb, wl, qb,
                  MosfetParams::nmos_lp(c.w_sram_access));
}

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

WriteMetrics Sram16TRow::simulate_write(const TernaryWord& old_word,
                                        const TernaryWord& new_word) {
  const Calibration& c = cal();
  Circuit ckt;
  const double t0 = 0.1e-9;
  const double t_end = t0 + c.t_write_window_sram;

  const NodeId vdd = ckt.node("vdd");
  ckt.add<VSource>("Vdd", vdd, ckt.ground(), c.vdd);
  ckt.set_ic(vdd, c.vdd);

  const double c_wl = width() * c.c_hline_per_cell(c.geo_sram);
  const NodeId wl = add_driven_line(ckt, c, "wl", c_wl, 0.0, c.vdd, t0);

  const double c_bl = array_rows() * c.c_vline_per_cell(c.geo_sram);

  struct Monitored {
    NodeId node;
    double target;
  };
  std::vector<Monitored> monitored;

  for (int i = 0; i < width(); ++i) {
    const std::string sfx = std::to_string(i);
    const CellBits old_bits = bits_for(old_word[static_cast<std::size_t>(i)]);
    const CellBits new_bits = bits_for(new_word[static_cast<std::size_t>(i)]);

    // Four bitlines per column (two per 6T cell).
    const NodeId bl1 = add_driven_line(ckt, c, "bl1_" + sfx, c_bl, 0.0,
                                       new_bits.d1 ? c.vdd : 0.0, t0);
    const NodeId bl1b = add_driven_line(ckt, c, "bl1b_" + sfx, c_bl, 0.0,
                                        new_bits.d1 ? 0.0 : c.vdd, t0);
    const NodeId bl2 = add_driven_line(ckt, c, "bl2_" + sfx, c_bl, 0.0,
                                       new_bits.d2 ? c.vdd : 0.0, t0);
    const NodeId bl2b = add_driven_line(ckt, c, "bl2b_" + sfx, c_bl, 0.0,
                                        new_bits.d2 ? 0.0 : c.vdd, t0);

    const NodeId d1 = ckt.node("d1_" + sfx);
    const NodeId d1b = ckt.node("d1b_" + sfx);
    const NodeId d2 = ckt.node("d2_" + sfx);
    const NodeId d2b = ckt.node("d2b_" + sfx);

    add_6t_cell(ckt, c, "c1_" + sfx, vdd, d1, d1b, bl1, bl1b, wl);
    add_6t_cell(ckt, c, "c2_" + sfx, vdd, d2, d2b, bl2, bl2b, wl);
    seed_cell_state(ckt, d1, d1b, old_bits.d1, c.vdd);
    seed_cell_state(ckt, d2, d2b, old_bits.d2, c.vdd);

    // Compare network loads the storage nodes during a write; ML and the
    // searchlines are grounded.
    const NodeId cmp_a = ckt.node("cmpa_" + sfx);
    const NodeId cmp_b = ckt.node("cmpb_" + sfx);
    ckt.add<Mosfet>("Mc1_" + sfx, ckt.ground(), d1, cmp_a,
                    MosfetParams::nmos_lp(c.w_sram_cmp));
    ckt.add<Mosfet>("Mc2_" + sfx, cmp_a, ckt.ground(), ckt.ground(),
                    MosfetParams::nmos_lp(c.w_sram_cmp));
    ckt.add<Mosfet>("Mc3_" + sfx, ckt.ground(), d2, cmp_b,
                    MosfetParams::nmos_lp(c.w_sram_cmp));
    ckt.add<Mosfet>("Mc4_" + sfx, cmp_b, ckt.ground(), ckt.ground(),
                    MosfetParams::nmos_lp(c.w_sram_cmp));

    monitored.push_back({d1, new_bits.d1 ? c.vdd : 0.0});
    monitored.push_back({d1b, new_bits.d1 ? 0.0 : c.vdd});
    monitored.push_back({d2, new_bits.d2 ? c.vdd : 0.0});
    monitored.push_back({d2b, new_bits.d2 ? 0.0 : c.vdd});
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
    const auto ts = tr.settle_time(mon.target, 0.1 * c.vdd);
    if (!ts.has_value()) {
      all_ok = false;
      m.note = "cell node " + ckt.node_name(mon.node) + " did not settle";
      continue;
    }
    latest = std::max(latest, std::max(*ts - t0, 0.0));
  }
  m.ok = all_ok;
  m.latency = latest;
  return m;
}

}  // namespace nemtcam::tcam
