#include "tcam/Fefet4T2FRow.h"

#include "devices/Fefet.h"
#include "devices/Mosfet.h"
#include "devices/Sources.h"
#include "erc/TcamRules.h"
#include "hier/Elaborate.h"
#include "tcam/RowSpecs.h"

namespace nemtcam::tcam {

using namespace nemtcam::devices;
using spice::Circuit;
using spice::NodeId;

namespace {

// 4T2F geometry: twice the transistor count of the 2FeFET cell.
const CellGeometry kGeo{8.0, 6.0};  // 48 F²

void set_fefet_states(const hier::InstanceHandles& cell, Ternary t) {
  const Fefet2FRow::FefetStates st = Fefet2FRow::states_for(t);
  auto* fa = dynamic_cast<Fefet*>(cell.device("Fa"));
  auto* fb = dynamic_cast<Fefet*>(cell.device("Fb"));
  NEMTCAM_EXPECT(fa != nullptr && fb != nullptr);
  fa->set_low_vth(st.f1_low_vth);
  fb->set_low_vth(st.f2_low_vth);
}

}  // namespace

Fefet4T2FRow::Fefet4T2FRow(int width, int array_rows, const Calibration& cal)
    : TcamRow(width, array_rows, cal) {}

SearchTemplateSpec fefet4t2f_search_spec(const Calibration& c) {
  FefetParams fp;
  fp.fet = MosfetParams::nmos_lp(c.w_fefet);

  SearchTemplateSpec spec;
  spec.cal = c;
  spec.geo = kGeo;
  // The gated read path adds a series device to every discharge stack.
  spec.t_strobe = c.t_strobe_fefet * 1.6;
  spec.cell.name = "fefet4t2f_cell";
  // The access devices reach the bitlines "bla"/"blb": the write drives
  // them apart, the search ties both to the read bias.
  spec.cell.ports = {"ml", "sl", "slb", "wl", "bla", "blb"};
  // Shared rails: the read bias and the always-on read wordline feed
  // every cell's access devices through the "bla"/"blb"/"wl" ports. In an
  // array they are built once and shared by all rows.
  spec.shared_rails = [vdd_level = c.vdd, v_wl = c.v_wl_write](
                          Circuit& ckt, NodeId) {
    const NodeId rd = ckt.node("rd");
    ckt.add<VSource>("Vrd", rd, ckt.ground(), vdd_level);
    ckt.set_ic(rd, vdd_level);
    const NodeId wl = ckt.node("wl_rd");
    ckt.add<VSource>("Vwl_rd", wl, ckt.ground(), v_wl);
    ckt.set_ic(wl, v_wl);
    return std::map<std::string, NodeId>{
        {"bla", rd}, {"blb", rd}, {"wl", wl}};
  };
  const auto fet = [](MosfetParams mp) {
    return [mp](Circuit& k, const std::string& n,
                const std::vector<NodeId>& nd,
                const hier::ParamEnv&) -> spice::Device& {
      return k.add<Mosfet>(n, nd[0], nd[1], nd[2], mp);
    };
  };
  spec.cell.emit("Ma", {"ml", "sl", "mida"},
                 fet(MosfetParams::nmos_lp(c.w_fefet)));
  spec.cell.emit("Mb", {"ml", "slb", "midb"},
                 fet(MosfetParams::nmos_lp(c.w_fefet)));
  spec.cell.emit("Tacc_a", {"fga", "wl", "bla"}, fet(c.nem_write_nmos()));
  spec.cell.emit("Tacc_b", {"fgb", "wl", "blb"}, fet(c.nem_write_nmos()));
  const auto fefet = [fp](Circuit& k, const std::string& n,
                          const std::vector<NodeId>& nd,
                          const hier::ParamEnv&) -> spice::Device& {
    return k.add<Fefet>(n, nd[0], nd[1], nd[2], fp);
  };
  spec.cell.emit("Fa", {"mida", "fga", "0"}, fefet);
  spec.cell.emit("Fb", {"midb", "fgb", "0"}, fefet);
  spec.bind = [vdd = c.vdd](Circuit& ckt, const hier::InstanceHandles& cell,
                            Ternary t) {
    set_fefet_states(cell, t);
    ckt.set_ic(cell.node_at("fga"), vdd);
    ckt.set_ic(cell.node_at("fgb"), vdd);
  };
  spec.array_rules = [](const ArrayRowContext& rc, const TernaryWord&) {
    rc.checker.add_rule(erc::ml_fanin_rule(rc.ml, rc.vdd, 2 * rc.width));
  };
  return spec;
}

WriteTemplateSpec fefet4t2f_write_spec(const Calibration& c) {
  using States = Fefet2FRow::FefetStates;
  WriteTemplateSpec w;
  w.t_end = kWriteEdge + c.t_write_window_fefet;
  // Program path: WL boosted high enough to pass ±4 V from the bitlines
  // onto the FeFET gates. ML and the searchlines are grounded, so the
  // search transistors stay off.
  w.nets = {row_line("wl", c, kGeo, c.v_fefet_write + 1.0),
            fefet_program_line("bla", c, kGeo, &States::f1_low_vth),
            fefet_program_line("blb", c, kGeo, &States::f2_low_vth)};
  // The floating gates start the write at 0 V, not at the search's read
  // bias.
  w.bind = [](Circuit& ckt, const hier::InstanceHandles& cell, Ternary t) {
    set_fefet_states(cell, t);
    ckt.set_ic(cell.node_at("fga"), 0.0);
    ckt.set_ic(cell.node_at("fgb"), 0.0);
  };
  w.check = fefet_write_check("Fa", "Fb");
  return w;
}

}  // namespace nemtcam::tcam
