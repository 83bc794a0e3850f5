#include "tcam/Fefet4T2FRow.h"

#include <algorithm>

#include "devices/Fefet.h"
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
// 4T2F geometry: twice the transistor count of the 2FeFET cell.
const CellGeometry kGeo{8.0, 6.0};  // 48 F²
}  // namespace

Fefet4T2FRow::Fefet4T2FRow(int width, int array_rows, const Calibration& cal)
    : TcamRow(width, array_rows, cal) {}

Fefet4T2FRow::FefetStates Fefet4T2FRow::states_for(Ternary t) {
  switch (t) {
    case Ternary::One: return {false, true};
    case Ternary::Zero: return {true, false};
    case Ternary::X: return {false, false};
  }
  return {false, false};
}

SearchTemplateSpec fefet4t2f_search_spec(const Calibration& c) {
  FefetParams fp;
  fp.fet = MosfetParams::nmos_lp(c.w_fefet);

  SearchTemplateSpec spec;
  spec.cal = c;
  spec.geo = kGeo;
  // The gated read path adds a series device to every discharge stack.
  spec.t_strobe = c.t_strobe_fefet * 1.6;
  spec.cell.name = "fefet4t2f_cell";
  spec.cell.ports = {"ml", "sl", "slb", "wl", "rd"};
  // Shared rails: the read bias and the always-on read wordline feed
  // every cell's access devices through the "rd"/"wl" ports. In an array
  // they are built once and shared by all rows.
  spec.shared_rails = [vdd_level = c.vdd, v_wl = c.v_wl_write](
                          Circuit& ckt, NodeId) {
    const NodeId rd = ckt.node("rd");
    ckt.add<VSource>("Vrd", rd, ckt.ground(), vdd_level);
    ckt.set_ic(rd, vdd_level);
    const NodeId wl = ckt.node("wl_rd");
    ckt.add<VSource>("Vwl_rd", wl, ckt.ground(), v_wl);
    ckt.set_ic(wl, v_wl);
    return std::map<std::string, NodeId>{{"rd", rd}, {"wl", wl}};
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
  spec.cell.emit("Tacc_a", {"fga", "wl", "rd"}, fet(c.nem_write_nmos()));
  spec.cell.emit("Tacc_b", {"fgb", "wl", "rd"}, fet(c.nem_write_nmos()));
  const auto fefet = [fp](Circuit& k, const std::string& n,
                          const std::vector<NodeId>& nd,
                          const hier::ParamEnv&) -> spice::Device& {
    return k.add<Fefet>(n, nd[0], nd[1], nd[2], fp);
  };
  spec.cell.emit("Fa", {"mida", "fga", "0"}, fefet);
  spec.cell.emit("Fb", {"midb", "fgb", "0"}, fefet);
  spec.bind = [vdd = c.vdd](Circuit& ckt, const hier::InstanceHandles& cell,
                            Ternary t) {
    const Fefet4T2FRow::FefetStates st = Fefet4T2FRow::states_for(t);
    auto* fa = dynamic_cast<Fefet*>(cell.device("Fa"));
    auto* fb = dynamic_cast<Fefet*>(cell.device("Fb"));
    NEMTCAM_EXPECT(fa != nullptr && fb != nullptr);
    fa->set_low_vth(st.fa_low_vth);
    fb->set_low_vth(st.fb_low_vth);
    ckt.set_ic(cell.node_at("fga"), vdd);
    ckt.set_ic(cell.node_at("fgb"), vdd);
  };
  spec.array_rules = [](const ArrayRowContext& rc, const TernaryWord&) {
    rc.checker.add_rule(erc::ml_fanin_rule(rc.ml, rc.vdd, 2 * rc.width));
  };
  return spec;
}

WriteMetrics Fefet4T2FRow::simulate_write(const TernaryWord& old_word,
                                          const TernaryWord& new_word) {
  const Calibration& c = cal();
  Circuit ckt;
  const double t0 = 0.1e-9;
  const double t_end = t0 + c.t_write_window_fefet;

  FefetParams fp;
  fp.fet = MosfetParams::nmos_lp(c.w_fefet);

  // Program path: WL boosted high enough to pass ±4 V from the bitlines
  // onto the FeFET gates.
  const double v_wl_prog = c.v_fefet_write + 1.0;
  const double c_wl = width() * c.c_hline_per_cell(kGeo);
  const NodeId wl = add_driven_line(ckt, c, "wl", c_wl, 0.0, v_wl_prog, t0);
  const double c_bl = array_rows() * c.c_vline_per_cell(kGeo);

  std::vector<Fefet*> fas(static_cast<std::size_t>(width()));
  std::vector<Fefet*> fbs(static_cast<std::size_t>(width()));

  for (int i = 0; i < width(); ++i) {
    const std::string sfx = std::to_string(i);
    const FefetStates old_st = states_for(old_word[static_cast<std::size_t>(i)]);
    const FefetStates new_st = states_for(new_word[static_cast<std::size_t>(i)]);

    const double va = new_st.fa_low_vth ? c.v_fefet_write : -c.v_fefet_write;
    const double vb = new_st.fb_low_vth ? c.v_fefet_write : -c.v_fefet_write;
    const NodeId bla = add_driven_line(ckt, c, "bla" + sfx, c_bl, 0.0, va, t0);
    const NodeId blb = add_driven_line(ckt, c, "blb" + sfx, c_bl, 0.0, vb, t0);

    const NodeId fga = ckt.node("fga_" + sfx);
    const NodeId fgb = ckt.node("fgb_" + sfx);
    ckt.add<Mosfet>("Tacc_a_" + sfx, fga, wl, bla, c.nem_write_nmos());
    ckt.add<Mosfet>("Tacc_b_" + sfx, fgb, wl, blb, c.nem_write_nmos());

    // Search transistors off (SLs grounded); ML grounded.
    const NodeId mid_a = ckt.node("mida_" + sfx);
    const NodeId mid_b = ckt.node("midb_" + sfx);
    ckt.add<Mosfet>("Ma_" + sfx, ckt.ground(), ckt.ground(), mid_a,
                    MosfetParams::nmos_lp(c.w_fefet));
    ckt.add<Mosfet>("Mb_" + sfx, ckt.ground(), ckt.ground(), mid_b,
                    MosfetParams::nmos_lp(c.w_fefet));

    fas[static_cast<std::size_t>(i)] =
        &ckt.add<Fefet>("Fa_" + sfx, mid_a, fga, ckt.ground(), fp);
    fbs[static_cast<std::size_t>(i)] =
        &ckt.add<Fefet>("Fb_" + sfx, mid_b, fgb, ckt.ground(), fp);
    fas[static_cast<std::size_t>(i)]->set_low_vth(old_st.fa_low_vth);
    fbs[static_cast<std::size_t>(i)]->set_low_vth(old_st.fb_low_vth);
  }

  const TransientOptions opts = spice::step_defaults(t_end, 50e-12);
  const auto result = run_transient(ckt, opts);

  WriteMetrics m;
  if (!result.finished) {
    m.note = "transient failed: " + result.failure;
    return m;
  }
  m.energy = result.total_source_energy();

  bool all_ok = true;
  double latest = 0.0;
  for (int i = 0; i < width(); ++i) {
    const FefetStates new_st = states_for(new_word[static_cast<std::size_t>(i)]);
    const FefetStates old_st = states_for(old_word[static_cast<std::size_t>(i)]);
    for (const auto& [dev, want_low, was_low] :
         {std::tuple{fas[static_cast<std::size_t>(i)], new_st.fa_low_vth,
                     old_st.fa_low_vth},
          std::tuple{fbs[static_cast<std::size_t>(i)], new_st.fb_low_vth,
                     old_st.fb_low_vth}}) {
      const bool is_low = dev->polarization() > 0.9;
      const bool is_high = dev->polarization() < -0.9;
      if ((want_low && !is_low) || (!want_low && !is_high)) {
        all_ok = false;
        m.note = "FeFET " + dev->name() + " did not reach target state";
        continue;
      }
      if (want_low != was_low) {
        const double ts = want_low ? dev->t_program_complete()
                                   : dev->t_erase_complete();
        if (ts > 0.0) latest = std::max(latest, ts - t0);
      }
    }
  }
  m.ok = all_ok;
  m.latency = latest;
  return m;
}

}  // namespace nemtcam::tcam
