#include "tcam/Mram4T2MRow.h"

#include "devices/Mosfet.h"
#include "devices/Mtj.h"
#include "erc/TcamRules.h"
#include "hier/Elaborate.h"
#include "tcam/RowSpecs.h"

namespace nemtcam::tcam {

using namespace nemtcam::devices;
using spice::Circuit;
using spice::NodeId;

namespace {

const CellGeometry kGeo{10.0, 9.0};  // 90 F² — 4T + BEOL MTJs

// The divider sense transistor needs a threshold above the don't-care mid
// level (0.5 V) and below the mismatch level (~0.71 V).
MosfetParams sense_fet(double w) {
  MosfetParams p = MosfetParams::nmos_lp(w);
  p.vth = 0.55;
  return p;
}

constexpr double kWriteDrive = 0.9;  // ±V_w across the MTJ stack

}  // namespace

Mram4T2MRow::Mram4T2MRow(int width, int array_rows, const Calibration& cal)
    : TcamRow(width, array_rows, cal) {}

Mram4T2MRow::MtjStates Mram4T2MRow::states_for(Ternary t) {
  switch (t) {
    case Ternary::One: return {false, true};   // M1 AP, M2 P
    case Ternary::Zero: return {true, false};
    case Ternary::X: return {false, false};    // both AP: mid = 0.5 V
  }
  return {false, false};
}

SearchTemplateSpec mram4t2m_search_spec(const Calibration& cal) {
  // The TMR-limited sense overdrive makes this by far the slowest search;
  // it needs a longer observation window than the CMOS-strength designs.
  Calibration c = cal;
  c.t_search_window = 10e-9;

  SearchTemplateSpec spec;
  spec.cal = c;  // carries the stretched search window
  spec.geo = kGeo;
  spec.t_strobe = 6e-9;
  spec.cell.name = "mram4t2m_cell";
  // wl/wbl steer the write current; the search grounds them.
  spec.cell.ports = {"ml", "sl", "slb", "wl", "wbl"};
  // The access device's size and threshold, overridden by the write.
  spec.cell.params = {{"tacc_w", c.w_nem_write},
                      {"tacc_vth", c.vth_nem_write}};
  const auto mtj = [](Circuit& k, const std::string& n,
                      const std::vector<NodeId>& nd,
                      const hier::ParamEnv&) -> spice::Device& {
    return k.add<Mtj>(n, nd[0], nd[1]);
  };
  spec.cell.emit("M1", {"sl", "mid"}, mtj);
  spec.cell.emit("M2", {"mid", "slb"}, mtj);
  const auto fet = [](MosfetParams mp) {
    return [mp](Circuit& k, const std::string& n,
                const std::vector<NodeId>& nd,
                const hier::ParamEnv&) -> spice::Device& {
      return k.add<Mosfet>(n, nd[0], nd[1], nd[2], mp);
    };
  };
  spec.cell.emit("Ts", {"ml", "mid", "0"}, fet(sense_fet(2.0)));
  spec.cell.emit("Tacc", {"mid", "wl", "wbl"},
                 [](Circuit& k, const std::string& n,
                    const std::vector<NodeId>& nd,
                    const hier::ParamEnv& env) -> spice::Device& {
                   MosfetParams p = MosfetParams::nmos_lp(env.at("tacc_w"));
                   p.vth = env.at("tacc_vth");
                   return k.add<Mosfet>(n, nd[0], nd[1], nd[2], p);
                 });
  spec.bind = [](Circuit&, const hier::InstanceHandles& cell, Ternary t) {
    const Mram4T2MRow::MtjStates st = Mram4T2MRow::states_for(t);
    auto* m1 = dynamic_cast<Mtj*>(cell.device("M1"));
    auto* m2 = dynamic_cast<Mtj*>(cell.device("M2"));
    NEMTCAM_EXPECT(m1 != nullptr && m2 != nullptr);
    m1->set_parallel(st.m1_parallel);
    m2->set_parallel(st.m2_parallel);
  };
  spec.array_rules = [](const ArrayRowContext& rc, const TernaryWord&) {
    rc.checker.add_rule(erc::ml_fanin_rule(rc.ml, rc.vdd, rc.width));
  };
  return spec;
}

WriteTemplateSpec mram4t2m_write_spec(const Calibration& c) {
  using States = Mram4T2MRow::MtjStates;
  WriteTemplateSpec w;
  w.t_end = kWriteEdge + 14e-9;
  // Strong write-access device (current compliance is not wanted here —
  // the junction currents must stay super-critical).
  w.params = {{"tacc_w", 4.0}, {"tacc_vth", MosfetParams::nmos_lp(4.0).vth}};
  // Bipolar searchline drive steers super-critical current through both
  // junctions at once (polarity per junction sets P vs AP); the access
  // transistor sinks the sum at the divider node into a 0 V write bitline.
  // Junction orientation: M1 is SL→mid (positive SL drive → parallel),
  // M2 is mid→SL̄ (positive SL̄ drive pushes current bottom-up → AP).
  const auto searchline = [&c](std::string port, bool States::*parallel,
                               double v_parallel) {
    return column_line(std::move(port), c, kGeo,
                       [parallel, v_parallel](Ternary t) {
                         return Mram4T2MRow::states_for(t).*parallel
                                    ? v_parallel
                                    : -v_parallel;
                       });
  };
  w.nets = {row_line("wl", c, kGeo, c.v_wl_write),
            searchline("sl", &States::m1_parallel, kWriteDrive),
            searchline("slb", &States::m2_parallel, -kWriteDrive),
            held_net("wbl", /*per_column=*/true, 0.0)};
  w.check = [](const spice::TransientResult&,
               const hier::InstanceHandles& cell, Ternary old_t,
               Ternary new_t, WriteMetrics& m) {
    const States was = Mram4T2MRow::states_for(old_t);
    const States want = Mram4T2MRow::states_for(new_t);
    for (const auto& [base, want_p, was_p] :
         {std::tuple{"M1", want.m1_parallel, was.m1_parallel},
          std::tuple{"M2", want.m2_parallel, was.m2_parallel}}) {
      const auto* dev = dynamic_cast<const Mtj*>(cell.device(base));
      NEMTCAM_EXPECT(dev != nullptr);
      const double ts = want_p ? dev->t_parallel_complete()
                               : dev->t_antiparallel_complete();
      record_outcome(m, cell, base,
                     want_p ? dev->state() > 0.9 : dev->state() < 0.1,
                     want_p != was_p ? ts - kWriteEdge : 0.0);
    }
  };
  return w;
}

}  // namespace nemtcam::tcam
