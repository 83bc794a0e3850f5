#include "tcam/Mram4T2MRow.h"

#include <algorithm>

#include "devices/Mosfet.h"
#include "devices/Mtj.h"
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
  spec.cell.ports = {"ml", "sl", "slb"};
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
  spec.cell.emit("Tacc", {"mid", "0", "0"}, fet(c.nem_write_nmos()));
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

WriteMetrics Mram4T2MRow::simulate_write(const TernaryWord& old_word,
                                         const TernaryWord& new_word) {
  const Calibration& c = cal();
  Circuit ckt;
  const double t0 = 0.1e-9;
  const double t_end = t0 + 14e-9;

  const double c_wl = width() * c.c_hline_per_cell(kGeo);
  const NodeId wl = add_driven_line(ckt, c, "wl", c_wl, 0.0, c.v_wl_write, t0);
  const double c_sl = array_rows() * c.c_vline_per_cell(kGeo);

  std::vector<Mtj*> m1s(static_cast<std::size_t>(width()));
  std::vector<Mtj*> m2s(static_cast<std::size_t>(width()));

  for (int i = 0; i < width(); ++i) {
    const std::string sfx = std::to_string(i);
    const MtjStates old_st = states_for(old_word[static_cast<std::size_t>(i)]);
    const MtjStates new_st = states_for(new_word[static_cast<std::size_t>(i)]);

    // Bipolar searchline drive steers super-critical current through both
    // junctions at once (polarity per junction sets P vs AP); the access
    // transistor sinks the sum at the divider node.
    // Junction orientation: M1 is SL→mid (positive SL drive → parallel),
    // M2 is mid→SL̄ (positive SL̄ drive pushes current bottom-up → AP).
    const double v_sl = new_st.m1_parallel ? kWriteDrive : -kWriteDrive;
    const double v_slb = new_st.m2_parallel ? -kWriteDrive : kWriteDrive;
    const NodeId sl = add_driven_line(ckt, c, "sl" + sfx, c_sl, 0.0, v_sl, t0);
    const NodeId slb =
        add_driven_line(ckt, c, "slb" + sfx, c_sl, 0.0, v_slb, t0);
    const NodeId mid = ckt.node("mid_" + sfx);
    const NodeId wbl = ckt.node("wbl_" + sfx);
    ckt.add<VSource>("Vwbl_" + sfx, wbl, ckt.ground(), 0.0);

    m1s[static_cast<std::size_t>(i)] = &ckt.add<Mtj>("M1_" + sfx, sl, mid);
    m2s[static_cast<std::size_t>(i)] = &ckt.add<Mtj>("M2_" + sfx, mid, slb);
    m1s[static_cast<std::size_t>(i)]->set_parallel(old_st.m1_parallel);
    m2s[static_cast<std::size_t>(i)]->set_parallel(old_st.m2_parallel);
    // Strong write-access device (current compliance is not wanted here —
    // the junction currents must stay super-critical).
    ckt.add<Mosfet>("Tacc_" + sfx, mid, wl, wbl, MosfetParams::nmos_lp(4.0));
    ckt.add<Mosfet>("Ts_" + sfx, ckt.ground(), mid, ckt.ground(),
                    sense_fet(2.0));
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
    const MtjStates new_st = states_for(new_word[static_cast<std::size_t>(i)]);
    const MtjStates old_st = states_for(old_word[static_cast<std::size_t>(i)]);
    for (const auto& [dev, want_p, was_p] :
         {std::tuple{m1s[static_cast<std::size_t>(i)], new_st.m1_parallel,
                     old_st.m1_parallel},
          std::tuple{m2s[static_cast<std::size_t>(i)], new_st.m2_parallel,
                     old_st.m2_parallel}}) {
      const bool is_p = dev->state() > 0.9;
      const bool is_ap = dev->state() < 0.1;
      if ((want_p && !is_p) || (!want_p && !is_ap)) {
        all_ok = false;
        m.note = "MTJ " + dev->name() + " did not reach target state";
        continue;
      }
      if (want_p != was_p) {
        const double ts = want_p ? dev->t_parallel_complete()
                                 : dev->t_antiparallel_complete();
        if (ts > 0.0) latest = std::max(latest, ts - t0);
      }
    }
  }
  m.ok = all_ok;
  m.latency = latest;
  return m;
}

}  // namespace nemtcam::tcam
