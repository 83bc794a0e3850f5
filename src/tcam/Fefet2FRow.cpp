#include "tcam/Fefet2FRow.h"

#include <algorithm>

#include "devices/Fefet.h"
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

Fefet2FRow::Fefet2FRow(int width, int array_rows, const Calibration& cal)
    : TcamRow(width, array_rows, cal) {}

Fefet2FRow::FefetStates Fefet2FRow::states_for(Ternary t) {
  switch (t) {
    case Ternary::One: return {false, true};
    case Ternary::Zero: return {true, false};
    case Ternary::X: return {false, false};
  }
  return {false, false};
}

SearchTemplateSpec fefet2f_search_spec(const Calibration& c) {
  FefetParams fp;
  fp.fet = MosfetParams::nmos_lp(c.w_fefet);

  SearchTemplateSpec spec;
  spec.cal = c;
  spec.geo = c.geo_fefet;
  spec.t_strobe = c.t_strobe_fefet;
  spec.cell.name = "fefet2f_cell";
  spec.cell.ports = {"ml", "sl", "slb"};
  const auto fefet = [fp](Circuit& k, const std::string& n,
                          const std::vector<spice::NodeId>& nd,
                          const hier::ParamEnv&) -> spice::Device& {
    return k.add<Fefet>(n, nd[0], nd[1], nd[2], fp);
  };
  spec.cell.emit("F1", {"ml", "sl", "0"}, fefet);
  spec.cell.emit("F2", {"ml", "slb", "0"}, fefet);
  spec.bind = [](Circuit&, const hier::InstanceHandles& cell, Ternary t) {
    const Fefet2FRow::FefetStates st = Fefet2FRow::states_for(t);
    auto* f1 = dynamic_cast<Fefet*>(cell.device("F1"));
    auto* f2 = dynamic_cast<Fefet*>(cell.device("F2"));
    NEMTCAM_EXPECT(f1 != nullptr && f2 != nullptr);
    f1->set_low_vth(st.f1_low_vth);
    f2->set_low_vth(st.f2_low_vth);
  };
  spec.array_rules = [](const ArrayRowContext& rc, const TernaryWord&) {
    rc.checker.add_rule(erc::ml_fanin_rule(rc.ml, rc.vdd, 2 * rc.width));
  };
  return spec;
}

WriteMetrics Fefet2FRow::simulate_write(const TernaryWord& old_word,
                                        const TernaryWord& new_word) {
  const Calibration& c = cal();
  Circuit ckt;
  const double t0 = 0.1e-9;
  const double t_end = t0 + c.t_write_window_fefet;

  FefetParams fp;
  fp.fet = MosfetParams::nmos_lp(c.w_fefet);

  const double c_sl = array_rows() * c.c_vline_per_cell(c.geo_fefet);
  std::vector<Fefet*> f1s(static_cast<std::size_t>(width()));
  std::vector<Fefet*> f2s(static_cast<std::size_t>(width()));

  for (int i = 0; i < width(); ++i) {
    const std::string sfx = std::to_string(i);
    const FefetStates old_st = states_for(old_word[static_cast<std::size_t>(i)]);
    const FefetStates new_st = states_for(new_word[static_cast<std::size_t>(i)]);

    // ±4 V program pulses on the search/program lines. Devices whose state
    // is unchanged still see the drive (the write is row-parallel), which
    // is fine: the pulse pushes them further into the same saturation.
    const double v1 = new_st.f1_low_vth ? c.v_fefet_write : -c.v_fefet_write;
    const double v2 = new_st.f2_low_vth ? c.v_fefet_write : -c.v_fefet_write;
    const NodeId sl = add_driven_line(ckt, c, "sl" + sfx, c_sl, 0.0, v1, t0);
    const NodeId slb = add_driven_line(ckt, c, "slb" + sfx, c_sl, 0.0, v2, t0);

    // ML held at ground during the write.
    f1s[static_cast<std::size_t>(i)] =
        &ckt.add<Fefet>("F1_" + sfx, ckt.ground(), sl, ckt.ground(), fp);
    f2s[static_cast<std::size_t>(i)] =
        &ckt.add<Fefet>("F2_" + sfx, ckt.ground(), slb, ckt.ground(), fp);
    f1s[static_cast<std::size_t>(i)]->set_low_vth(old_st.f1_low_vth);
    f2s[static_cast<std::size_t>(i)]->set_low_vth(old_st.f2_low_vth);
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
         {std::tuple{f1s[static_cast<std::size_t>(i)], new_st.f1_low_vth,
                     old_st.f1_low_vth},
          std::tuple{f2s[static_cast<std::size_t>(i)], new_st.f2_low_vth,
                     old_st.f2_low_vth}}) {
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
