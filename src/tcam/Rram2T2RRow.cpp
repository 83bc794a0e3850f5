#include "tcam/Rram2T2RRow.h"

#include <algorithm>

#include "devices/Mosfet.h"
#include "devices/Passive.h"
#include "devices/Rram.h"
#include "devices/Sources.h"
#include "erc/TcamRules.h"
#include "hier/Elaborate.h"
#include "spice/Transient.h"
#include "spice/Waveform.h"
#include "tcam/RowSpecs.h"
#include "tcam/SearchTemplate.h"
#include "util/Random.h"

namespace nemtcam::tcam {

using namespace nemtcam::devices;
using spice::Circuit;
using spice::NodeId;
using spice::PwlWave;
using spice::TransientOptions;

Rram2T2RRow::Rram2T2RRow(int width, int array_rows, const Calibration& cal)
    : TcamRow(width, array_rows, cal) {}

Rram2T2RRow::RramStates Rram2T2RRow::states_for(Ternary t) {
  switch (t) {
    case Ternary::One: return {false, true};
    case Ternary::Zero: return {true, false};
    case Ternary::X: return {false, false};
  }
  return {false, false};
}

SearchTemplateSpec rram2t2r_search_spec(const Calibration& c) {
  SearchTemplateSpec spec;
  spec.cal = c;
  spec.geo = c.geo_rram;
  spec.t_strobe = c.t_strobe_rram;
  // RRAM MIM electrode plates load the matchline (two stacks per cell).
  spec.c_ml_load_per_cell = c.c_rram_electrode;
  spec.cell.name = "rram2t2r_cell";
  spec.cell.ports = {"ml", "sl", "slb"};
  const auto rram = [](Circuit& k, const std::string& n,
                       const std::vector<NodeId>& nd,
                       const hier::ParamEnv&) -> spice::Device& {
    return k.add<Rram>(n, nd[0], nd[1], RramParams{});
  };
  spec.cell.emit("Ra", {"ml", "mida"}, rram);
  spec.cell.emit("Rb", {"ml", "midb"}, rram);
  const auto access = [mp = MosfetParams::nmos_lp(c.w_rram_access)](
                          Circuit& k, const std::string& n,
                          const std::vector<NodeId>& nd,
                          const hier::ParamEnv&) -> spice::Device& {
    return k.add<Mosfet>(n, nd[0], nd[1], nd[2], mp);
  };
  spec.cell.emit("Ma", {"mida", "sl", "0"}, access);
  spec.cell.emit("Mb", {"midb", "slb", "0"}, access);
  spec.bind = [](Circuit&, const hier::InstanceHandles& cell, Ternary t) {
    const Rram2T2RRow::RramStates st = Rram2T2RRow::states_for(t);
    auto* ra = dynamic_cast<Rram*>(cell.device("Ra"));
    auto* rb = dynamic_cast<Rram*>(cell.device("Rb"));
    NEMTCAM_EXPECT(ra != nullptr && rb != nullptr);
    ra->set_state(st.a_lrs ? 1.0 : 0.0);
    rb->set_state(st.b_lrs ? 1.0 : 0.0);
  };
  spec.array_rules = [](const ArrayRowContext& rc, const TernaryWord&) {
    rc.checker.add_rule(erc::ml_fanin_rule(rc.ml, rc.vdd, 2 * rc.width));
  };
  return spec;
}

void Rram2T2RRow::rebind_devices(Circuit& ckt) {
  if (sigma_log_ == 0.0 && !varied_) return;  // nominal circuit as built
  // Each device draws its own R_ON and R_OFF around the nominal medians,
  // per column Ra before Rb. A zero sigma draws nothing and restores the
  // nominal window.
  util::Rng rng(seed_);
  const RramParams nominal;
  for (int i = 0; i < width(); ++i) {
    for (const char* base : {"Ra", "Rb"}) {
      auto* rram = dynamic_cast<Rram*>(
          ckt.find("Xcell" + std::to_string(i) + "." + base));
      NEMTCAM_EXPECT(rram != nullptr);
      const double r_on = rng.lognormal_median(nominal.r_on, sigma_log_);
      const double r_off = std::max(
          rng.lognormal_median(nominal.r_off, sigma_log_), 2.0 * r_on);
      rram->set_resistance_window(r_on, r_off);
    }
  }
  varied_ = sigma_log_ > 0.0;
}

WriteMetrics Rram2T2RRow::simulate_write(const TernaryWord& old_word,
                                         const TernaryWord& new_word) {
  const Calibration& c = cal();
  Circuit ckt;

  // Two-phase bipolar write on the matchline: set phase at +v_set during
  // [t0, t0+t_phase], then reset phase at −v_reset during
  // [t0+t_phase+gap, t0+2·t_phase+gap].
  const double t0 = 0.1e-9;
  const double t_phase = 12.5e-9;  // 10 ns nominal transition + the slowdown
                                   // from series-element voltage division
  const double gap = 1e-9;
  const double t_set_end = t0 + t_phase;
  const double t_reset_start = t_set_end + gap;
  const double t_end = t_reset_start + t_phase;

  // Write line = ML reused as a bipolar-driven row line.
  const double c_ml =
      width() * c.c_hline_per_cell(c.geo_rram) + c.c_ml_sense_load;
  const NodeId wline = ckt.node("wline");
  ckt.add<VSource>(
      "Vwrite", wline, ckt.ground(),
      std::make_unique<PwlWave>(std::vector<std::pair<double, double>>{
          {0.0, 0.0},
          {t0, 0.0},
          {t0 + 0.1e-9, c.v_rram_set},
          {t_set_end, c.v_rram_set},
          {t_set_end + 0.3e-9, 0.0},
          {t_reset_start, -c.v_rram_reset},
          {t_end - 0.3e-9, -c.v_rram_reset},
          {t_end, 0.0}}),
      c.r_write_driver);
  ckt.add<Capacitor>("Cml", wline, ckt.ground(),
                     c_ml + width() * c.c_rram_electrode);

  const double c_gl = array_rows() * c.c_vline_per_cell(c.geo_rram);

  std::vector<Rram*> ras(static_cast<std::size_t>(width()));
  std::vector<Rram*> rbs(static_cast<std::size_t>(width()));

  for (int i = 0; i < width(); ++i) {
    const std::string sfx = std::to_string(i);
    const RramStates old_st = states_for(old_word[static_cast<std::size_t>(i)]);
    const RramStates new_st = states_for(new_word[static_cast<std::size_t>(i)]);

    // Gate lines: a branch is enabled during the set phase if its device
    // must end LRS, and during the reset phase if it must end HRS (and is
    // not already there).
    auto gate_wave = [&](bool want_lrs, bool was_lrs) {
      std::vector<std::pair<double, double>> pts = {{0.0, 0.0}, {t0, 0.0}};
      const double on = c.v_rram_wl;
      const bool need_set = want_lrs && !was_lrs;
      const bool need_reset = !want_lrs && was_lrs;
      pts.push_back({t0 + 0.05e-9, need_set ? on : 0.0});
      pts.push_back({t_set_end, need_set ? on : 0.0});
      pts.push_back({t_set_end + 0.3e-9, 0.0});
      pts.push_back({t_reset_start, need_reset ? on : 0.0});
      pts.push_back({t_end - 0.3e-9, need_reset ? on : 0.0});
      pts.push_back({t_end, 0.0});
      return std::make_unique<PwlWave>(std::move(pts));
    };

    const NodeId ga = ckt.node("ga_" + sfx);
    ckt.add<VSource>("Vga_" + sfx, ga, ckt.ground(),
                     gate_wave(new_st.a_lrs, old_st.a_lrs), c.r_line_driver);
    ckt.add<Capacitor>("Cga_" + sfx, ga, ckt.ground(), c_gl);
    const NodeId gb = ckt.node("gb_" + sfx);
    ckt.add<VSource>("Vgb_" + sfx, gb, ckt.ground(),
                     gate_wave(new_st.b_lrs, old_st.b_lrs), c.r_line_driver);
    ckt.add<Capacitor>("Cgb_" + sfx, gb, ckt.ground(), c_gl);

    const NodeId mid_a = ckt.node("mida_" + sfx);
    const NodeId mid_b = ckt.node("midb_" + sfx);
    ras[static_cast<std::size_t>(i)] =
        &ckt.add<Rram>("Ra_" + sfx, wline, mid_a);
    rbs[static_cast<std::size_t>(i)] =
        &ckt.add<Rram>("Rb_" + sfx, wline, mid_b);
    ckt.add<Mosfet>("Ma_" + sfx, mid_a, ga, ckt.ground(),
                    MosfetParams::nmos_lp(c.w_rram_access));
    ckt.add<Mosfet>("Mb_" + sfx, mid_b, gb, ckt.ground(),
                    MosfetParams::nmos_lp(c.w_rram_access));
    ras[static_cast<std::size_t>(i)]->set_state(old_st.a_lrs ? 1.0 : 0.0);
    rbs[static_cast<std::size_t>(i)]->set_state(old_st.b_lrs ? 1.0 : 0.0);
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
    const RramStates new_st = states_for(new_word[static_cast<std::size_t>(i)]);
    const RramStates old_st = states_for(old_word[static_cast<std::size_t>(i)]);
    for (const auto& [dev, want_lrs, was_lrs] :
         {std::tuple{ras[static_cast<std::size_t>(i)], new_st.a_lrs, old_st.a_lrs},
          std::tuple{rbs[static_cast<std::size_t>(i)], new_st.b_lrs, old_st.b_lrs}}) {
      const bool is_lrs = dev->state() > 0.9;
      const bool is_hrs = dev->state() < 0.1;
      if ((want_lrs && !is_lrs) || (!want_lrs && !is_hrs)) {
        all_ok = false;
        m.note = "RRAM " + dev->name() + " did not reach target state";
        continue;
      }
      if (want_lrs != was_lrs) {
        // Phase-relative settle time: the paper's array-level write latency
        // is the device transition time (~10 ns) and, like addressing, the
        // set/reset phase serialization is excluded; the energy, which is
        // what Fig. 6(b) compares, covers both phases in full.
        const double ts = want_lrs ? dev->t_set_complete() - t0
                                   : dev->t_reset_complete() - t_reset_start;
        if (ts > 0.0) latest = std::max(latest, ts);
      }
    }
  }
  m.ok = all_ok;
  m.latency = latest;
  return m;
}

}  // namespace nemtcam::tcam
