#include "tcam/Rram2T2RRow.h"

#include <algorithm>

#include "devices/Mosfet.h"
#include "devices/Rram.h"
#include "erc/TcamRules.h"
#include "hier/Elaborate.h"
#include "spice/Waveform.h"
#include "tcam/RowSpecs.h"
#include "util/Random.h"

namespace nemtcam::tcam {

using namespace nemtcam::devices;
using spice::Circuit;
using spice::NodeId;
using spice::PwlWave;

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

WriteTemplateSpec rram2t2r_write_spec(const Calibration& c) {
  using States = Rram2T2RRow::RramStates;
  // Two-phase bipolar write on the matchline: set phase at +v_set during
  // [t0, t0+t_phase], then reset phase at −v_reset during
  // [t0+t_phase+gap, t0+2·t_phase+gap].
  const double t0 = kWriteEdge;
  const double t_phase = 12.5e-9;  // 10 ns nominal transition + the slowdown
                                   // from series-element voltage division
  const double gap = 1e-9;
  const double t_set_end = t0 + t_phase;
  const double t_reset_start = t_set_end + gap;
  const double t_end = t_reset_start + t_phase;

  WriteTemplateSpec w;
  w.t_end = t_end;
  // Write line = ML reused as a bipolar-driven row line, loaded by the MIM
  // electrode plates.
  const WriteNet wline{
      "ml", /*per_column=*/false,
      c.c_hline_per_cell(c.geo_rram) + c.c_rram_electrode, c.c_ml_sense_load,
      c.r_write_driver,
      [=, v_set = c.v_rram_set, v_reset = c.v_rram_reset](Ternary, Ternary) {
        return std::make_unique<PwlWave>(
            std::vector<std::pair<double, double>>{{0.0, 0.0},
                                                   {t0, 0.0},
                                                   {t0 + 0.1e-9, v_set},
                                                   {t_set_end, v_set},
                                                   {t_set_end + 0.3e-9, 0.0},
                                                   {t_reset_start, -v_reset},
                                                   {t_end - 0.3e-9, -v_reset},
                                                   {t_end, 0.0}});
      }};
  // Gate lines (the searchlines, without driver load): a branch is enabled
  // during the set phase if its device must end LRS, and during the reset
  // phase if it must end HRS and is not already there.
  const auto gate_line = [&](std::string port, bool States::*lrs) {
    return WriteNet{
        std::move(port), /*per_column=*/true, c.c_vline_per_cell(c.geo_rram),
        0.0, c.r_line_driver,
        [=, on = c.v_rram_wl](Ternary old_t, Ternary new_t) {
          const bool was_lrs = Rram2T2RRow::states_for(old_t).*lrs;
          const bool want_lrs = Rram2T2RRow::states_for(new_t).*lrs;
          const double set = want_lrs && !was_lrs ? on : 0.0;
          const double reset = !want_lrs && was_lrs ? on : 0.0;
          return std::make_unique<PwlWave>(
              std::vector<std::pair<double, double>>{
                  {0.0, 0.0},
                  {t0, 0.0},
                  {t0 + 0.05e-9, set},
                  {t_set_end, set},
                  {t_set_end + 0.3e-9, 0.0},
                  {t_reset_start, reset},
                  {t_end - 0.3e-9, reset},
                  {t_end, 0.0}});
        }};
  };
  w.nets = {wline, gate_line("sl", &States::a_lrs),
            gate_line("slb", &States::b_lrs)};
  w.check = [t_reset_start](const spice::TransientResult&,
                            const hier::InstanceHandles& cell, Ternary old_t,
                            Ternary new_t, WriteMetrics& m) {
    const States was = Rram2T2RRow::states_for(old_t);
    const States want = Rram2T2RRow::states_for(new_t);
    for (const auto& [base, want_lrs, was_lrs] :
         {std::tuple{"Ra", want.a_lrs, was.a_lrs},
          std::tuple{"Rb", want.b_lrs, was.b_lrs}}) {
      const auto* dev = dynamic_cast<const Rram*>(cell.device(base));
      NEMTCAM_EXPECT(dev != nullptr);
      // Phase-relative settle time: the paper's array-level write latency
      // is the device transition time (~10 ns) and, like addressing, the
      // set/reset phase serialization is excluded; the energy, which is
      // what Fig. 6(b) compares, covers both phases in full.
      double ts = 0.0;
      if (want_lrs != was_lrs)
        ts = want_lrs ? dev->t_set_complete() - kWriteEdge
                      : dev->t_reset_complete() - t_reset_start;
      record_outcome(m, cell, base,
                     want_lrs ? dev->state() > 0.9 : dev->state() < 0.1, ts);
    }
  };
  return w;
}

}  // namespace nemtcam::tcam
