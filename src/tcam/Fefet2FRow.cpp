#include "tcam/Fefet2FRow.h"

#include "devices/Fefet.h"
#include "erc/TcamRules.h"
#include "hier/Elaborate.h"
#include "tcam/RowSpecs.h"

namespace nemtcam::tcam {

using namespace nemtcam::devices;
using spice::Circuit;
using spice::NodeId;

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

WriteNet fefet_program_line(std::string port, const Calibration& cal,
                            const CellGeometry& geo,
                            bool Fefet2FRow::FefetStates::*low_vth) {
  return column_line(std::move(port), cal, geo,
                     [v = cal.v_fefet_write, low_vth](Ternary t) {
                       return Fefet2FRow::states_for(t).*low_vth ? v : -v;
                     });
}

WriteCheck fefet_write_check(const char* first, const char* second) {
  return [first, second](const spice::TransientResult&,
                         const hier::InstanceHandles& cell, Ternary old_t,
                         Ternary new_t, WriteMetrics& m) {
    const Fefet2FRow::FefetStates was = Fefet2FRow::states_for(old_t);
    const Fefet2FRow::FefetStates want = Fefet2FRow::states_for(new_t);
    for (const auto& [name, want_low, was_low] :
         {std::tuple{first, want.f1_low_vth, was.f1_low_vth},
          std::tuple{second, want.f2_low_vth, was.f2_low_vth}}) {
      const auto* dev = dynamic_cast<const Fefet*>(cell.device(name));
      NEMTCAM_EXPECT(dev != nullptr);
      const double ts =
          want_low ? dev->t_program_complete() : dev->t_erase_complete();
      record_outcome(m, cell, name,
                     want_low ? dev->polarization() > 0.9
                              : dev->polarization() < -0.9,
                     want_low != was_low ? ts - kWriteEdge : 0.0);
    }
  };
}

WriteTemplateSpec fefet2f_write_spec(const Calibration& c) {
  using States = Fefet2FRow::FefetStates;
  WriteTemplateSpec w;
  w.t_end = kWriteEdge + c.t_write_window_fefet;
  // ±4 V program pulses on the search/program lines, ML grounded. Devices
  // whose state is unchanged still see the drive (the write is
  // row-parallel), which is fine: the pulse pushes them further into the
  // same saturation.
  w.nets = {fefet_program_line("sl", c, c.geo_fefet, &States::f1_low_vth),
            fefet_program_line("slb", c, c.geo_fefet, &States::f2_low_vth)};
  w.check = fefet_write_check("F1", "F2");
  return w;
}

}  // namespace nemtcam::tcam
