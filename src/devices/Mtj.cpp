#include "devices/Mtj.h"

#include <algorithm>
#include <cmath>

namespace nemtcam::devices {

Mtj::Mtj(std::string name, NodeId top, NodeId bottom, MtjParams params)
    : Device(std::move(name)), top_(top), bottom_(bottom), params_(params) {
  NEMTCAM_EXPECT(params_.r_parallel > 0.0);
  NEMTCAM_EXPECT(params_.r_antiparallel > params_.r_parallel);
  NEMTCAM_EXPECT(params_.i_critical > 0.0 && params_.t_switch_ref > 0.0);
}

double Mtj::resistance() const noexcept {
  // Conductance interpolates between the two states.
  const double g_p = 1.0 / params_.r_parallel;
  const double g_ap = 1.0 / params_.r_antiparallel;
  return 1.0 / (g_ap + (g_p - g_ap) * m_);
}

void Mtj::stamp_fixed(Stamper& s, const StampContext&) {
  s.conductance(top_, bottom_, 1.0 / resistance());
}

void Mtj::commit(const StampContext& ctx) {
  const double v = ctx.v(top_) - ctx.v(bottom_);
  const double i = v / resistance();  // + : top → bottom → drives parallel
  const double overdrive = std::fabs(i) / params_.i_critical - 1.0;
  if (overdrive <= 0.0) return;
  const double m_before = m_;
  // dm/dt such that a full transition at 1.5×Ic takes t_switch_ref.
  const double rate = overdrive / (0.5 * params_.t_switch_ref);
  m_ += (i > 0.0 ? 1.0 : -1.0) * rate * ctx.dt();
  m_ = std::clamp(m_, 0.0, 1.0);
  if (m_before < 0.9 && m_ >= 0.9) t_par_ = ctx.t();
  if (m_before > 0.1 && m_ <= 0.1) t_ap_ = ctx.t();
}

double Mtj::max_dt_hint() const { return params_.t_switch_ref / 200.0; }

void Mtj::set_state(double m) {
  NEMTCAM_EXPECT(m >= 0.0 && m <= 1.0);
  m_ = m;
}


spice::DeviceTopology Mtj::topology() const {
  spice::DeviceTopology t{{{"top", top_}, {"bottom", bottom_}},
                          {{0, 1, spice::DcCoupling::Conductive}}};
  // State-dependent tunnel resistance: the STA engine sees the committed
  // magnetization's value, exactly as the next transient would stamp it.
  t.couplings[0].r_on = resistance();
  return t;
}

}  // namespace nemtcam::devices
