#include "devices/Switch.h"

namespace nemtcam::devices {

Switch::Switch(std::string name, NodeId a, NodeId b, double r_on, double r_off,
               bool closed)
    : Device(std::move(name)), a_(a), b_(b), r_on_(r_on), r_off_(r_off),
      closed_(closed) {
  NEMTCAM_EXPECT(r_on > 0.0 && r_off > r_on);
}

void Switch::stamp_fixed(Stamper& s, const StampContext&) {
  s.conductance(a_, b_, closed_ ? 1.0 / r_on_ : 1.0 / r_off_);
}


spice::DeviceTopology Switch::topology() const {
  // r_off is finite, so the pair is conductive in either state.
  spice::DeviceTopology t{{{"a", a_}, {"b", b_}},
                          {{0, 1, spice::DcCoupling::Conductive}}};
  t.couplings[0].r_on = r_on_;
  t.couplings[0].g_off = 1.0 / r_off_;
  t.couplings[0].on = closed_;
  return t;
}

}  // namespace nemtcam::devices
