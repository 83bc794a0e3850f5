#include "devices/Controlled.h"

namespace nemtcam::devices {

Vcvs::Vcvs(std::string name, NodeId p, NodeId m, NodeId cp, NodeId cm,
           double gain)
    : Device(std::move(name)), p_(p), m_(m), cp_(cp), cm_(cm), gain_(gain) {}

void Vcvs::stamp_fixed(Stamper& s, const StampContext&) {
  // Branch row: v_p − v_m − gain·(v_cp − v_cm) = 0.
  s.voltage_source(p_, m_, first_branch(), 0.0);
  s.branch_row_node(first_branch(), cp_, -gain_);
  s.branch_row_node(first_branch(), cm_, gain_);
}

Vccs::Vccs(std::string name, NodeId p, NodeId m, NodeId cp, NodeId cm,
           double gm)
    : Device(std::move(name)), p_(p), m_(m), cp_(cp), cm_(cm), gm_(gm) {}

void Vccs::stamp_fixed(Stamper& s, const StampContext&) {
  s.vccs(p_, m_, cp_, cm_, gm_);
}

Cccs::Cccs(std::string name, NodeId p, NodeId m, const Device& controlling,
           double gain)
    : Device(std::move(name)), p_(p), m_(m), controlling_(&controlling),
      gain_(gain) {
  NEMTCAM_EXPECT_MSG(controlling.branch_count() > 0,
                     "CCCS controlling element must own an MNA branch");
}

void Cccs::stamp_fixed(Stamper& s, const StampContext&) {
  s.branch_controlled_current(p_, m_, controlling_->first_branch(), gain_);
}

Ccvs::Ccvs(std::string name, NodeId p, NodeId m, const Device& controlling,
           double transresistance)
    : Device(std::move(name)), p_(p), m_(m), controlling_(&controlling),
      r_(transresistance) {
  NEMTCAM_EXPECT_MSG(controlling.branch_count() > 0,
                     "CCVS controlling element must own an MNA branch");
}

void Ccvs::stamp_fixed(Stamper& s, const StampContext&) {
  // Branch row: v_p − v_m − r·i_ctrl = 0.
  s.voltage_source(p_, m_, first_branch(), 0.0);
  s.branch_row_branch(first_branch(), controlling_->first_branch(), -r_);
}


spice::DeviceTopology Vcvs::topology() const {
  // The output branch is voltage-defined (a DC path); the control pair
  // only senses — deliberately not coupled, so a control-side island with
  // no ground reference of its own is still reported.
  return {{{"p", p_}, {"m", m_}, {"cp", cp_}, {"cm", cm_}},
          {{0, 1, spice::DcCoupling::Conductive}}};
}

spice::DeviceTopology Vccs::topology() const {
  return {{{"p", p_}, {"m", m_}, {"cp", cp_}, {"cm", cm_}},
          {{0, 1, spice::DcCoupling::Open}}};
}

spice::DeviceTopology Cccs::topology() const {
  return {{{"p", p_}, {"m", m_}}, {{0, 1, spice::DcCoupling::Open}}};
}

spice::DeviceTopology Ccvs::topology() const {
  return {{{"p", p_}, {"m", m_}}, {{0, 1, spice::DcCoupling::Conductive}}};
}

}  // namespace nemtcam::devices
