// MNA assembly helper.
//
// Unknown layout: node voltages for ids 1..N-1 occupy indices 0..N-2;
// branch currents follow. The assembled system is the Newton update
// equation J·v_new = rhs where rhs already folds in the nonlinear
// equivalent currents (rhs = J·v_iter − f(v_iter) contributions).
//
// Sign conventions:
//  - conductance(a, b, g): element between a and b.
//  - current(a, b, i): current i flows from a to b *through the device*
//    (it leaves node a and enters node b).
//  - vccs(a, b, c, d, gm): current gm·(v_c − v_d) flows from a to b.
//  - voltage_source(p, m, br, V): enforces v_p − v_m = V; the branch
//    unknown is the current flowing from p to m through the source
//    (i.e. into the + terminal).
#pragma once

#include "spice/AssemblyCache.h"
#include "spice/Types.h"
#include "util/Expect.h"

#include <vector>

namespace nemtcam::spice {

class Stamper {
 public:
  // Matrix contributions go to the fixed-pattern assembly (see
  // AssemblyCache), right-hand-side contributions to `rhs`.
  Stamper(AssemblyCache& cache, std::vector<double>& rhs, int n_node_unknowns)
      : cache_(cache), rhs_(rhs), n_node_unknowns_(n_node_unknowns) {}

  void conductance(NodeId a, NodeId b, double g) {
    const int ia = idx(a);
    const int ib = idx(b);
    if (ia >= 0) madd(u(ia), u(ia), g);
    if (ib >= 0) madd(u(ib), u(ib), g);
    if (ia >= 0 && ib >= 0) {
      madd(u(ia), u(ib), -g);
      madd(u(ib), u(ia), -g);
    }
  }

  void current(NodeId a, NodeId b, double i) {
    const int ia = idx(a);
    const int ib = idx(b);
    if (ia >= 0) rhs_[u(ia)] -= i;
    if (ib >= 0) rhs_[u(ib)] += i;
  }

  void vccs(NodeId a, NodeId b, NodeId c, NodeId d, double gm) {
    const int ia = idx(a);
    const int ib = idx(b);
    const int ic = idx(c);
    const int id = idx(d);
    if (ia >= 0 && ic >= 0) madd(u(ia), u(ic), gm);
    if (ia >= 0 && id >= 0) madd(u(ia), u(id), -gm);
    if (ib >= 0 && ic >= 0) madd(u(ib), u(ic), -gm);
    if (ib >= 0 && id >= 0) madd(u(ib), u(id), gm);
  }

  // Convenience for a two-terminal nonlinear element: current i(v_ab)
  // flowing a→b, with derivative didv, both evaluated at iterate v_ab.
  void nonlinear_current(NodeId a, NodeId b, double i_at_iter, double didv,
                         double v_ab_iter) {
    conductance(a, b, didv);
    current(a, b, i_at_iter - didv * v_ab_iter);
  }

  void voltage_source(NodeId plus, NodeId minus, BranchId br, double volts) {
    NEMTCAM_EXPECT(br >= 0);
    const int ip = idx(plus);
    const int im = idx(minus);
    const std::size_t rb = static_cast<std::size_t>(n_node_unknowns_ + br);
    if (ip >= 0) {
      madd(u(ip), rb, 1.0);
      madd(rb, u(ip), 1.0);
    }
    if (im >= 0) {
      madd(u(im), rb, -1.0);
      madd(rb, u(im), -1.0);
    }
    rhs_[rb] += volts;
  }

  // Adds series resistance to a previously stamped voltage-source branch:
  // the branch row becomes v_p − v_m − r·i = V.
  void branch_series_resistance(BranchId br, double r) {
    NEMTCAM_EXPECT(br >= 0);
    const std::size_t rb = static_cast<std::size_t>(n_node_unknowns_ + br);
    madd(rb, rb, -r);
  }

  // Current gain·i(src_branch) flowing a→b (CCCS coupling).
  void branch_controlled_current(NodeId a, NodeId b, BranchId src_branch,
                                 double gain) {
    NEMTCAM_EXPECT(src_branch >= 0);
    const std::size_t cb = static_cast<std::size_t>(n_node_unknowns_ + src_branch);
    const int ia = idx(a);
    const int ib = idx(b);
    if (ia >= 0) madd(u(ia), cb, gain);
    if (ib >= 0) madd(u(ib), cb, -gain);
  }

  // Adds coeff·v(n) into a branch row (VCVS control term).
  void branch_row_node(BranchId row_branch, NodeId n, double coeff) {
    NEMTCAM_EXPECT(row_branch >= 0);
    const int in = idx(n);
    if (in < 0) return;
    const std::size_t rb = static_cast<std::size_t>(n_node_unknowns_ + row_branch);
    madd(rb, u(in), coeff);
  }

  // Adds coeff·i(ctrl_branch) into a branch row (CCVS control term).
  void branch_row_branch(BranchId row_branch, BranchId ctrl_branch,
                         double coeff) {
    NEMTCAM_EXPECT(row_branch >= 0 && ctrl_branch >= 0);
    const std::size_t rb = static_cast<std::size_t>(n_node_unknowns_ + row_branch);
    const std::size_t cb = static_cast<std::size_t>(n_node_unknowns_ + ctrl_branch);
    madd(rb, cb, coeff);
  }

  int node_unknowns() const noexcept { return n_node_unknowns_; }

 private:
  static int idx(NodeId n) { return n - 1; }  // -1 for ground
  static std::size_t u(int i) { return static_cast<std::size_t>(i); }

  void madd(std::size_t r, std::size_t c, double v) { cache_.add(r, c, v); }

  AssemblyCache& cache_;
  std::vector<double>& rhs_;
  int n_node_unknowns_;
};

}  // namespace nemtcam::spice
