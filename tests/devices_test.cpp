#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "devices/Fefet.h"
#include "devices/Mosfet.h"
#include "devices/NemRelay.h"
#include "devices/Passive.h"
#include "devices/Rram.h"
#include "devices/Sources.h"
#include "devices/Switch.h"
#include "spice/Circuit.h"
#include "spice/Newton.h"
#include "spice/Transient.h"
#include "util/Units.h"

namespace {

using namespace nemtcam;
using namespace nemtcam::spice;
using namespace nemtcam::devices;

// --- MOSFET -----------------------------------------------------------

TEST(Mosfet, NmosCutoffConductsOnlyLeakage) {
  Circuit c;
  const NodeId d = c.node("d");
  const NodeId g = c.node("g");
  c.add<VSource>("Vd", d, c.ground(), 1.0);
  c.add<VSource>("Vg", g, c.ground(), 0.0);
  auto& m = c.add<Mosfet>("M1", d, g, c.ground(), MosfetParams::nmos_lp());
  const auto dc = dc_operating_point(c);
  ASSERT_TRUE(dc.converged);
  StampContext ctx(0, 0, true, c.node_unknowns(), &dc.v, &dc.v);
  const double leak = m.ids(ctx);
  EXPECT_GT(leak, 0.0);
  EXPECT_LT(leak, 100e-12);  // low-power process: sub-100 pA off-state
}

TEST(Mosfet, NmosOnCurrentIsMicroampScale) {
  Circuit c;
  const NodeId d = c.node("d");
  const NodeId g = c.node("g");
  c.add<VSource>("Vd", d, c.ground(), 1.0);
  c.add<VSource>("Vg", g, c.ground(), 1.0);
  auto& m = c.add<Mosfet>("M1", d, g, c.ground(), MosfetParams::nmos_lp());
  const auto dc = dc_operating_point(c);
  ASSERT_TRUE(dc.converged);
  StampContext ctx(0, 0, true, c.node_unknowns(), &dc.v, &dc.v);
  const double ion = m.ids(ctx);
  EXPECT_GT(ion, 5e-6);
  EXPECT_LT(ion, 500e-6);
}

TEST(Mosfet, OnOffRatioExceedsFiveOrders) {
  const MosfetParams p = MosfetParams::nmos_lp();
  const MosEval on = ekv_eval(p, p.vth, 1.0, 1.0, 0.0);
  const MosEval off = ekv_eval(p, p.vth, 0.0, 1.0, 0.0);
  EXPECT_GT(on.ids / off.ids, 1e5);
}

TEST(Mosfet, SymmetricUnderDrainSourceSwap) {
  const MosfetParams p = MosfetParams::nmos_lp();
  const MosEval fwd = ekv_eval(p, p.vth, 1.0, 0.7, 0.2);
  const MosEval rev = ekv_eval(p, p.vth, 1.0, 0.2, 0.7);
  EXPECT_NEAR(fwd.ids, -rev.ids, 1e-15);
}

TEST(Mosfet, PmosConductsWithLowGate) {
  const MosfetParams p = MosfetParams::pmos_lp();
  // Source at VDD (treat v_d=0, v_s=1): gate low turns it on, current S→D
  // (negative D→S convention).
  const MosEval on = ekv_eval(p, p.vth, /*g=*/0.0, /*d=*/0.0, /*s=*/1.0);
  const MosEval off = ekv_eval(p, p.vth, 1.0, 0.0, 1.0);
  EXPECT_LT(on.ids, 0.0);
  EXPECT_GT(std::fabs(on.ids) / std::fabs(off.ids), 1e4);
}

TEST(Mosfet, SaturationCurrentGrowsQuadratically) {
  const MosfetParams p = MosfetParams::nmos_lp();
  const double i1 = ekv_eval(p, p.vth, p.vth + 0.2, 1.2, 0.0).ids;
  const double i2 = ekv_eval(p, p.vth, p.vth + 0.4, 1.2, 0.0).ids;
  EXPECT_NEAR(i2 / i1, 4.0, 0.5);  // ~quadratic in overdrive
}

TEST(Mosfet, DerivativesMatchFiniteDifference) {
  const MosfetParams p = MosfetParams::nmos_lp();
  const double vg = 0.8, vd = 0.4, vs = 0.1, h = 1e-7;
  const MosEval e = ekv_eval(p, p.vth, vg, vd, vs);
  const double dg =
      (ekv_eval(p, p.vth, vg + h, vd, vs).ids - ekv_eval(p, p.vth, vg - h, vd, vs).ids) /
      (2 * h);
  const double dd =
      (ekv_eval(p, p.vth, vg, vd + h, vs).ids - ekv_eval(p, p.vth, vg, vd - h, vs).ids) /
      (2 * h);
  const double ds =
      (ekv_eval(p, p.vth, vg, vd, vs + h).ids - ekv_eval(p, p.vth, vg, vd, vs - h).ids) /
      (2 * h);
  EXPECT_NEAR(e.g_vg, dg, 1e-6 * std::fabs(dg) + 1e-12);
  EXPECT_NEAR(e.g_vd, dd, 1e-6 * std::fabs(dd) + 1e-12);
  EXPECT_NEAR(e.g_vs, ds, 1e-6 * std::fabs(ds) + 1e-12);
}

TEST(Mosfet, InverterSwitches) {
  Circuit c;
  const NodeId vdd = c.node("vdd");
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.add<VSource>("Vdd", vdd, c.ground(), 1.0);
  auto& vin = c.add<VSource>("Vin", in, c.ground(), 0.0);
  (void)vin;
  c.add<Mosfet>("Mp", out, in, vdd, MosfetParams::pmos_lp());
  c.add<Mosfet>("Mn", out, in, c.ground(), MosfetParams::nmos_lp());
  auto dc0 = dc_operating_point(c);
  ASSERT_TRUE(dc0.converged);
  EXPECT_NEAR(dc0.v[static_cast<std::size_t>(out - 1)], 1.0, 0.02);

  Circuit c1;
  const NodeId vdd1 = c1.node("vdd");
  const NodeId in1 = c1.node("in");
  const NodeId out1 = c1.node("out");
  c1.add<VSource>("Vdd", vdd1, c1.ground(), 1.0);
  c1.add<VSource>("Vin", in1, c1.ground(), 1.0);
  c1.add<Mosfet>("Mp", out1, in1, vdd1, MosfetParams::pmos_lp());
  c1.add<Mosfet>("Mn", out1, in1, c1.ground(), MosfetParams::nmos_lp());
  auto dc1 = dc_operating_point(c1);
  ASSERT_TRUE(dc1.converged);
  EXPECT_NEAR(dc1.v[static_cast<std::size_t>(out1 - 1)], 0.0, 0.02);
}

// --- NEM relay ---------------------------------------------------------

// Drives the relay gate with a pulse and returns (relay&, result).
struct RelayFixture {
  Circuit c;
  NemRelay* relay = nullptr;
  NodeId g, d, s;

  RelayFixture(double v_gate_high, double pulse_width_ns = 10.0) {
    g = c.node("g");
    d = c.node("d");
    s = c.node("s");
    c.add<VSource>("Vg", g, c.ground(),
                   std::make_unique<PulseWave>(0.0, v_gate_high, 0.1e-9,
                                               10e-12, 10e-12,
                                               pulse_width_ns * 1e-9));
    c.add<VSource>("Vd", d, c.ground(), 0.5);
    c.add<Resistor>("Rload", s, c.ground(), 10e3);
    relay = &c.add<NemRelay>("N1", d, g, s, c.ground());
  }

  spice::TransientResult run(double t_end) {
    TransientOptions opts;
    opts.t_end = t_end;
    opts.dt_init = 1e-12;
    opts.dt_max = 50e-12;
    return run_transient(c, opts);
  }
};

TEST(NemRelay, PullsInAboveVpi) {
  RelayFixture f(0.6);  // above V_PI = 0.53
  const auto res = f.run(5e-9);
  ASSERT_TRUE(res.finished) << res.failure;
  EXPECT_TRUE(f.relay->contact());
  // Source node follows drain through the 1 kΩ contact: 0.5 V divided
  // over 1k/10k → ~0.4545 V.
  const Trace vs = res.node_trace(f.s);
  EXPECT_NEAR(vs.back(), 0.5 * 10.0 / 11.0, 0.01);
}

TEST(NemRelay, StaysOpenBelowVpi) {
  RelayFixture f(0.4);  // inside the window, starting open
  const auto res = f.run(5e-9);
  ASSERT_TRUE(res.finished) << res.failure;
  EXPECT_FALSE(f.relay->contact());
  const Trace vs = res.node_trace(f.s);
  EXPECT_LT(vs.max_value(), 1e-3);
}

TEST(NemRelay, ContactDelayIsTauMech) {
  RelayFixture f(1.0);
  const auto res = f.run(5e-9);
  ASSERT_TRUE(res.finished) << res.failure;
  const Trace vs = res.node_trace(f.s);
  const auto t_on = vs.cross_time(0.2, true);
  ASSERT_TRUE(t_on.has_value());
  // Gate pulse starts at 0.1 ns and rises fast; the beam needs τ_mech=2 ns.
  EXPECT_NEAR(*t_on, 0.1e-9 + 2e-9, 0.2e-9);
}

TEST(NemRelay, HysteresisHoldsStateInsideWindow) {
  // Close the relay, then drop the gate to V_R = 0.3 V (inside window):
  // it must stay closed. This is the one-shot-refresh precondition.
  Circuit c;
  const NodeId g = c.node("g");
  const NodeId d = c.node("d");
  const NodeId s = c.node("s");
  c.add<VSource>("Vg", g, c.ground(),
                 std::make_unique<PwlWave>(std::vector<std::pair<double, double>>{
                     {0.0, 1.0}, {5e-9, 1.0}, {5.1e-9, 0.3}, {20e-9, 0.3}}));
  c.add<VSource>("Vd", d, c.ground(), 0.5);
  c.add<Resistor>("Rload", s, c.ground(), 10e3);
  auto& relay = c.add<NemRelay>("N1", d, g, s, c.ground());
  c.set_ic(g, 1.0);
  relay.set_state(true, 1.0);

  TransientOptions opts;
  opts.t_end = 20e-9;
  opts.dt_max = 100e-12;
  const auto res = run_transient(c, opts);
  ASSERT_TRUE(res.finished) << res.failure;
  EXPECT_TRUE(relay.contact());
}

TEST(NemRelay, ReleasesBelowVpo) {
  Circuit c;
  const NodeId g = c.node("g");
  const NodeId d = c.node("d");
  const NodeId s = c.node("s");
  c.add<VSource>("Vg", g, c.ground(),
                 std::make_unique<PwlWave>(std::vector<std::pair<double, double>>{
                     {0.0, 1.0}, {2e-9, 1.0}, {2.1e-9, 0.05}, {20e-9, 0.05}}));
  c.add<VSource>("Vd", d, c.ground(), 0.5);
  c.add<Resistor>("Rload", s, c.ground(), 10e3);
  auto& relay = c.add<NemRelay>("N1", d, g, s, c.ground());
  c.set_ic(g, 1.0);
  relay.set_state(true, 1.0);

  TransientOptions opts;
  opts.t_end = 20e-9;
  opts.dt_max = 100e-12;
  const auto res = run_transient(c, opts);
  ASSERT_TRUE(res.finished) << res.failure;
  EXPECT_FALSE(relay.contact());
  const Trace vs = res.node_trace(s);
  EXPECT_LT(vs.back(), 1e-3);
}

TEST(NemRelay, NoThresholdDropPassingHighLevel) {
  // A closed relay passes the full rail (unlike an NMOS pass gate).
  Circuit c;
  const NodeId d = c.node("d");
  const NodeId s = c.node("s");
  const NodeId g = c.node("g");
  c.add<VSource>("Vg", g, c.ground(), 1.0);
  c.add<VSource>("Vd", d, c.ground(), 1.0);
  c.add<Capacitor>("Cload", s, c.ground(), 1e-15);
  auto& relay = c.add<NemRelay>("N1", d, g, s, c.ground());
  relay.set_state(true, 1.0);

  TransientOptions opts;
  opts.t_end = 2e-9;
  opts.dt_max = 20e-12;
  const auto res = run_transient(c, opts);
  ASSERT_TRUE(res.finished) << res.failure;
  EXPECT_NEAR(res.node_trace(s).back(), 1.0, 1e-6);  // full rail, no Vth drop
}

TEST(NemRelay, GateCapacitanceTracksState) {
  NemRelay r("n", 1, 2, 3, 0);
  r.set_state(false);
  EXPECT_DOUBLE_EQ(r.gate_capacitance(), 15e-18);
  r.set_state(true);
  EXPECT_DOUBLE_EQ(r.gate_capacitance(), 20e-18);
}

// --- RRAM --------------------------------------------------------------

TEST(Rram, SetTransitionTakesWriteTime) {
  Circuit c;
  const NodeId top = c.node("top");
  c.add<VSource>("Vw", top, c.ground(),
                 std::make_unique<PulseWave>(0.0, 1.8, 0.1e-9, 10e-12, 10e-12,
                                             30e-9));
  auto& r = c.add<Rram>("R1", top, c.ground());
  r.set_state(0.0);

  TransientOptions opts;
  opts.t_end = 20e-9;
  opts.dt_max = 100e-12;
  const auto res = run_transient(c, opts);
  ASSERT_TRUE(res.finished) << res.failure;
  EXPECT_GT(r.state(), 0.95);
  EXPECT_NEAR(r.resistance(), 20e3, 2e3);
}

TEST(Rram, NoDisturbBelowThreshold) {
  Circuit c;
  const NodeId top = c.node("top");
  c.add<VSource>("Vw", top, c.ground(), 0.5);  // search-level voltage
  auto& r = c.add<Rram>("R1", top, c.ground());
  r.set_state(0.0);
  TransientOptions opts;
  opts.t_end = 50e-9;
  opts.dt_max = 100e-12;
  const auto res = run_transient(c, opts);
  ASSERT_TRUE(res.finished) << res.failure;
  EXPECT_DOUBLE_EQ(r.state(), 0.0);
}

TEST(Rram, ResetWithNegativePolarity) {
  Circuit c;
  const NodeId top = c.node("top");
  c.add<VSource>("Vw", top, c.ground(),
                 std::make_unique<PulseWave>(0.0, -1.2, 0.1e-9, 10e-12, 10e-12,
                                             30e-9));
  auto& r = c.add<Rram>("R1", top, c.ground());
  r.set_state(1.0);
  TransientOptions opts;
  opts.t_end = 25e-9;
  opts.dt_max = 100e-12;
  const auto res = run_transient(c, opts);
  ASSERT_TRUE(res.finished) << res.failure;
  EXPECT_LT(r.state(), 0.05);
  EXPECT_GT(r.resistance(), 1e6);
}

TEST(Rram, ResistanceInterpolates) {
  Rram r("r", 1, 0);
  r.set_state(1.0);
  EXPECT_NEAR(r.resistance(), 20e3, 1.0);
  r.set_state(0.0);
  EXPECT_NEAR(r.resistance(), 2e6, 1.0);
  EXPECT_TRUE(r.low_resistance() == false);
}

// --- FeFET -------------------------------------------------------------

TEST(Fefet, ProgramsWithPositiveGatePulse) {
  Circuit c;
  const NodeId g = c.node("g");
  c.add<VSource>("Vg", g, c.ground(),
                 std::make_unique<PulseWave>(0.0, 4.0, 0.1e-9, 10e-12, 10e-12,
                                             15e-9));
  auto& f = c.add<Fefet>("F1", c.node("d"), g, c.ground());
  f.set_polarization(-1.0);
  TransientOptions opts;
  opts.t_end = 12e-9;
  opts.dt_max = 100e-12;
  const auto res = run_transient(c, opts);
  ASSERT_TRUE(res.finished) << res.failure;
  EXPECT_GT(f.polarization(), 0.9);
  EXPECT_TRUE(f.is_low_vth());
  EXPECT_NEAR(f.vth_eff(), f.params().vth_low, 0.1);
}

TEST(Fefet, ErasesWithNegativeGatePulse) {
  Circuit c;
  const NodeId g = c.node("g");
  c.add<VSource>("Vg", g, c.ground(),
                 std::make_unique<PulseWave>(0.0, -4.0, 0.1e-9, 10e-12, 10e-12,
                                             15e-9));
  auto& f = c.add<Fefet>("F1", c.node("d"), g, c.ground());
  f.set_polarization(1.0);
  TransientOptions opts;
  opts.t_end = 12e-9;
  opts.dt_max = 100e-12;
  const auto res = run_transient(c, opts);
  ASSERT_TRUE(res.finished) << res.failure;
  EXPECT_LT(f.polarization(), -0.9);
  EXPECT_FALSE(f.is_low_vth());
}

TEST(Fefet, SearchVoltageDoesNotDisturb) {
  Circuit c;
  const NodeId g = c.node("g");
  c.add<VSource>("Vg", g, c.ground(), 1.0);  // VDD-level search drive
  auto& f = c.add<Fefet>("F1", c.node("d"), g, c.ground());
  f.set_polarization(-1.0);
  TransientOptions opts;
  opts.t_end = 50e-9;
  opts.dt_max = 200e-12;
  const auto res = run_transient(c, opts);
  ASSERT_TRUE(res.finished) << res.failure;
  EXPECT_DOUBLE_EQ(f.polarization(), -1.0);
}

TEST(Fefet, LowVthStateConductsAtVdd) {
  FefetParams p;
  Fefet low("f", 1, 2, 0, p);
  low.set_low_vth(true);
  Fefet high("f2", 1, 2, 0, p);
  high.set_low_vth(false);
  const MosEval on = ekv_eval(p.fet, low.vth_eff(), 1.0, 1.0, 0.0);
  const MosEval off = ekv_eval(p.fet, high.vth_eff(), 1.0, 1.0, 0.0);
  EXPECT_GT(on.ids / off.ids, 1e3);
}

// --- Switch ------------------------------------------------------------

TEST(Switch, TogglesResistance) {
  Circuit c;
  const NodeId a = c.node("a");
  c.add<VSource>("V", a, c.ground(), 1.0);
  const NodeId b = c.node("b");
  auto& sw = c.add<Switch>("S", a, b, 100.0, 1e12, false);
  c.add<Resistor>("R", b, c.ground(), 100.0);
  auto dc_open = dc_operating_point(c);
  ASSERT_TRUE(dc_open.converged);
  EXPECT_LT(dc_open.v[static_cast<std::size_t>(b - 1)], 1e-6);
  sw.set_closed(true);
  auto dc_closed = dc_operating_point(c);
  ASSERT_TRUE(dc_closed.converged);
  EXPECT_NEAR(dc_closed.v[static_cast<std::size_t>(b - 1)], 0.5, 1e-6);
}

// --- Energy bookkeeping across devices ----------------------------------

TEST(Energy, SourceEnergyEqualsDissipationPlusStored) {
  // V → R → C charge-up: E_src ≈ E_R + E_C(final).
  Circuit c;
  const NodeId vin = c.node("vin");
  const NodeId out = c.node("out");
  c.add<VSource>("V1", vin, c.ground(),
                 std::make_unique<PulseWave>(0.0, 1.0, 0.05e-9, 1e-12, 1e-12, 1.0));
  c.add<Resistor>("R", vin, out, 5e3);
  c.add<Capacitor>("C", out, c.ground(), 50e-15);
  TransientOptions opts;
  opts.t_end = 5e-9;
  opts.dt_max = 5e-12;
  const auto res = run_transient(c, opts);
  ASSERT_TRUE(res.finished) << res.failure;
  const double e_src = res.source_energy("V1");
  // Energy burned in R: trapezoidal ∫(v_in − v_out)²/R dt over the samples.
  const Trace v_in = res.node_trace(vin), v_out = res.node_trace(out);
  std::vector<double> p_r(v_out.size());
  for (std::size_t i = 0; i < v_out.size(); ++i) {
    const double dv = v_in.values()[i] - v_out.values()[i];
    p_r[i] = dv * dv / 5e3;
  }
  const double e_r = Trace(v_out.times(), std::move(p_r)).integral();
  const double v_final = v_out.back();
  const double e_c = 0.5 * 50e-15 * v_final * v_final;
  EXPECT_NEAR(e_src, e_r + e_c, 0.02 * e_src);
}

}  // namespace
