// LTE step-control tests: adaptive vs refined fixed-step accuracy (on an
// RC and on a 3T2N row search), the rejection path, relay event bisection,
// end-of-run sliver handling, and probe-recording column lookup; plus the
// Newton solve on a 2T2R row search held to the figures of the
// rebuild-everything Newton path it replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "devices/NemRelay.h"
#include "devices/Passive.h"
#include "devices/Rram.h"
#include "devices/Sources.h"
#include "spice/Circuit.h"
#include "spice/Transient.h"
#include "spice/Waveform.h"
#include "tcam/ArrayTemplate.h"
#include "tcam/Harness.h"
#include "tcam/RowSpecs.h"
#include "tcam/Rram2T2RRow.h"

namespace {

using namespace nemtcam;
using namespace nemtcam::spice;
using namespace nemtcam::devices;

// Ramp-driven RC: vin --R-- n --C-- gnd, 0→1 V over 1 ns then hold.
// τ = 1 ns, so the 10 ns window covers both the driven edge and the tail.
NodeId build_ramp_rc(Circuit& c) {
  const NodeId vin = c.node("vin");
  const NodeId n = c.node("out");
  c.add<VSource>("Vin", vin, c.ground(),
                 std::make_unique<PwlWave>(
                     std::vector<std::pair<double, double>>{{0.0, 0.0},
                                                            {1e-9, 1.0}}));
  c.add<Resistor>("R", vin, n, 1e3);
  c.add<Capacitor>("C", n, c.ground(), 1e-12);
  return n;
}

TransientOptions adaptive_opts(double t_end, double dt_max) {
  TransientOptions o;
  o.t_end = t_end;
  o.dt_init = 1e-13;
  o.dt_max = dt_max;
  o.step_control = StepControl::Lte;
  o.integrator = Integrator::Trapezoidal;
  return o;
}

TransientOptions fixed_opts(double t_end, double dt) {
  TransientOptions o;
  o.t_end = t_end;
  o.dt_init = dt;
  o.dt_max = dt;
  o.dt_grow = 1.0;
  return o;
}

TEST(StepControl, AdaptiveMatchesRefinedFixedReferenceOnRc) {
  const double t_end = 10e-9;

  Circuit ref_c;
  const NodeId ref_n = build_ramp_rc(ref_c);
  const auto ref = run_transient(ref_c, fixed_opts(t_end, 2e-12));
  ASSERT_TRUE(ref.finished);

  Circuit ad_c;
  const NodeId ad_n = build_ramp_rc(ad_c);
  const auto ad = run_transient(ad_c, adaptive_opts(t_end, 1e-9));
  ASSERT_TRUE(ad.finished);

  // Same waveform within a few mV everywhere...
  const Trace vref = ref.node_trace(ref_n);
  const Trace vad = ad.node_trace(ad_n);
  double worst = 0.0;
  for (int k = 1; k <= 100; ++k) {
    const double t = t_end * k / 100.0;
    worst = std::max(worst, std::fabs(vad.at(t) - vref.at(t)));
  }
  EXPECT_LT(worst, 5e-3);

  // ...the same delivered energy within 1%...
  const double e_ref = ref.total_source_energy();
  const double e_ad = ad.total_source_energy();
  EXPECT_GT(e_ref, 0.0);
  EXPECT_LT(std::fabs(e_ad - e_ref) / e_ref, 0.01);

  // ...at better than 5x fewer accepted steps.
  EXPECT_LT(ad.steps_taken * 5, ref.steps_taken);
}

// A 16-bit 3T2N row search — checkerboard word, key mismatching bit 0 —
// on the one-row fixture of a 64-row column, with the cell search_spec_for
// elaborates, run under `opts` (its t_end is replaced by the fixture's).
tcam::ArraySearchMetrics nem_search(TransientOptions opts) {
  using core::Ternary;
  constexpr int kWidth = 16;
  const tcam::SearchTemplateSpec spec = tcam::search_spec_for(
      tcam::TcamKind::Nem3T2N, tcam::Calibration::standard());
  core::TernaryWord word(kWidth);
  for (std::size_t i = 0; i < word.size(); ++i)
    word[i] = (i % 2) ? Ternary::Zero : Ternary::One;
  core::TernaryWord key = word;
  key[0] = Ternary::Zero;

  tcam::ArrayFixture fx(spec, /*rows=*/1, kWidth, key, {},
                        /*column_rows=*/64);
  const tcam::PortNets nets = fx.port_nets(0);
  for (int i = 0; i < kWidth; ++i)
    spec.bind(fx.circuit(),
              tcam::elaborate_cell(fx.circuit(), spec.cell,
                                   "Xcell" + std::to_string(i), nets, i,
                                   spec.cell.params),
              word[static_cast<std::size_t>(i)]);
  opts.t_end = fx.t_end();
  opts.probe_nodes = {fx.ml(0)};
  return fx.metrics(run_transient(fx.circuit(), opts),
                    tcam::width_scaled_strobe(spec.t_strobe, kWidth));
}

TEST(StepControl, AdaptiveSearchMatchesRefinedFixedReference) {
  // Reference: fixed-growth Backward Euler at a 0.25 ps ceiling, where the
  // ML delay and search energy have stopped moving with dt_max.
  TransientOptions fixed;
  fixed.dt_init = 1e-13;
  fixed.dt_max = 0.25e-12;
  ASSERT_EQ(fixed.step_control, StepControl::FixedGrowth);
  const tcam::ArraySearchMetrics ref = nem_search(fixed);
  const tcam::ArraySearchMetrics ad = nem_search(step_defaults(0.0));
  ASSERT_TRUE(ref.ok) << ref.note;
  ASSERT_TRUE(ad.ok) << ad.note;
  const tcam::ArrayRowResult& ref_row = ref.rows.at(0);
  const tcam::ArrayRowResult& ad_row = ad.rows.at(0);
  EXPECT_FALSE(ref_row.matched);
  EXPECT_FALSE(ad_row.matched);

  ASSERT_GT(ref_row.latency, 0.0);
  ASSERT_GT(ref.energy, 0.0);
  EXPECT_LT(std::fabs(ad_row.latency - ref_row.latency) / ref_row.latency,
            0.01);
  EXPECT_LT(std::fabs(ad.energy - ref.energy) / ref.energy, 0.01);
  EXPECT_GE(ref.steps, 50 * ad.steps)
      << "reference " << ref.steps << " steps, adaptive " << ad.steps;
}

TEST(StepControl, RejectionPathShrinksOversizedSteps) {
  Circuit c;
  const NodeId n = build_ramp_rc(c);
  (void)n;
  // Start at a step the tolerance cannot possibly accept mid-ramp; the
  // controller must reject its way down and still finish.
  TransientOptions o = adaptive_opts(10e-9, 5e-9);
  o.dt_init = 1e-9;
  const auto res = run_transient(c, o);
  ASSERT_TRUE(res.finished);
  EXPECT_GT(res.steps_rejected, 0u);
}

TEST(StepControl, EventBisectionLocatesRelayPullInAndContact) {
  // Ideal ramp on the relay gate: 0→1.06 V over 2 ns crosses
  // V_PI = 0.53 V at exactly t_x = 1 ns; the beam then traverses the gap
  // in τ_mech, so contact closes at t_x + τ_mech.
  Circuit c;
  const NodeId g = c.node("gate");
  const NodeId d = c.node("drain");
  c.add<VSource>("Vg", g, c.ground(),
                 std::make_unique<PwlWave>(
                     std::vector<std::pair<double, double>>{{0.0, 0.0},
                                                            {2e-9, 1.06}}));
  c.add<VSource>("Vd", d, c.ground(), 1.0, /*series_ohms=*/10e3);
  auto& relay = c.add<NemRelay>("N", d, g, c.ground(), c.ground());
  const double t_x = 1e-9;
  const double tau = relay.params().tau_mech;

  TransientOptions o = adaptive_opts(t_x + tau + 1e-9, 0.5e-9);
  const auto res = run_transient(c, o);
  ASSERT_TRUE(res.finished);

  // Pull-in start and contact arrival were both located.
  EXPECT_GE(res.events_located, 2u);
  EXPECT_TRUE(relay.contact());

  // A step landed just past the pull-in crossing (bisection tolerance plus
  // the Newton bracket granularity).
  double nearest = 1.0;
  for (double t : res.times) nearest = std::min(nearest, std::fabs(t - t_x));
  EXPECT_LT(nearest, 5e-12);

  // Contact time telemetry agrees with the analytic t_x + τ_mech.
  EXPECT_NEAR(relay.t_contact_closed(), t_x + tau, 1e-11);

  // The whole run needed only a modest step count despite the ps-accurate
  // switch location (the fixed 20 ps grid would take ~200 steps).
  EXPECT_LT(res.steps_taken, 120u);
}

TEST(StepControl, EndOfRunSliverIsMergedIntoFinalStep) {
  Circuit c;
  const NodeId vin = c.node("vin");
  const NodeId n = c.node("out");
  const double t_end = 1e-9;
  // A source corner a quarter of dt_min before t_end: landing on it would
  // schedule a sub-dt_min sliver, so it must merge into the final step.
  c.add<VSource>("Vin", vin, c.ground(),
                 std::make_unique<PwlWave>(std::vector<std::pair<double, double>>{
                     {0.0, 0.0}, {t_end - 2.5e-13, 1.0}, {t_end, 1.0}}));
  c.add<Resistor>("R", vin, n, 1e3);
  c.add<Capacitor>("C", n, c.ground(), 1e-13);

  TransientOptions o = adaptive_opts(t_end, 0.2e-9);
  o.dt_init = 1e-12;
  o.dt_min = 1e-12;
  const auto res = run_transient(c, o);
  ASSERT_TRUE(res.finished);
  ASSERT_GE(res.times.size(), 2u);
  EXPECT_DOUBLE_EQ(res.times.back(), t_end);
  for (std::size_t i = 1; i < res.times.size(); ++i)
    EXPECT_GE(res.times[i] - res.times[i - 1], o.dt_min * (1.0 - 1e-6));
}

TEST(StepControl, ProbeRecordingResolvesOnlyProbedColumns) {
  Circuit c;
  const NodeId vin = c.node("vin");
  const NodeId n = c.node("out");
  c.add<VSource>("Vin", vin, c.ground(), 1.0);
  c.add<Resistor>("R", vin, n, 1e3);
  c.add<Capacitor>("C", n, c.ground(), 1e-12);

  TransientOptions o = adaptive_opts(5e-9, 1e-9);
  o.probe_nodes = {n};
  const auto res = run_transient(c, o);
  ASSERT_TRUE(res.finished);

  const Trace v = res.node_trace(n);
  EXPECT_NEAR(v.at(5e-9), 1.0, 0.01);          // fully charged
  EXPECT_THROW(res.node_trace(vin), std::logic_error);  // not probed
}

// An 8-bit 2T2R row (16-row column load, checkerboard word) run with
// step_defaults over precharge plus the search window, for the matching
// key and for a key with bit 0 flipped to '0'. The verdicts and ML levels
// are the figures of the Newton path that rebuilt the matrix and re-picked
// every pivot each iteration, measured on this circuit (gcc 12.2 Release)
// before that path was deleted. The assembly-cache path reuses one pivot
// order across iterations, so it agrees to solver tolerance, not bitwise.
// The energies are the assembly-cache path's own, re-recorded when the
// fixed stamps moved to once per solve: that reorders the stamp sums, and
// the step control carries the rounding into the integrated energy.
TEST(SolverFastPath, MatchesRebuildPathGoldensOnTcamSearch) {
  struct Golden {
    bool flip_bit0;
    bool matched;     // verdict at the strobe
    double ml_final;  // V
    double energy;    // J
  };
  const Golden goldens[] = {
      // The rebuild path's energies: 1.8918769629084592e-14 (match) and
      // 1.9386094381567652e-14 (miss), 1.1e-6 and 7.0e-6 away.
      {false, true, 0.2556633168076079, 1.8918749071394841e-14},
      {true, false, 2.9069869146477404e-4, 1.9386230883260649e-14},
  };

  const tcam::Calibration cal = tcam::Calibration::standard();
  tcam::SearchTemplate tpl(
      tcam::search_spec_for(tcam::TcamKind::Rram2T2R, cal), 8, 16);
  core::TernaryWord word(8);
  for (std::size_t i = 0; i < 8; ++i)
    word[i] = (i % 2) ? core::Ternary::Zero : core::Ternary::One;

  for (const Golden& g : goldens) {
    core::TernaryWord key = word;
    if (g.flip_bit0) key[0] = core::Ternary::Zero;
    // Elaborates the circuit for the first key; rebinds the SL drivers for
    // the second.
    tpl.ensure_built(key, word);
    Circuit& ckt = *tpl.circuit();
    // Seed the stored word from a clean state, as every search does.
    ckt.reset_device_states();
    for (std::size_t i = 0; i < 8; ++i) {
      const tcam::Rram2T2RRow::RramStates st =
          tcam::Rram2T2RRow::states_for(word[i]);
      const std::string cell = "Xcell" + std::to_string(i) + ".";
      dynamic_cast<Rram&>(*ckt.find(cell + "Ra"))
          .set_state(st.a_lrs ? 1.0 : 0.0);
      dynamic_cast<Rram&>(*ckt.find(cell + "Rb"))
          .set_state(st.b_lrs ? 1.0 : 0.0);
    }
    const TransientResult r =
        run_transient(ckt, step_defaults(cal.t_precharge + cal.t_search_window));
    ASSERT_TRUE(r.finished) << r.failure;

    const Trace ml = r.node_trace(ckt.node("ml"));
    double ml_min = ml.back();
    for (std::size_t i = 0; i < ml.size(); ++i)
      if (ml.times()[i] >= tpl.t_edge())
        ml_min = std::min(ml_min, ml.values()[i]);
    const bool matched =
        ml.at(tpl.t_edge() + tpl.default_strobe()) > cal.ml_sense_level;

    EXPECT_EQ(matched, g.matched);
    EXPECT_NEAR(ml.back(), g.ml_final, 1e-6);
    // The ML only discharges after the SL edge, so its minimum from the
    // edge on is its final value.
    EXPECT_NEAR(ml_min, g.ml_final, 1e-6);
    EXPECT_NEAR(r.total_source_energy(), g.energy, 1e-6 * g.energy);
  }
}

}  // namespace
