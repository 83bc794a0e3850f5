// Additional engine-level property tests: linear-network invariants
// (superposition, reciprocity-ish checks), sparse-vs-dense cross checks on
// MNA systems, trace utilities, and robustness edges.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "devices/Passive.h"
#include "devices/Sources.h"
#include "spice/Circuit.h"
#include "spice/Newton.h"
#include "spice/Recovery.h"
#include "spice/Transient.h"
#include "spice/Waveform.h"
#include "util/Random.h"

namespace {

using namespace nemtcam;
using namespace nemtcam::spice;
using namespace nemtcam::devices;

double node_v(const DcResult& dc, NodeId n) {
  return dc.v[static_cast<std::size_t>(n - 1)];
}

// Builds a random resistive ladder network with two sources whose values
// are injected; returns the DC voltage at a probe node.
double random_network_probe(std::uint64_t seed, double v1, double v2) {
  util::Rng rng(seed);
  Circuit c;
  const int n_nodes = 8;
  std::vector<NodeId> nodes;
  for (int i = 0; i < n_nodes; ++i) {
    // Built up in place: `"n" + std::to_string(i)` trips a GCC 12
    // -Wrestrict false positive (PR105329) under -Werror.
    std::string name = "n";
    name += std::to_string(i);
    nodes.push_back(c.node(name));
  }
  // Ladder plus random cross links (values fixed by the seed).
  for (int i = 0; i + 1 < n_nodes; ++i)
    c.add<Resistor>("Rl" + std::to_string(i), nodes[static_cast<std::size_t>(i)],
                    nodes[static_cast<std::size_t>(i + 1)],
                    rng.uniform(1e3, 20e3));
  for (int k = 0; k < 5; ++k) {
    const int a = rng.uniform_int(0, n_nodes - 1);
    const int b = rng.uniform_int(0, n_nodes - 1);
    if (a == b) continue;
    c.add<Resistor>("Rx" + std::to_string(k), nodes[static_cast<std::size_t>(a)],
                    nodes[static_cast<std::size_t>(b)],
                    rng.uniform(1e3, 50e3));
  }
  c.add<Resistor>("Rg", nodes[4], c.ground(), 5e3);
  c.add<VSource>("V1", nodes[0], c.ground(), v1);
  c.add<VSource>("V2", nodes[7], c.ground(), v2);
  const auto dc = dc_operating_point(c);
  if (!dc.converged) return NAN;
  return node_v(dc, nodes[3]);
}

TEST(LinearNetwork, SuperpositionHolds) {
  for (std::uint64_t seed : {1u, 7u, 42u, 99u, 1234u}) {
    const double both = random_network_probe(seed, 1.0, 0.7);
    const double only1 = random_network_probe(seed, 1.0, 0.0);
    const double only2 = random_network_probe(seed, 0.0, 0.7);
    ASSERT_FALSE(std::isnan(both));
    EXPECT_NEAR(both, only1 + only2, 1e-9) << "seed=" << seed;
  }
}

TEST(LinearNetwork, ScalingLinearity) {
  for (std::uint64_t seed : {3u, 21u}) {
    const double base = random_network_probe(seed, 0.5, 0.25);
    const double scaled = random_network_probe(seed, 1.5, 0.75);
    EXPECT_NEAR(scaled, 3.0 * base, 1e-9);
  }
}

TEST(Transient, LinearityOfResponses) {
  // For a linear RC network, doubling the source amplitude doubles the
  // response at every recorded instant.
  auto run_amp = [](double amp) {
    Circuit c;
    const NodeId vin = c.node("vin");
    const NodeId out = c.node("out");
    c.add<VSource>("V1", vin, c.ground(),
                   std::make_unique<PulseWave>(0.0, amp, 0.2e-9, 50e-12,
                                               50e-12, 3e-9));
    c.add<Resistor>("R", vin, out, 2e3);
    c.add<Capacitor>("C", out, c.ground(), 0.5e-12);
    TransientOptions opts;
    opts.t_end = 5e-9;
    opts.dt_max = 20e-12;
    return run_transient(c, opts);
  };
  const auto r1 = run_amp(0.4);
  const auto r2 = run_amp(0.8);
  ASSERT_TRUE(r1.finished && r2.finished);
  // Compare on a fixed sampling (adaptive steps differ between runs).
  const Trace t1 = r1.node_trace(2);
  const Trace t2 = r2.node_trace(2);
  for (double t = 0.4e-9; t < 5e-9; t += 0.4e-9)
    EXPECT_NEAR(t2.at(t), 2.0 * t1.at(t), 2e-3);
}

TEST(Transient, TimeInvarianceOfDelay) {
  // Shifting the stimulus shifts the response: measure 50% crossing
  // relative to the pulse edge for two different delays.
  auto crossing_after_edge = [](double delay) {
    Circuit c;
    const NodeId vin = c.node("vin");
    const NodeId out = c.node("out");
    c.add<VSource>("V1", vin, c.ground(),
                   std::make_unique<PulseWave>(0.0, 1.0, delay, 20e-12,
                                               20e-12, 10e-9));
    c.add<Resistor>("R", vin, out, 1e3);
    c.add<Capacitor>("C", out, c.ground(), 1e-12);
    TransientOptions opts;
    opts.t_end = delay + 6e-9;
    opts.dt_max = 10e-12;
    const auto res = run_transient(c, opts);
    const auto cross = res.node_trace(out).cross_time(0.5, true);
    return cross.value_or(-1.0) - delay;
  };
  const double d1 = crossing_after_edge(0.5e-9);
  const double d2 = crossing_after_edge(2.3e-9);
  ASSERT_GT(d1, 0.0);
  EXPECT_NEAR(d1, d2, 3e-12);
}

TEST(Transient, TwoCapacitorChargeSharing) {
  // Classic: C1 at 1 V dumped into C2 at 0 through a resistor → common
  // voltage C1/(C1+C2), energy halves (dissipated in R regardless of R).
  Circuit c;
  const NodeId a = c.node("a");
  const NodeId b = c.node("b");
  c.add<Capacitor>("C1", a, c.ground(), 1e-12);
  c.add<Capacitor>("C2", b, c.ground(), 1e-12);
  c.add<Resistor>("R", a, b, 1e3);
  c.set_ic(a, 1.0);
  TransientOptions opts;
  opts.t_end = 20e-9;
  opts.dt_max = 20e-12;
  const auto res = run_transient(c, opts);
  ASSERT_TRUE(res.finished);
  EXPECT_NEAR(res.node_trace(a).back(), 0.5, 1e-3);
  EXPECT_NEAR(res.node_trace(b).back(), 0.5, 1e-3);
  // Energy burned in R: trapezoidal ∫(v_a − v_b)²/R dt over the samples.
  const Trace va = res.node_trace(a), vb = res.node_trace(b);
  std::vector<double> p_r(va.size());
  for (std::size_t i = 0; i < va.size(); ++i) {
    const double dv = va.values()[i] - vb.values()[i];
    p_r[i] = dv * dv / 1e3;
  }
  EXPECT_NEAR(Trace(va.times(), std::move(p_r)).integral(), 0.25e-12,
              0.01e-12);
}

TEST(Transient, FailsGracefullyOnImpossibleCircuit) {
  // Two ideal voltage sources forcing different voltages on one node pair:
  // the MNA system is singular and the engine must report failure, not
  // crash or loop.
  Circuit c;
  const NodeId a = c.node("a");
  c.add<VSource>("V1", a, c.ground(), 1.0);
  c.add<VSource>("V2", a, c.ground(), 2.0);
  TransientOptions opts;
  opts.t_end = 1e-9;
  const auto res = run_transient(c, opts);
  EXPECT_FALSE(res.finished);
  EXPECT_FALSE(res.failure.empty());
  // No aid rescues it: the ladder runs to its last stage, which re-records
  // the pattern and re-pivots through the assembly cache, and still sees
  // a singular system.
  EXPECT_EQ(res.diagnostics.failure_stage, LadderStage::FullRefactor);
  EXPECT_TRUE(res.diagnostics.saw_singular);
  EXPECT_NE(res.failure.find("full-refactor"), std::string::npos)
      << res.failure;
}

TEST(Transient, RecordOffStillAccumulatesEnergy) {
  Circuit c;
  const NodeId n = c.node("n");
  c.add<VSource>("V1", n, c.ground(), 1.0);
  c.add<Resistor>("R", n, c.ground(), 1e3);
  TransientOptions opts;
  opts.t_end = 1e-9;
  opts.dt_max = 10e-12;
  opts.record = false;
  const auto res = run_transient(c, opts);
  ASSERT_TRUE(res.finished);
  EXPECT_TRUE(res.times.empty());
  // P = V²/R = 1 mW for 1 ns = 1 pJ.
  EXPECT_NEAR(res.source_energy("V1"), 1e-12, 0.02e-12);
}

TEST(Trace, SettleTimeEdgeCases) {
  // Always inside the band → t_begin.
  Trace flat({0.0, 1.0, 2.0}, {0.5, 0.5, 0.5});
  EXPECT_DOUBLE_EQ(flat.settle_time(0.5, 0.1).value(), 0.0);
  // Never settles → nullopt.
  Trace rising({0.0, 1.0, 2.0}, {0.0, 1.0, 2.0});
  EXPECT_FALSE(rising.settle_time(0.0, 0.1).has_value());
  // Settles mid-way: entry point interpolated.
  Trace step({0.0, 1.0, 2.0, 3.0}, {1.0, 1.0, 0.0, 0.0});
  const auto ts = step.settle_time(0.0, 0.2);
  ASSERT_TRUE(ts.has_value());
  EXPECT_NEAR(*ts, 1.8, 1e-12);
}

TEST(Trace, IntegralSubrangeConsistency) {
  util::Rng rng(5);
  std::vector<double> ts, vs;
  double t = 0.0;
  for (int i = 0; i < 50; ++i) {
    ts.push_back(t);
    vs.push_back(rng.uniform(-1.0, 1.0));
    t += rng.uniform(0.01, 0.2);
  }
  Trace tr(ts, vs);
  const double whole = tr.integral();
  const double mid = ts[25];
  EXPECT_NEAR(whole, tr.integral(ts.front(), mid) + tr.integral(mid, ts.back()),
              1e-12);
}

TEST(Waveform, PwlBreakpointsExcludeEnds) {
  PwlWave w({{0.0, 0.0}, {1e-9, 1.0}, {5e-9, 0.0}});
  const auto bps = w.breakpoints(4e-9);
  ASSERT_EQ(bps.size(), 1u);
  EXPECT_DOUBLE_EQ(bps[0], 1e-9);
}

TEST(Circuit, AnonymousNodesAreUnique) {
  Circuit c;
  const NodeId a = c.make_node();
  const NodeId b = c.make_node();
  EXPECT_NE(a, b);
  EXPECT_NE(a, c.ground());
}

}  // namespace
