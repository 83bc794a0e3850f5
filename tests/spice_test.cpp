#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "devices/Diode.h"
#include "devices/Fefet.h"
#include "devices/Inductor.h"
#include "devices/Mosfet.h"
#include "devices/Mtj.h"
#include "devices/NemRelay.h"
#include "devices/Passive.h"
#include "devices/Rram.h"
#include "devices/Sources.h"
#include "linalg/SparseLu.h"
#include "spice/AssemblyCache.h"
#include "spice/Circuit.h"
#include "spice/Newton.h"
#include "spice/Stamper.h"
#include "spice/Transient.h"
#include "spice/Waveform.h"

namespace {

using namespace nemtcam;
using namespace nemtcam::spice;
using namespace nemtcam::devices;

TEST(Waveform, PulseShape) {
  // PULSE(0 1 | delay 1ns | rise 0.1ns | fall 0.1ns | width 2ns)
  PulseWave p(0.0, 1.0, 1e-9, 0.1e-9, 0.1e-9, 2e-9);
  EXPECT_DOUBLE_EQ(p.value(0.0), 0.0);
  EXPECT_DOUBLE_EQ(p.value(0.999e-9), 0.0);
  EXPECT_NEAR(p.value(1.05e-9), 0.5, 1e-9);
  EXPECT_DOUBLE_EQ(p.value(2.0e-9), 1.0);
  EXPECT_NEAR(p.value(3.15e-9), 0.5, 1e-9);
  EXPECT_DOUBLE_EQ(p.value(5.0e-9), 0.0);
}

TEST(Waveform, PulseBreakpointsCoverEdges) {
  PulseWave p(0.0, 1.0, 1e-9, 0.1e-9, 0.1e-9, 2e-9);
  const auto bps = p.breakpoints(10e-9);
  ASSERT_EQ(bps.size(), 4u);
  EXPECT_DOUBLE_EQ(bps[0], 1e-9);
  EXPECT_DOUBLE_EQ(bps[1], 1.1e-9);
  EXPECT_DOUBLE_EQ(bps[2], 3.1e-9);
  EXPECT_DOUBLE_EQ(bps[3], 3.2e-9);
}

TEST(Waveform, PeriodicPulseRepeats) {
  PulseWave p(0.0, 1.0, 0.0, 0.1e-9, 0.1e-9, 0.4e-9, 1e-9);
  EXPECT_DOUBLE_EQ(p.value(0.3e-9), 1.0);
  EXPECT_DOUBLE_EQ(p.value(1.3e-9), 1.0);
  EXPECT_DOUBLE_EQ(p.value(0.8e-9), 0.0);
  EXPECT_DOUBLE_EQ(p.value(1.8e-9), 0.0);
}

TEST(Waveform, PwlInterpolatesAndClamps) {
  PwlWave w({{0.0, 0.0}, {1e-9, 1.0}, {2e-9, 0.5}});
  EXPECT_DOUBLE_EQ(w.value(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(w.value(0.5e-9), 0.5);
  EXPECT_DOUBLE_EQ(w.value(1.5e-9), 0.75);
  EXPECT_DOUBLE_EQ(w.value(5e-9), 0.5);
}

TEST(Waveform, SinBasics) {
  SinWave w(0.5, 0.5, 1e9);
  EXPECT_DOUBLE_EQ(w.value(0.0), 0.5);
  EXPECT_NEAR(w.value(0.25e-9), 1.0, 1e-9);
}

TEST(Circuit, NodeNamingAndGround) {
  Circuit c;
  EXPECT_EQ(c.node("gnd"), kGround);
  EXPECT_EQ(c.node("0"), kGround);
  const NodeId a = c.node("a");
  EXPECT_EQ(c.node("a"), a);
  const NodeId b = c.node("b");
  EXPECT_NE(a, b);
  EXPECT_EQ(c.node_count(), 3u);
  EXPECT_EQ(c.node_name(a), "a");
}

TEST(Circuit, InitialStateUsesIcs) {
  Circuit c;
  const NodeId a = c.node("a");
  c.node("b");
  c.set_ic(a, 0.7);
  const auto v0 = c.initial_state();
  EXPECT_DOUBLE_EQ(v0[static_cast<std::size_t>(a - 1)], 0.7);
}

TEST(Dc, VoltageDivider) {
  Circuit c;
  const NodeId vin = c.node("vin");
  const NodeId mid = c.node("mid");
  c.add<VSource>("V1", vin, c.ground(), 1.0);
  c.add<Resistor>("R1", vin, mid, 1e3);
  c.add<Resistor>("R2", mid, c.ground(), 3e3);
  const auto dc = dc_operating_point(c);
  ASSERT_TRUE(dc.converged);
  EXPECT_NEAR(dc.v[static_cast<std::size_t>(mid - 1)], 0.75, 1e-9);
  // The source branch current: 1 V across 4 kΩ = 0.25 mA flowing out of +,
  // i.e. −0.25 mA into the + terminal.
  EXPECT_NEAR(dc.v[static_cast<std::size_t>(c.node_unknowns())], -0.25e-3, 1e-9);
}

TEST(Transient, RcDischargeMatchesAnalytic) {
  // 1 kΩ to ground discharging 1 pF from 1 V: v(t) = e^{-t/RC}.
  Circuit c;
  const NodeId n = c.node("cap");
  c.add<Resistor>("R", n, c.ground(), 1e3);
  c.add<Capacitor>("C", n, c.ground(), 1e-12);
  c.set_ic(n, 1.0);

  TransientOptions opts;
  opts.t_end = 5e-9;
  opts.dt_init = 1e-13;
  opts.dt_max = 2e-12;
  const auto res = run_transient(c, opts);
  ASSERT_TRUE(res.finished) << res.failure;

  const Trace v = res.node_trace(n);
  const double rc = 1e3 * 1e-12;
  for (double t : {0.5e-9, 1e-9, 2e-9, 4e-9}) {
    EXPECT_NEAR(v.at(t), std::exp(-t / rc), 5e-3) << "t=" << t;
  }
}

TEST(Transient, RcChargeDelayAndEnergy) {
  // Step-charging C through R: delay to 50% is RC·ln2; source delivers
  // C·V² total, half stored, half burned in R.
  Circuit c;
  const NodeId vin = c.node("vin");
  const NodeId out = c.node("out");
  const double r = 10e3, cap = 100e-15, vdd = 1.0;
  c.add<VSource>("V1", vin, c.ground(),
                 std::make_unique<PulseWave>(0.0, vdd, 0.1e-9, 1e-12, 1e-12, 1.0));
  c.add<Resistor>("R", vin, out, r);
  c.add<Capacitor>("C", out, c.ground(), cap);

  TransientOptions opts;
  opts.t_end = 20e-9;
  opts.dt_init = 1e-13;
  opts.dt_max = 10e-12;
  auto res = run_transient(c, opts);
  ASSERT_TRUE(res.finished) << res.failure;

  const Trace v = res.node_trace(out);
  const auto t50 = v.cross_time(0.5 * vdd, /*rising=*/true);
  ASSERT_TRUE(t50.has_value());
  EXPECT_NEAR(*t50 - 0.1e-9, r * cap * std::log(2.0), 0.03e-9);

  // Fully settled by 20 RC = 20 ns.
  EXPECT_NEAR(v.back(), vdd, 1e-3);
  EXPECT_NEAR(res.source_energy("V1"), cap * vdd * vdd, 0.03 * cap * vdd * vdd);
  // Energy burned in R: trapezoidal ∫(v_in − v_out)²/R dt over the samples.
  const Trace v_in = res.node_trace(vin);
  std::vector<double> p_r(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    const double dv = v_in.values()[i] - v.values()[i];
    p_r[i] = dv * dv / r;
  }
  EXPECT_NEAR(Trace(v.times(), std::move(p_r)).integral(),
              0.5 * cap * vdd * vdd, 0.03 * 0.5 * cap * vdd * vdd);
}

TEST(Transient, BreakpointsAreHit) {
  Circuit c;
  const NodeId vin = c.node("vin");
  c.add<VSource>("V1", vin, c.ground(),
                 std::make_unique<PulseWave>(0.0, 1.0, 1e-9, 10e-12, 10e-12, 1e-9));
  c.add<Resistor>("R", vin, c.ground(), 1e3);

  TransientOptions opts;
  opts.t_end = 4e-9;
  opts.dt_max = 0.5e-9;  // much larger than the pulse edges
  auto res = run_transient(c, opts);
  ASSERT_TRUE(res.finished) << res.failure;
  const Trace v = res.node_trace(vin);
  // The full 1 V plateau must be visible even though dt_max (0.5 ns) is
  // wider than the rise; breakpoint landing guarantees it.
  EXPECT_NEAR(v.max_value(), 1.0, 1e-9);
  EXPECT_NEAR(v.at(1.5e-9), 1.0, 1e-9);
}

TEST(Transient, SeriesResistanceSource) {
  Circuit c;
  const NodeId out = c.node("out");
  c.add<VSource>("V1", out, c.ground(), 1.0, /*series_ohms=*/1e3);
  c.add<Resistor>("R", out, c.ground(), 1e3);
  const auto dc = dc_operating_point(c);
  ASSERT_TRUE(dc.converged);
  EXPECT_NEAR(dc.v[static_cast<std::size_t>(out - 1)], 0.5, 1e-9);
}

TEST(Trace, CrossTimeAndIntegral) {
  Trace tr({0.0, 1.0, 2.0, 3.0}, {0.0, 1.0, 1.0, 0.0});
  const auto up = tr.cross_time(0.5, true);
  ASSERT_TRUE(up.has_value());
  EXPECT_DOUBLE_EQ(*up, 0.5);
  const auto down = tr.cross_time(0.5, false);
  ASSERT_TRUE(down.has_value());
  EXPECT_DOUBLE_EQ(*down, 2.5);
  EXPECT_FALSE(tr.cross_time(2.0, true).has_value());
  EXPECT_DOUBLE_EQ(tr.integral(), 2.0);
  EXPECT_DOUBLE_EQ(tr.integral(1.0, 2.0), 1.0);
  EXPECT_DOUBLE_EQ(tr.at(0.25), 0.25);
}

TEST(Trace, CrossTimeRespectsStartTime) {
  Trace tr({0.0, 1.0, 2.0, 3.0, 4.0}, {0.0, 1.0, 0.0, 1.0, 0.0});
  const auto second = tr.cross_time(0.5, true, 1.5);
  ASSERT_TRUE(second.has_value());
  EXPECT_DOUBLE_EQ(*second, 2.5);
}

TEST(Newton, ReportsNonConvergenceAsFailure) {
  // A floating capacitor between two nodes with no DC path anywhere makes
  // the DC system singular; dc_operating_point must fail gracefully
  // (gmin keeps it solvable, so check the transient path instead with an
  // impossible dt) — here we just confirm the divider converges and a
  // truly disconnected node is caught by gmin.
  Circuit c;
  const NodeId a = c.node("a");
  c.node("floating");
  c.add<VSource>("V1", a, c.ground(), 1.0);
  c.add<Resistor>("R1", a, c.ground(), 1e3);
  const auto dc = dc_operating_point(c);
  // gmin ties the floating node to ground.
  ASSERT_TRUE(dc.converged);
  EXPECT_NEAR(dc.v[static_cast<std::size_t>(c.node("floating") - 1)], 0.0, 1e-9);
}

// The per-solve pass of every device of `ckt` into `cache`: a 1 ps
// backward-Euler step from rest, or a DC pass (capacitors open). Returns
// finish_solve().
bool fixed_pass(Circuit& ckt, AssemblyCache& cache,
                const std::vector<double>& v_prev, bool is_dc) {
  const StampContext ctx(1e-12, is_dc ? 0.0 : 1e-12, is_dc,
                         ckt.node_unknowns(), &v_prev, &v_prev);
  Stamper stamper(cache, cache.begin_solve(v_prev.size()), ckt.node_unknowns());
  for (const auto& dev : ckt.devices()) dev->stamp_fixed(stamper, ctx);
  return cache.finish_solve();
}

// Both passes of one assembly at iterate `v`, with the step starting from
// rest. Returns false when either pass reports a deviation; `rhs` gets
// the iteration pass's right-hand side.
bool stamp_pass(Circuit& ckt, AssemblyCache& cache,
                const std::vector<double>& v, bool is_dc,
                std::vector<double>& rhs) {
  const std::vector<double> v_prev(v.size(), 0.0);
  if (!fixed_pass(ckt, cache, v_prev, is_dc)) return false;
  const StampContext ctx(1e-12, is_dc ? 0.0 : 1e-12, is_dc,
                         ckt.node_unknowns(), &v, &v_prev);
  rhs = cache.begin_iteration();
  Stamper stamper(cache, rhs, ckt.node_unknowns());
  for (const auto& dev : ckt.devices()) dev->stamp(stamper, ctx);
  return cache.finish_iteration();
}

// The cache's replay against a fresh build at the same iterate: a
// cross-coupled NMOS latch with resistor pullups and a load capacitor,
// stamped at four iterates into one persistent cache.
TEST(AssemblyCache, ReplayMatchesFreshBuildAndRefactorMatchesFreshLu) {
  Circuit ckt;
  const NodeId vdd = ckt.node("vdd");
  const NodeId a = ckt.node("a");
  const NodeId b = ckt.node("b");
  ckt.add<VSource>("Vdd", vdd, ckt.ground(), 1.0);
  ckt.add<Resistor>("Ra", vdd, a, 10e3);
  ckt.add<Resistor>("Rb", vdd, b, 10e3);
  ckt.add<Mosfet>("M1", a, b, ckt.ground(), MosfetParams::nmos_lp());
  ckt.add<Mosfet>("M2", b, a, ckt.ground(), MosfetParams::nmos_lp());
  ckt.add<Capacitor>("Ca", a, ckt.ground(), 2e-15);
  const std::size_t n = static_cast<std::size_t>(ckt.unknown_count());
  const auto at = [](NodeId node) { return static_cast<std::size_t>(node - 1); };

  AssemblyCache cache;
  std::vector<double> rhs;
  for (int k = 0; k < 4; ++k) {
    std::vector<double> v(n, 0.0);
    v[at(vdd)] = 1.0;
    v[at(a)] = 0.2 + 0.2 * k;
    v[at(b)] = 0.9 - 0.25 * k;
    v[n - 1] = -1e-5 * (k + 1);  // the supply's branch current
    ASSERT_TRUE(stamp_pass(ckt, cache, v, /*is_dc=*/false, rhs));
    std::vector<double> x = rhs;
    cache.factorize().solve_inplace(x);
    // Only the first pass records a pattern and runs a full factorization;
    // every later one replays the pattern and refactors on its pivots.
    EXPECT_EQ(cache.stats().pattern_builds, 1u);
    EXPECT_EQ(cache.stats().full_factorizations, 1u);
    EXPECT_EQ(cache.stats().refactorizations, static_cast<std::uint64_t>(k));

    AssemblyCache fresh;
    std::vector<double> fresh_rhs;
    ASSERT_TRUE(stamp_pass(ckt, fresh, v, /*is_dc=*/false, fresh_rhs));
    const linalg::CsrView got = cache.view();
    const linalg::CsrView want = fresh.view();
    ASSERT_EQ(got.n, want.n);
    ASSERT_EQ(got.nnz(), want.nnz());
    for (std::size_t r = 0; r <= n; ++r)
      EXPECT_EQ(got.row_ptr[r], want.row_ptr[r]);
    // A build sums in replay order, so the values agree bit for bit.
    for (std::size_t j = 0; j < want.nnz(); ++j) {
      EXPECT_EQ(got.cols[j], want.cols[j]);
      EXPECT_EQ(got.vals[j], want.vals[j]);
    }
    EXPECT_EQ(rhs, fresh_rhs);

    const std::vector<double> x_fresh = linalg::SparseLu(want).solve(fresh_rhs);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_fresh[i], 1e-12);
  }

  // A DC pass skips every capacitor stamp, all of them per-solve stamps:
  // the per-solve replay deviates from the recorded sequence,
  // finish_solve() reports it and drops the pattern, and the retry records
  // a new one.
  const std::vector<double> v0(n, 0.0);
  EXPECT_FALSE(fixed_pass(ckt, cache, v0, /*is_dc=*/true));
  EXPECT_FALSE(cache.has_pattern());
  EXPECT_TRUE(stamp_pass(ckt, cache, v0, /*is_dc=*/true, rhs));
  EXPECT_EQ(cache.stats().pattern_builds, 2u);
}

// A node-to-ground test device that counts its two stamp hooks: a fixed
// conductance once per solve, and a cubic current i = k·v³ at every
// iterate (nonlinear, so Newton takes several iterations).
class CountingDevice final : public Device {
 public:
  explicit CountingDevice(NodeId a) : Device("Xcount"), a_(a) {}

  void stamp_fixed(Stamper& s, const StampContext&) override {
    ++fixed_calls;
    s.conductance(a_, kGround, 1e-4);
  }
  void stamp(Stamper& s, const StampContext& ctx) override {
    ++stamp_calls;
    const double v = ctx.v(a_);
    s.nonlinear_current(a_, kGround, 1e-3 * v * v * v, 3e-3 * v * v, v);
  }

  int fixed_calls = 0;
  int stamp_calls = 0;

 private:
  NodeId a_;
};

TEST(StampSplit, FixedStampsOncePerSolveAndStampOncePerIteration) {
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId a = c.node("a");
  c.add<VSource>("V1", in, c.ground(), 1.0);
  c.add<Resistor>("R1", in, a, 1e3);
  auto& dev = c.add<CountingDevice>(a);

  const std::size_t n = static_cast<std::size_t>(c.unknown_count());
  std::vector<double> v(n, 0.0);
  const std::vector<double> v_prev(n, 0.0);
  const NewtonResult r = solve_newton(c, 0.0, 0.0, /*is_dc=*/true, v, v_prev,
                                      NewtonOptions{});
  ASSERT_TRUE(r.converged);
  EXPECT_GT(r.iterations, 1);
  EXPECT_EQ(dev.fixed_calls, 1);
  EXPECT_EQ(dev.stamp_calls, r.iterations);
  EXPECT_EQ(c.solver_cache().stats().assemblies,
            static_cast<std::uint64_t>(r.iterations));
}

TEST(StampSplit, TransientStampsOncePerNewtonIteration) {
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId a = c.node("a");
  c.add<VSource>("V1", in, c.ground(), 1.0);
  c.add<Resistor>("R1", in, a, 1e3);
  c.add<Capacitor>("C1", a, c.ground(), 1e-13);
  auto& dev = c.add<CountingDevice>(a);

  const TransientResult r = run_transient(c, step_defaults(1e-9));
  ASSERT_TRUE(r.finished) << r.failure;
  EXPECT_EQ(static_cast<std::size_t>(dev.stamp_calls), r.newton_iterations);
  // One per-solve pass per Newton solve, each serving one or more
  // iterations.
  EXPECT_GT(dev.fixed_calls, 0);
  EXPECT_LT(dev.fixed_calls, dev.stamp_calls);
}

// --- Transient checkpoints: every device's dynamic state round-trips ---

// One small circuit per stateful device, driven through a resistor by a
// PWL source whose corners move the device's state (companion history,
// relay flight and contact, filament/polarization/magnetization writes),
// with the mid-run corner a checkpoint is taken at.
struct StatefulCase {
  const char* name;
  double t_mid;
  double t_end;
  std::vector<std::pair<double, double>> drive;
  std::function<void(Circuit&, NodeId a)> add_device;
};

std::vector<StatefulCase> stateful_cases() {
  const auto pulse = [](double v, double t_on, double t_mid, double t_off) {
    return std::vector<std::pair<double, double>>{
        {0.0, 0.0}, {t_on, 0.0}, {t_on + 0.1e-9, v}, {t_mid, v},
        {t_off, v}, {t_off + 0.1e-9, 0.0}};
  };
  return {
      {"Capacitor", 2e-9, 5e-9, pulse(1.0, 0.5e-9, 2e-9, 3e-9),
       [](Circuit& c, NodeId a) {
         c.add<Capacitor>("C1", a, c.ground(), 1e-12);
       }},
      {"Inductor", 2e-9, 6e-9, pulse(1.0, 0.5e-9, 2e-9, 3e-9),
       [](Circuit& c, NodeId a) {
         c.add<Inductor>("L1", a, c.ground(), 10e-9);
         c.add<Capacitor>("C1", a, c.ground(), 1e-12);
       }},
      {"Diode", 2e-9, 5e-9, pulse(1.0, 0.5e-9, 2e-9, 3e-9),
       [](Circuit& c, NodeId a) {
         DiodeParams p;
         p.c_junction = 50e-15;
         c.add<Diode>("D1", a, c.ground(), p);
       }},
      {"Mosfet", 2e-9, 5e-9, pulse(1.0, 0.5e-9, 2e-9, 3e-9),
       [](Circuit& c, NodeId a) {
         const NodeId vdd = c.node("vdd"), d = c.node("d");
         c.add<VSource>("Vdd", vdd, c.ground(), 1.0);
         c.add<Resistor>("Rd", vdd, d, 10e3);
         c.add<Mosfet>("M1", d, a, c.ground(), MosfetParams::nmos_lp(4.0));
       }},
      {"Fefet", 4e-9, 9e-9, pulse(4.0, 0.5e-9, 4e-9, 6e-9),
       [](Circuit& c, NodeId a) {
         const NodeId vdd = c.node("vdd"), d = c.node("d");
         c.add<VSource>("Vdd", vdd, c.ground(), 1.0);
         c.add<Resistor>("Rd", vdd, d, 10e3);
         c.add<Fefet>("F1", d, a, c.ground());
       }},
      {"NemRelay", 1.5e-9, 8e-9, pulse(1.0, 0.5e-9, 1.5e-9, 4e-9),
       [](Circuit& c, NodeId a) {
         const NodeId vdd = c.node("vdd"), d = c.node("d"), s = c.node("s");
         c.add<VSource>("Vdd", vdd, c.ground(), 1.0);
         c.add<Resistor>("Rd", vdd, d, 10e3);
         c.add<Resistor>("Rs", s, c.ground(), 10e3);
         c.add<Capacitor>("Cs", s, c.ground(), 10e-15);
         c.add<NemRelay>("N1", d, a, s, c.ground());
       }},
      {"Rram", 4e-9, 14e-9, pulse(1.8, 0.5e-9, 4e-9, 11e-9),
       [](Circuit& c, NodeId a) {
         c.add<Rram>("R1", a, c.ground());
         c.add<Capacitor>("C1", a, c.ground(), 10e-15);
       }},
      {"Mtj", 2e-9, 6e-9,
       {{0.0, 0.0}, {0.5e-9, 0.0}, {0.6e-9, 1.0}, {2e-9, 1.0},
        {2.1e-9, -1.0}, {4e-9, -1.0}, {4.1e-9, 0.0}},
       [](Circuit& c, NodeId a) {
         MtjParams p;
         p.t_switch_ref = 1e-9;
         auto& mtj = c.add<Mtj>("J1", a, c.ground(), p);
         mtj.set_parallel(false);
         c.add<Capacitor>("C1", a, c.ground(), 10e-15);
       }},
  };
}

std::unique_ptr<Circuit> build_stateful(const StatefulCase& k) {
  auto c = std::make_unique<Circuit>();
  const NodeId in = c->node("in");
  const NodeId a = c->node("a");
  c->add<VSource>("Vin", in, c->ground(), std::make_unique<PwlWave>(k.drive));
  c->add<Resistor>("Rin", in, a, 1e3);
  k.add_device(*c, a);
  return c;
}

void expect_same_run(const TransientResult& got, const TransientResult& ref) {
  ASSERT_TRUE(got.finished) << got.failure;
  EXPECT_EQ(got.times, ref.times);
  EXPECT_EQ(got.samples, ref.samples);
  EXPECT_EQ(got.source_energies(), ref.source_energies());
  EXPECT_EQ(got.steps_taken, ref.steps_taken);
  EXPECT_EQ(got.newton_iterations, ref.newton_iterations);
  EXPECT_EQ(got.steps_rejected, ref.steps_rejected);
  EXPECT_EQ(got.events_located, ref.events_located);
  EXPECT_EQ(got.steps_recovered, ref.steps_recovered);
  EXPECT_EQ(got.residual_gmin, ref.residual_gmin);
}

// A run stopped at a breakpoint, its device states saved, run on, then
// its states loaded back and its copy resumed, repeats the uninterrupted
// run bit for bit: times, samples, source energies and every counter.
// This covers devices no row search exercises (Inductor, Diode), where a
// field missing from save_state would otherwise go unnoticed.
TEST(TransientCheckpoint, EveryDeviceStateRoundTrips) {
  for (const StatefulCase& k : stateful_cases()) {
    SCOPED_TRACE(k.name);
    const TransientOptions opts = step_defaults(k.t_end);
    const auto ref_ckt = build_stateful(k);
    const TransientResult ref = run_transient(*ref_ckt, opts);
    ASSERT_TRUE(ref.finished) << ref.failure;
    ASSERT_GT(ref.steps_taken, 20u);

    const auto ckt = build_stateful(k);
    TransientRun run(*ckt, ckt->initial_state(), opts);
    ASSERT_TRUE(run.advance_to(k.t_mid));
    TransientRun checkpoint = run;
    std::vector<double> states;
    ckt->save_device_states(states);
    ASSERT_TRUE(run.advance_to(k.t_end));
    expect_same_run(run.finish(), ref);

    ckt->load_device_states(states);
    ASSERT_TRUE(checkpoint.advance_to(k.t_end));
    expect_same_run(checkpoint.finish(), ref);
  }
}

// advance_to stops only where the engine restarts: a breakpoint or t_end.
TEST(TransientCheckpoint, StopsOnlyAtABreakpoint) {
  const StatefulCase k = stateful_cases().front();
  const auto ckt = build_stateful(k);
  TransientRun run(*ckt, ckt->initial_state(), step_defaults(k.t_end));
  EXPECT_THROW(run.advance_to(0.7 * k.t_mid), std::logic_error);
  EXPECT_TRUE(run.advance_to(k.t_mid));
}

}  // namespace
