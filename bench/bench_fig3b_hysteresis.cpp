// Fig. 3(b): I_DS–V_GB hysteresis of the 4T NEM relay. A quasi-static
// triangular gate sweep with a small drain bias; the up and down branches
// switch at V_PI and V_PO respectively, tracing the hysteresis loop.
#include <cmath>
#include <memory>

#include "BenchCommon.h"
#include "devices/NemRelay.h"
#include "devices/Passive.h"
#include "devices/Sources.h"
#include "spice/Circuit.h"
#include "spice/Transient.h"
#include "spice/Waveform.h"

namespace {

using namespace nemtcam;
using namespace nemtcam::spice;
using namespace nemtcam::devices;

struct SweepPoint {
  double v_gb;
  double i_up;    // A, on the rising branch
  double i_down;  // A, on the falling branch
};

std::vector<SweepPoint> g_points;
double g_on_off_ratio = 0.0;

void BM_HysteresisSweep(benchmark::State& state) {
  for (auto _ : state) {
    Circuit c;
    const NodeId g = c.node("g");
    const NodeId d = c.node("d");
    const NodeId s = c.node("s");
    const double t_half = 200e-9;
    c.add<VSource>("Vg", g, c.ground(),
                   std::make_unique<PwlWave>(
                       std::vector<std::pair<double, double>>{
                           {0.0, 0.0}, {t_half, 1.0}, {2 * t_half, 0.0}}));
    const double v_ds = 0.1;
    c.add<VSource>("Vd", d, c.ground(), v_ds);
    c.add<Resistor>("Rs", s, c.ground(), 10.0);  // sense resistor
    c.add<NemRelay>("N1", d, g, s, c.ground());

    TransientOptions opts;
    opts.t_end = 2 * t_half;
    opts.dt_max = 0.2e-9;
    const auto res = run_transient(c, opts);
    if (!res.finished) {
      state.SkipWithError("transient failed");
      return;
    }

    const Trace vs = res.node_trace(s);
    g_points.clear();
    double i_on = 0.0, i_off = 1.0;
    for (double v = 0.0; v <= 1.0001; v += 0.05) {
      const double t_up = v * t_half;
      const double t_down = 2 * t_half - v * t_half;
      SweepPoint p;
      p.v_gb = v;
      p.i_up = vs.at(t_up) / 10.0;
      p.i_down = vs.at(t_down) / 10.0;
      g_points.push_back(p);
      i_on = std::max({i_on, p.i_up, p.i_down});
      if (v >= 0.25 && v <= 0.45)  // window region: up branch is OFF
        i_off = std::min(i_off, std::max(p.i_up, 1e-21));
    }
    g_on_off_ratio = i_on / i_off;
  }
  state.counters["on_off_ratio_log10"] = std::log10(g_on_off_ratio);
}

BENCHMARK(BM_HysteresisSweep)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  using nemtcam::util::si_format;
  nemtcam::util::Table t({"V_GB", "I_DS up-sweep", "I_DS down-sweep"});
  for (const auto& p : g_points)
    t.add_row({si_format(p.v_gb, "V", 2), si_format(p.i_up, "A"),
               si_format(p.i_down, "A")});
  std::printf("\nFig. 3(b) — NEM relay I_DS–V_GB hysteresis"
              " (V_DS = 0.1 V, quasi-static sweep)\n");
  t.print();
  std::printf("ON/OFF ratio: %.3g (paper: 'ultra-high', air-gap isolation)\n"
              "Up-branch turn-on near V_PI = 0.53 V; down-branch turn-off"
              " near V_PO = 0.13 V.\n",
              g_on_off_ratio);
  return 0;
}
