// Ablation A3: the refresh-voltage window. One-shot refresh only works for
// V_PO < V_R < V_PI: below the window a stored '1' releases, above it a
// stored '0' pulls in. Sweeps V_R and reports state integrity, retention
// from the refreshed level, and refresh energy — motivating the paper's
// V_R = 0.5 V choice (just under V_PI for noise margin, high enough for
// long retention).
#include "BenchCommon.h"
#include "tcam/Nem3T2NRow.h"

namespace {

using namespace nemtcam;
using namespace nemtcam::bench;
using namespace nemtcam::tcam;

struct VrPoint {
  double v_r;
  bool ok;
  double retention;
  double energy;
};

std::vector<VrPoint> g_points;

void BM_VrSweep(benchmark::State& state) {
  const double v_r = static_cast<double>(state.range(0)) / 1000.0;
  VrPoint pt{v_r, false, 0.0, 0.0};
  for (auto _ : state) {
    Nem3T2NRow row(kWidth, kRows, Calibration::standard());
    row.store(checker_word(kWidth));
    const RefreshMetrics r = row.refresh_at(v_r, /*v_pre_one=*/0.18);
    pt.ok = r.ok;
    pt.energy = r.energy_per_op;
    pt.retention = r.ok ? row.simulate_retention(v_r) : 0.0;
  }
  upsert_point(g_points, pt, &VrPoint::v_r);
  state.counters["v_r_mV"] = v_r * 1e3;
  state.counters["ok"] = pt.ok ? 1 : 0;
  state.counters["retention_us"] = pt.retention * 1e6;
}

BENCHMARK(BM_VrSweep)
    ->Arg(50)    // below V_PO: loses '1's
    ->Arg(200)
    ->Arg(350)
    ->Arg(500)   // the paper's choice
    ->Arg(700)   // above V_PI: corrupts '0's
    ->Arg(900)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  using nemtcam::util::si_format;
  nemtcam::util::Table t(
      {"V_R", "state preserved", "retention from V_R", "OSR energy"});
  for (const auto& p : g_points)
    t.add_row({si_format(p.v_r, "V"), p.ok ? "yes" : "NO",
               p.ok ? si_format(p.retention, "s") : "-",
               si_format(p.energy, "J")});
  std::printf("\nAblation A3 — refresh level vs the (V_PO=0.13 V, V_PI=0.53 V)"
              " hysteresis window\n");
  t.print();
  std::printf("The paper's V_R = 0.5 V sits just inside the window: maximal"
              " retention with noise margin against pull-in.\n");
  return 0;
}
