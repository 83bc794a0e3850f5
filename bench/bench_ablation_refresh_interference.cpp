// Ablation A4: refresh interference with search traffic — the paper's
// architectural motivation ("row-by-row refresh lands up with a bottleneck
// of interference with normal TCAM activities"). Replays Poisson search
// traffic against one-shot vs row-by-row refresh at several offered loads.
#include "BenchCommon.h"
#include "arch/RefreshController.h"

namespace {

using namespace nemtcam;
using namespace nemtcam::bench;
using namespace nemtcam::arch;

struct LoadPoint {
  double rate_hz;
  RefreshSimResult osr;
  RefreshSimResult row;
};

std::vector<LoadPoint> g_points;

void BM_RefreshInterference(benchmark::State& state) {
  const double rate = static_cast<double>(state.range(0)) * 1e6;
  LoadPoint pt{rate, {}, {}};
  for (auto _ : state) {
    RefreshSimConfig cfg;
    cfg.sim_time = 500e-6;
    cfg.search_rate_hz = rate;
    cfg.seed = 17;
    cfg.policy = RefreshPolicy::OneShot;
    pt.osr = simulate_refresh_interference(cfg);
    cfg.policy = RefreshPolicy::RowByRow;
    pt.row = simulate_refresh_interference(cfg);
  }
  upsert_point(g_points, pt, &LoadPoint::rate_hz);
  state.counters["osr_avg_wait_ps"] = pt.osr.avg_search_wait() * 1e12;
  state.counters["row_avg_wait_ps"] = pt.row.avg_search_wait() * 1e12;
}

BENCHMARK(BM_RefreshInterference)
    ->Arg(10)
    ->Arg(50)
    ->Arg(100)
    ->Arg(300)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  using nemtcam::util::si_format;
  nemtcam::util::Table t({"search load", "policy", "avg wait", "max wait",
                          "refresh duty", "refresh energy / 500us"});
  for (const auto& p : g_points) {
    t.add_row({si_format(p.rate_hz, "Hz", 3), "one-shot",
               si_format(p.osr.avg_search_wait(), "s"),
               si_format(p.osr.max_search_wait, "s"),
               si_format(p.osr.refresh_duty(500e-6) * 100, "%"),
               si_format(p.osr.refresh_energy, "J")});
    t.add_row({"", "row-by-row", si_format(p.row.avg_search_wait(), "s"),
               si_format(p.row.max_search_wait, "s"),
               si_format(p.row.refresh_duty(500e-6) * 100, "%"),
               si_format(p.row.refresh_energy, "J")});
  }
  std::printf("\nAblation A4 — refresh interference with Poisson search"
              " traffic (3T2N 64x64, 500 us window)\n");
  t.print();
  return 0;
}
