// Fig. 4: the one-shot-refresh principle. Both a stored '1' (relay closed,
// gate decayed toward V_PO) and a stored '0' (relay open, gate at 0) are
// driven to the same V_R in one operation — the '1' stays closed because
// V_R > V_PO, the '0' stays open because V_R < V_PI. Demonstrated on a row
// holding every ternary symbol, across a range of pre-refresh decay levels.
#include "BenchCommon.h"
#include "tcam/Nem3T2NRow.h"

namespace {

using namespace nemtcam;
using namespace nemtcam::bench;
using namespace nemtcam::tcam;
using core::TernaryWord;

struct DemoPoint {
  double v_pre;   // decayed '1' level just before refresh
  bool ok;        // all relay states preserved
  double energy;  // array energy
};

std::vector<DemoPoint> g_points;

void BM_OsrDemo(benchmark::State& state) {
  for (auto _ : state) {
    g_points.clear();
    for (double v_pre : {0.45, 0.35, 0.25, 0.18}) {
      Nem3T2NRow row(kWidth, kRows, Calibration::standard());
      row.store(TernaryWord("10X" + std::string(kWidth - 3, '1')));
      const RefreshMetrics r =
          row.refresh_at(Calibration::standard().v_refresh, v_pre);
      g_points.push_back({v_pre, r.ok, r.energy_per_op});
    }
  }
  int ok_count = 0;
  for (const auto& p : g_points) ok_count += p.ok ? 1 : 0;
  state.counters["levels_preserved"] = ok_count;
}

BENCHMARK(BM_OsrDemo)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  using nemtcam::util::si_format;
  nemtcam::util::Table t(
      {"decayed '1' level before OSR", "state preserved", "array energy"});
  for (const auto& p : g_points)
    t.add_row({si_format(p.v_pre, "V"), p.ok ? "yes" : "NO",
               si_format(p.energy, "J")});
  std::printf("\nFig. 4 — one-shot refresh preserves '0', '1' and 'X' cells\n"
              "(row pattern 10X111..., V_R = 0.5 V applied to every bitline"
              " with all wordlines asserted)\n");
  t.print();
  return 0;
}
