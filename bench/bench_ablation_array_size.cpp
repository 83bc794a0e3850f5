// Ablation A2: how search latency and energy scale with row width for the
// 3T2N and 16T SRAM designs (16 → 128 bits). Wire and junction loading on
// the matchline grow with width; the 3T2N's advantage persists across the
// sweep.
//
// Second leg: lumped single-row extrapolation vs the true coupled array.
// Both columns come from one class, ArrayTemplate, at two heights: the
// row (TcamRow's search, a one-row template of an N-row column) models
// the other N−1 rows as lumped capacitance on each searchline, so "array
// energy" is N × the row's number and the ML delay ignores the RC ladder
// between the driver and far rows; the N-row template elaborates all N×N
// cells against segmented shared lines and reports both from one coupled
// transient — the divergence between the columns below is the modelling
// error the lumped path hides.
#include <algorithm>
#include <cmath>
#include <map>

#include "BenchCommon.h"
#include "tcam/ArrayTemplate.h"
#include "tcam/RowSpecs.h"

namespace {

using namespace nemtcam;
using namespace nemtcam::bench;
using namespace nemtcam::tcam;

struct Point {
  SearchMetrics nem;
  SearchMetrics sram;
};
std::map<int, Point> g_points;

void BM_WidthSweep(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  Point pt;
  for (auto _ : state) {
    for (const TcamKind kind : {TcamKind::Nem3T2N, TcamKind::Sram16T}) {
      auto row = make_row(kind, width, kRows);
      const auto word = checker_word(width);
      row->store(word);
      const SearchMetrics m = row->search(one_bit_mismatch_key(word));
      if (kind == TcamKind::Nem3T2N) pt.nem = m;
      else pt.sram = m;
    }
  }
  g_points[width] = pt;
  state.counters["nem_latency_ps"] = pt.nem.latency * 1e12;
  state.counters["sram_latency_ps"] = pt.sram.latency * 1e12;
}

BENCHMARK(BM_WidthSweep)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64)
    ->Arg(96)
    ->Arg(128)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// --- Lumped extrapolation vs true coupled N×N array ---

struct ArrayPoint {
  int n = 0;
  // Lumped: one row simulated against N-row line loading, scaled by N.
  double row_latency = 0.0;
  double row_energy = 0.0;  // per row
  // Coupled: all rows elaborated, worst mismatching row's delay and the
  // whole-array energy divided by N.
  double arr_latency = 0.0;
  double arr_energy = 0.0;  // per row
};
std::map<int, ArrayPoint> g_array_points;

void BM_TrueArraySweep(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  ArrayPoint pt;
  pt.n = n;
  for (auto _ : state) {
    const auto word = checker_word(n);
    const auto key = one_bit_mismatch_key(word);

    auto row = make_row(TcamKind::Nem3T2N, n, n);
    row->store(word);
    const SearchMetrics rm = row->search(key);
    pt.row_latency = rm.latency;
    pt.row_energy = rm.energy;

    ArrayTemplate arr(nem3t2n_search_spec(Calibration::standard()), n, n);
    for (int r = 0; r < n; ++r) arr.store(r, word);
    const ArraySearchMetrics am = arr.search(key);
    pt.arr_latency = 0.0;
    for (const ArrayRowResult& r : am.rows)
      pt.arr_latency = std::max(pt.arr_latency, r.latency);
    pt.arr_energy = am.energy / static_cast<double>(n);
  }
  g_array_points[n] = pt;
  state.counters["row_latency_ps"] = pt.row_latency * 1e12;
  state.counters["array_latency_ps"] = pt.arr_latency * 1e12;
}

BENCHMARK(BM_TrueArraySweep)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  using nemtcam::util::ratio_format;
  using nemtcam::util::si_format;
  nemtcam::util::Table t({"width", "3T2N latency", "SRAM latency", "speedup",
                          "3T2N energy", "SRAM energy"});
  for (const auto& [w, p] : g_points)
    t.add_row({std::to_string(w), si_format(p.nem.latency, "s"),
               si_format(p.sram.latency, "s"),
               ratio_format(p.sram.latency / p.nem.latency),
               si_format(p.nem.energy, "J"), si_format(p.sram.energy, "J")});
  std::printf("\nAblation A2 — search scaling with row width (64-row column"
              " loading)\n");
  t.print();

  nemtcam::util::Table t2({"array", "lumped-row delay", "coupled delay",
                           "delta", "lumped E/row", "coupled E/row", "delta"});
  const auto pct = [](double test, double ref) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%+.1f%%",
                  ref != 0.0 ? 100.0 * (test - ref) / ref : 0.0);
    return std::string(buf);
  };
  for (const auto& [n, p] : g_array_points)
    t2.add_row({std::to_string(n) + "x" + std::to_string(n),
                si_format(p.row_latency, "s"), si_format(p.arr_latency, "s"),
                pct(p.arr_latency, p.row_latency),
                si_format(p.row_energy, "J"), si_format(p.arr_energy, "J"),
                pct(p.arr_energy, p.row_energy)});
  std::printf("\nLumped single-row extrapolation vs true coupled array "
              "(3T2N, one-bit-mismatch key)\n");
  t2.print();
  return 0;
}
