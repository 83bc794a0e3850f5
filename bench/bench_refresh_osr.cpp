// §IV.B refresh scheme: one-shot refresh energy/latency on the 64×64
// array, retention time from the V_R level, and the resulting average
// refresh power — compared against the conventional row-by-row policy.
// Paper: V_R = 0.5 V, ~520 fJ/op, retention ≈ 26.5 µs, ≈19.6 nW.
#include "BenchCommon.h"
#include "tcam/Nem3T2NRow.h"

namespace {

using namespace nemtcam;
using namespace nemtcam::bench;
using namespace nemtcam::tcam;

RefreshMetrics g_osr;
double g_row_by_row_energy = 0.0;
double g_row_by_row_time = 0.0;

void BM_OneShotRefresh(benchmark::State& state) {
  for (auto _ : state) {
    Nem3T2NRow row(kWidth, kRows, Calibration::standard());
    row.store(checker_word(kWidth));
    g_osr = row.one_shot_refresh();

    // Conventional policy reference: every row is read + written back once
    // per retention period — N row writes. Energy comes from a same-data
    // write-back (line charging dominates); the blocked time per row op is
    // a full write pulse (the array cannot serve searches while a WL is
    // asserted), measured from a worst-case write's settle time.
    auto row2 = make_row(TcamKind::Nem3T2N, kWidth, kRows);
    const auto word = checker_word(kWidth);
    row2->store(word);
    const WriteMetrics wb = row2->write(word);  // write-back of the same data
    auto row3 = make_row(TcamKind::Nem3T2N, kWidth, kRows);
    row3->store(complement_word(word));
    const WriteMetrics wp = row3->write(word);  // full write pulse duration
    g_row_by_row_energy = wb.energy * kRows;
    g_row_by_row_time = wp.latency * kRows;
  }
  state.counters["osr_energy_fJ"] = g_osr.energy_per_op * 1e15;
  state.counters["retention_us"] = g_osr.retention_time * 1e6;
  state.counters["refresh_power_nW"] = g_osr.refresh_power * 1e9;
  state.counters["osr_ok"] = g_osr.ok ? 1 : 0;
}

BENCHMARK(BM_OneShotRefresh)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  using nemtcam::util::si_format;
  nemtcam::util::Table t({"quantity", "measured", "paper"});
  t.add_row({"V_R", si_format(Calibration::standard().v_refresh, "V"), "0.5 V"});
  t.add_row({"one-shot refresh energy (whole array)",
             si_format(g_osr.energy_per_op, "J"), "~520 fJ"});
  t.add_row({"refresh op latency", si_format(g_osr.latency, "s"), "(one write op)"});
  t.add_row({"retention time", si_format(g_osr.retention_time, "s"), "26.5 us"});
  t.add_row({"average refresh power", si_format(g_osr.refresh_power, "W"),
             "19.6 nW"});
  t.add_row({"row-by-row energy per period", si_format(g_row_by_row_energy, "J"),
             "(N row writes)"});
  t.add_row({"row-by-row blocked time per period",
             si_format(g_row_by_row_time, "s"), "(N row ops)"});
  std::printf("\nSection IV.B — one-shot refresh on the 3T2N 64x64 array\n");
  t.print();
  std::printf(
      "OSR state preserved: %s. One-shot refresh costs %.1fx less energy and"
      " %.0fx less array-blocked time than row-by-row per retention period.\n"
      "(Measured OSR energy exceeds the paper's 520 fJ because we charge all"
      " 64 boosted wordlines; the conclusion — negligible refresh overhead —"
      " is unchanged.)\n",
      g_osr.ok ? "yes" : "NO",
      g_row_by_row_energy / g_osr.energy_per_op,
      g_row_by_row_time / g_osr.latency);
  return 0;
}
