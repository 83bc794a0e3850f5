// Extension bench: the two designs the paper describes but does not
// benchmark — the conventional dynamic CMOS TCAM (intro, ref [4]) and the
// 4T2F FeFET TCAM (Fig. 2(c)) — measured with the identical methodology
// and compared against the four evaluated designs.
//
// The headline contrast: both dynamic TCAMs are denser than SRAM with
// cheap 1 V writes, but only the 3T2N's hysteresis window permits one-shot
// refresh; the CMOS DTCAM must refresh row by row, paying ~N× the refresh
// energy and blocking the array N times per retention period.
#include <map>

#include "BenchCommon.h"
#include "tcam/Dtcam5TRow.h"
#include "tcam/Nem3T2NRow.h"

namespace {

using namespace nemtcam;
using namespace nemtcam::bench;
using namespace nemtcam::tcam;

struct DesignResult {
  WriteMetrics write;
  SearchMetrics search;
};
std::map<TcamKind, DesignResult> g_results;
RefreshMetrics g_dtcam_refresh;
RefreshMetrics g_nem_refresh;

const std::vector<TcamKind> kAllSeven = {
    TcamKind::Sram16T,  TcamKind::Dtcam5T, TcamKind::Nem3T2N,
    TcamKind::Rram2T2R, TcamKind::Fefet2F, TcamKind::Fefet4T2F,
    TcamKind::Mram4T2M};

void BM_AllDesigns(benchmark::State& state) {
  const TcamKind kind = kAllSeven[static_cast<std::size_t>(state.range(0))];
  DesignResult r;
  for (auto _ : state) {
    auto row = make_row(kind, kWidth, kRows);
    const auto word = checker_word(kWidth);
    row->store(complement_word(word));
    r.write = row->write(word);
    r.search = row->search(one_bit_mismatch_key(word));
  }
  g_results[kind] = r;
  state.SetLabel(kind_name(kind));
  state.counters["write_latency_ns"] = r.write.latency * 1e9;
  state.counters["write_energy_fJ"] = r.write.energy * 1e15;
  state.counters["search_latency_ps"] = r.search.latency * 1e12;
  state.counters["search_energy_fJ"] = r.search.energy * 1e15;
}

BENCHMARK(BM_AllDesigns)
    ->DenseRange(0, 6)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void BM_DynamicRefreshComparison(benchmark::State& state) {
  for (auto _ : state) {
    Dtcam5TRow dtcam(kWidth, kRows, Calibration::standard());
    dtcam.store(checker_word(kWidth));
    g_dtcam_refresh = dtcam.row_refresh_cost();

    Nem3T2NRow nem(kWidth, kRows, Calibration::standard());
    nem.store(checker_word(kWidth));
    g_nem_refresh = nem.one_shot_refresh();
  }
  state.counters["dtcam_refresh_power_nW"] = g_dtcam_refresh.refresh_power * 1e9;
  state.counters["nem_refresh_power_nW"] = g_nem_refresh.refresh_power * 1e9;
}

BENCHMARK(BM_DynamicRefreshComparison)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  using nemtcam::util::si_format;
  nemtcam::util::Table t({"design", "write latency", "write energy",
                          "search latency", "search energy", "ok"});
  for (const TcamKind k : kAllSeven) {
    const auto& r = g_results[k];
    t.add_row({kind_name(k), si_format(r.write.latency, "s"),
               si_format(r.write.energy, "J"),
               si_format(r.search.latency, "s"),
               si_format(r.search.energy, "J"),
               (r.write.ok && r.search.ok && !r.search.matched) ? "y" : "CHECK"});
  }
  std::printf("\nExtension — all seven designs, same 64x64 methodology\n");
  t.print();

  nemtcam::util::Table rt({"dynamic design", "refresh policy",
                           "array blocked per period", "refresh power",
                           "retention"});
  rt.add_row({"CMOS DTCAM", "row-by-row (only option)",
              si_format(g_dtcam_refresh.latency * kRows, "s"),
              si_format(g_dtcam_refresh.refresh_power, "W"),
              si_format(g_dtcam_refresh.retention_time, "s")});
  rt.add_row({"3T2N NEM", "one-shot (hysteresis window)",
              si_format(g_nem_refresh.latency, "s"),
              si_format(g_nem_refresh.refresh_power, "W"),
              si_format(g_nem_refresh.retention_time, "s")});
  std::printf("\nWhy the 3T2N is 'dynamic done right' — refresh comparison\n");
  rt.print();
  return 0;
}
