// Fig. 7(a,b,c): search latency, search energy, and normalized search EDP
// for the worst case (single 1-bit mismatch discharging the ML) on a
// 64×64 array. Paper (vs 3T2N): latency 5.50×/1.47×/3.36× slower for
// SRAM/RRAM/FeFET; energy 2.31×/0.88×/0.84×; EDP 12.7×/1.30×/2.83×.
//
// All three panels come from the same transaction simulation, so this one
// binary regenerates Fig. 7(a), (b) and (c).
#include <map>

#include "BenchCommon.h"

namespace {

using namespace nemtcam;
using namespace nemtcam::bench;
using namespace nemtcam::tcam;

std::map<TcamKind, SearchMetrics> g_results;

void BM_Search(benchmark::State& state) {
  const TcamKind kind = static_cast<TcamKind>(state.range(0));
  SearchMetrics m;
  for (auto _ : state) {
    auto row = make_row(kind, kWidth, kRows);
    const auto word = checker_word(kWidth);
    row->store(word);
    m = row->search(one_bit_mismatch_key(word));
  }
  g_results[kind] = m;
  state.SetLabel(kind_name(kind));
  state.counters["search_latency_ps"] = m.latency * 1e12;
  state.counters["search_energy_fJ"] = m.energy * 1e15;
  state.counters["search_edp_zJs"] = m.edp() * 1e30;
  state.counters["detected_mismatch"] = m.matched ? 0 : 1;
}

BENCHMARK(BM_Search)
    ->DenseRange(0, 3)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

struct PaperRatios {
  double latency;
  double energy;
  double edp;
};
const std::map<TcamKind, PaperRatios> kPaper = {
    {TcamKind::Sram16T, {5.50, 2.31, 12.7}},
    {TcamKind::Nem3T2N, {1.0, 1.0, 1.0}},
    {TcamKind::Rram2T2R, {1.47, 0.88, 1.30}},
    {TcamKind::Fefet2F, {3.36, 0.84, 2.83}},
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  using nemtcam::util::ratio_format;
  using nemtcam::util::si_format;

  const SearchMetrics& nem = g_results[TcamKind::Nem3T2N];

  std::printf("\nFig. 7(a) — worst-case search latency (1-bit mismatch)\n");
  nemtcam::util::Table ta({"design", "latency", "ratio vs 3T2N", "paper ratio"});
  for (const TcamKind k : all_kinds()) {
    const auto& m = g_results[k];
    ta.add_row({kind_name(k), si_format(m.latency, "s"),
                ratio_format(m.latency / nem.latency),
                ratio_format(kPaper.at(k).latency)});
  }
  ta.print();

  std::printf("\nFig. 7(b) — search energy\n");
  nemtcam::util::Table tb({"design", "energy", "ratio vs 3T2N", "paper ratio"});
  for (const TcamKind k : all_kinds()) {
    const auto& m = g_results[k];
    tb.add_row({kind_name(k), si_format(m.energy, "J"),
                ratio_format(m.energy / nem.energy),
                ratio_format(kPaper.at(k).energy)});
  }
  tb.print();

  std::printf("\nFig. 7(c) — normalized search energy-delay product\n");
  nemtcam::util::Table tc({"design", "EDP (J*s)", "normalized", "paper"});
  for (const TcamKind k : all_kinds()) {
    const auto& m = g_results[k];
    tc.add_row({kind_name(k), si_format(m.edp(), "Js"),
                ratio_format(m.edp() / nem.edp()),
                ratio_format(kPaper.at(k).edp)});
  }
  tc.print();
  return 0;
}
