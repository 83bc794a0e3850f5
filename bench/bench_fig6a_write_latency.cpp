// Fig. 6(a): array-level write latency per row (64×64 array), worst case
// (every cell flips). Paper: SRAM ~0.5 ns < 3T2N ~2 ns < 2T2R ≈ 2FeFET
// ~10 ns.
#include <map>

#include "BenchCommon.h"

namespace {

using namespace nemtcam;
using namespace nemtcam::bench;
using namespace nemtcam::tcam;

std::map<TcamKind, WriteMetrics> g_results;

WriteMetrics run_write(TcamKind kind) {
  auto row = make_row(kind, kWidth, kRows);
  const auto word = checker_word(kWidth);
  row->store(complement_word(word));
  return row->write(word);
}

void BM_WriteLatency(benchmark::State& state) {
  const TcamKind kind = static_cast<TcamKind>(state.range(0));
  WriteMetrics m;
  for (auto _ : state) m = run_write(kind);
  g_results[kind] = m;
  state.SetLabel(kind_name(kind));
  state.counters["write_latency_ns"] = m.latency * 1e9;
  state.counters["write_ok"] = m.ok ? 1 : 0;
}

BENCHMARK(BM_WriteLatency)
    ->DenseRange(0, 3)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

struct PaperRef {
  double latency_ns;
};
const std::map<TcamKind, PaperRef> kPaper = {
    {TcamKind::Sram16T, {0.5}},
    {TcamKind::Nem3T2N, {2.0}},
    {TcamKind::Rram2T2R, {10.0}},
    {TcamKind::Fefet2F, {10.0}},
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  nemtcam::util::Table t(
      {"design", "write latency (measured)", "paper", "ok"});
  for (const TcamKind k : all_kinds()) {
    const auto& m = g_results[k];
    t.add_row({kind_name(k), nemtcam::util::si_format(m.latency, "s"),
               nemtcam::util::si_format(kPaper.at(k).latency_ns * 1e-9, "s"),
               m.ok ? "y" : ("FAIL: " + m.note)});
  }
  std::printf("\nFig. 6(a) — write latency per row, 64x64 array\n");
  t.print();
  return 0;
}
