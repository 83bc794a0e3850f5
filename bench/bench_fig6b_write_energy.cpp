// Fig. 6(b): write energy per row (64×64 array), worst case (every cell
// flips). Paper: 3T2N 0.35 pJ, SRAM 0.81 pJ, 2FeFET 4.7 pJ, 2T2R 46 pJ —
// 2.31×, 131×, 13.5× NEM advantage respectively.
#include <map>

#include "BenchCommon.h"

namespace {

using namespace nemtcam;
using namespace nemtcam::bench;
using namespace nemtcam::tcam;

std::map<TcamKind, WriteMetrics> g_results;

void BM_WriteEnergy(benchmark::State& state) {
  const TcamKind kind = static_cast<TcamKind>(state.range(0));
  WriteMetrics m;
  for (auto _ : state) {
    auto row = make_row(kind, kWidth, kRows);
    const auto word = checker_word(kWidth);
    row->store(complement_word(word));
    m = row->write(word);
  }
  g_results[kind] = m;
  state.SetLabel(kind_name(kind));
  state.counters["write_energy_pJ"] = m.energy * 1e12;
  state.counters["write_ok"] = m.ok ? 1 : 0;
}

BENCHMARK(BM_WriteEnergy)
    ->DenseRange(0, 3)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

const std::map<TcamKind, double> kPaperEnergyJ = {
    {TcamKind::Sram16T, 0.81e-12},
    {TcamKind::Nem3T2N, 0.35e-12},
    {TcamKind::Rram2T2R, 46e-12},
    {TcamKind::Fefet2F, 4.7e-12},
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  using nemtcam::util::ratio_format;
  using nemtcam::util::si_format;

  const double nem = g_results[TcamKind::Nem3T2N].energy;
  nemtcam::util::Table t({"design", "write energy (measured)", "paper",
                          "ratio vs 3T2N (measured)", "ratio (paper)"});
  for (const TcamKind k : all_kinds()) {
    const auto& m = g_results[k];
    t.add_row({kind_name(k), si_format(m.energy, "J"),
               si_format(kPaperEnergyJ.at(k), "J"),
               ratio_format(m.energy / nem),
               ratio_format(kPaperEnergyJ.at(k) / kPaperEnergyJ.at(TcamKind::Nem3T2N))});
  }
  std::printf("\nFig. 6(b) — write energy per row, 64x64 array\n");
  t.print();
  return 0;
}
