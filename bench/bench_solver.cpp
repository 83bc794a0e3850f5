// Solver bench (no paper figure — engineering validation).
//
// Three measurements, written to bench_solver.json / BENCH_pr5.json for
// machine checks:
//  1. A SparseLu micro: full factorization vs numeric refactorization of
//     the same MNA-shaped pattern with perturbed values.
//  2. Template replay: repeated searches on one row after its template
//     is elaborated (each replay rebinds sources and device state). Per-
//     search wall-clock, heap allocation counts (via the replacement
//     operator new below), and the elaboration/stamp-pattern counters
//     proving zero reconstruction during replay go to BENCH_pr5.json.
//  3. Step-control accuracy: every kind's one-bit-miss 8-bit search on a
//     64-row column under step_defaults, against fixed-step Backward Euler
//     at a 0.25 ps ceiling (the set-up of the 3T2N-only test
//     StepControl.AdaptiveSearchMatchesRefinedFixedReference). The latency
//     and energy errors go to bench_solver.json: they are the evidence a
//     change that moves results at the rounding level is no less accurate.
// Coupled-array search time is measured by bench_sta (64x64, with its STA
// speedup gate) and bench_ablation_array_size.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <random>

#include "BenchCommon.h"
#include "hier/Elaborate.h"
#include "linalg/SparseLu.h"
#include "spice/Transient.h"
#include "tcam/ArrayTemplate.h"
#include "tcam/Harness.h"
#include "tcam/Nem3T2NRow.h"
#include "tcam/RowSpecs.h"

// Process-wide heap-allocation counter for the template-replay leg. The
// replaceable allocation functions must live at global scope with external
// linkage; only the count hook is added — allocation itself stays malloc.
namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

// GCC's -Wmismatched-new-delete pairs call sites against the built-in
// allocator knowledge and flags std::free() on new-ed pointers; with the
// replacement operators malloc-backed, the pairing holds by definition.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace {

using namespace nemtcam;
using namespace nemtcam::bench;
using namespace nemtcam::tcam;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Per-op wall-clock of the timed sections, filled by the BM_ functions and
// written as JSON from main().
double g_full_factor_s = 0.0;
double g_refactor_s = 0.0;

// MNA-shaped CSR test matrix: tridiagonal-ish coupling plus a dense-ish
// "voltage source" border, diagonally dominant so pivoting stays on the
// diagonal and the refactorization path is exercised, not the fallback.
struct CsrMatrix {
  std::size_t n = 0;
  std::vector<std::size_t> row_ptr, cols;
  std::vector<double> vals;
  linalg::CsrView view() const { return {n, row_ptr.data(), cols.data(), vals.data()}; }
};

CsrMatrix make_mna_like(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> mag(0.5, 1.5);
  CsrMatrix m;
  m.n = n;
  m.row_ptr.push_back(0);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      const bool band = (c + 2 >= r && c <= r + 2);
      const bool border = (r + 4 >= n || c + 4 >= n);
      if (!band && !border) continue;
      m.cols.push_back(c);
      m.vals.push_back(r == c ? 10.0 + mag(rng) : -mag(rng) * 0.2);
    }
    m.row_ptr.push_back(m.cols.size());
  }
  return m;
}

void BM_SparseLuFullFactor(benchmark::State& state) {
  CsrMatrix m = make_mna_like(static_cast<std::size_t>(state.range(0)), 7);
  linalg::SparseLu lu;
  double total = 0.0;
  std::size_t reps = 0;
  for (auto _ : state) {
    const auto t0 = Clock::now();
    lu.factorize(m.view());
    total += seconds_since(t0);
    ++reps;
    benchmark::DoNotOptimize(lu.fill_nnz());
  }
  g_full_factor_s = total / static_cast<double>(reps);
  state.counters["factor_us"] = g_full_factor_s * 1e6;
}

void BM_SparseLuRefactor(benchmark::State& state) {
  CsrMatrix m = make_mna_like(static_cast<std::size_t>(state.range(0)), 7);
  linalg::SparseLu lu(m.view());
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> wiggle(0.95, 1.05);
  double total = 0.0;
  std::size_t reps = 0;
  for (auto _ : state) {
    for (double& v : m.vals) v *= wiggle(rng);
    const auto t0 = Clock::now();
    const bool ok = lu.refactorize(m.view());
    total += seconds_since(t0);
    ++reps;
    benchmark::DoNotOptimize(ok);
  }
  g_refactor_s = total / static_cast<double>(reps);
  state.counters["refactor_us"] = g_refactor_s * 1e6;
}

BENCHMARK(BM_SparseLuFullFactor)->Arg(256)->Iterations(40)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_SparseLuRefactor)->Arg(256)->Iterations(40)->Unit(benchmark::kMicrosecond);

// --- Template replay ---

// Searches timed after the warm-up; keys alternate between all-match and
// one-bit-mismatch so every replay re-drives the SLs.
constexpr int kReplaySearches = 6;

struct ReplayLeg {
  double per_search_s = 0.0;
  std::uint64_t allocs_per_search = 0;
  std::uint64_t instances_elaborated = 0;  // delta across the timed searches
  SearchMetrics m;                         // metrics of the last search
};

ReplayLeg g_replay;

ReplayLeg run_replay_leg() {
  Nem3T2NRow row(kWidth, kRows, Calibration::standard());
  const auto word = checker_word(kWidth);
  row.store(word);
  const auto key = one_bit_mismatch_key(word);
  // Warm-up search: pays the one-time elaboration and symbolic analysis.
  benchmark::DoNotOptimize(row.search(key).ml_min);
  const std::uint64_t elab0 = hier::stats().instances_elaborated;
  const std::uint64_t a0 = g_heap_allocs.load(std::memory_order_relaxed);
  ReplayLeg out;
  const auto t0 = Clock::now();
  for (int i = 0; i < kReplaySearches; ++i)
    out.m = row.search((i % 2) ? word : key);
  out.per_search_s = seconds_since(t0) / kReplaySearches;
  out.allocs_per_search =
      (g_heap_allocs.load(std::memory_order_relaxed) - a0) / kReplaySearches;
  out.instances_elaborated = hier::stats().instances_elaborated - elab0;
  return out;
}

void BM_SearchTemplateReplay(benchmark::State& state) {
  for (auto _ : state) {
    g_replay = run_replay_leg();
    benchmark::DoNotOptimize(g_replay.m.ml_min);
  }
  state.counters["search_ms"] = g_replay.per_search_s * 1e3;
  state.counters["allocs"] = static_cast<double>(g_replay.allocs_per_search);
}

BENCHMARK(BM_SearchTemplateReplay)->Iterations(1)->Unit(benchmark::kMillisecond);

// --- Step-control accuracy ---

// The one-bit-miss search (checkerboard word, key bit 0 flipped) of an
// 8-bit row on the one-row fixture of a 64-row column, with the cell
// search_spec_for elaborates, run under `opts` (its t_end is replaced by
// the fixture's).
ArraySearchMetrics miss_search(TcamKind kind, spice::TransientOptions opts) {
  constexpr int kAccWidth = 8;
  const SearchTemplateSpec spec =
      search_spec_for(kind, Calibration::standard());
  const core::TernaryWord word = checker_word(kAccWidth);
  ArrayFixture fx(spec, /*rows=*/1, kAccWidth, one_bit_mismatch_key(word),
                  /*column_rows=*/kRows);
  const PortNets nets = fx.port_nets(0);
  for (int i = 0; i < kAccWidth; ++i)
    spec.bind(fx.circuit(),
              elaborate_cell(fx.circuit(), spec.cell,
                             "Xcell" + std::to_string(i), nets, i,
                             spec.cell.params),
              word[static_cast<std::size_t>(i)]);
  opts.t_end = fx.t_end();
  opts.probe_nodes = {fx.ml(0)};
  return fx.metrics(run_transient(fx.circuit(), opts),
                    width_scaled_strobe(spec.t_strobe, kAccWidth));
}

struct AccuracyRow {
  TcamKind kind;
  bool ok = false;
  double latency_err_pct = 0.0;  // (adaptive − reference) / reference
  double energy_err_pct = 0.0;
};

std::vector<AccuracyRow> g_accuracy;

void BM_StepControlAccuracy(benchmark::State& state) {
  for (auto _ : state) {
    g_accuracy.clear();
    for (const TcamKind kind : seven_kinds()) {
      spice::TransientOptions fixed;
      fixed.dt_init = 1e-13;
      fixed.dt_max = 0.25e-12;
      const ArraySearchMetrics ref = miss_search(kind, fixed);
      const ArraySearchMetrics ad = miss_search(kind, spice::step_defaults(0.0));
      AccuracyRow row{kind};
      row.ok = ref.ok && ad.ok && ref.rows.at(0).latency > 0.0;
      if (row.ok) {
        const double ref_latency = ref.rows[0].latency;
        row.latency_err_pct =
            100.0 * (ad.rows[0].latency - ref_latency) / ref_latency;
        row.energy_err_pct = 100.0 * (ad.energy - ref.energy) / ref.energy;
      }
      g_accuracy.push_back(row);
    }
  }
}

BENCHMARK(BM_StepControlAccuracy)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  const double refactor_speedup =
      g_refactor_s > 0.0 ? g_full_factor_s / g_refactor_s : 0.0;

  std::printf("\nSparseLu n=256 MNA-shaped micro:\n"
              "  full factorize: %.1f us   refactorize: %.1f us   (%.2fx)\n",
              g_full_factor_s * 1e6, g_refactor_s * 1e6, refactor_speedup);

  std::printf(
      "Template replay — 64-wide 3T2N row, %d searches after elaboration:\n"
      "  %.2f ms/search  %llu allocs/search   instances elaborated during "
      "replay: %llu   stamp patterns on replayed circuit: %zu\n",
      kReplaySearches, g_replay.per_search_s * 1e3,
      static_cast<unsigned long long>(g_replay.allocs_per_search),
      static_cast<unsigned long long>(g_replay.instances_elaborated),
      g_replay.m.stamp_pattern_builds);

  std::printf(
      "Step-control accuracy — 8-bit one-bit-miss search, 64-row column, "
      "step_defaults vs fixed-step BE at dt_max 0.25 ps:\n");
  for (const AccuracyRow& row : g_accuracy) {
    if (row.ok)
      std::printf("  %-11s latency %+.3f%%   energy %+.3f%%\n",
                  kind_name(row.kind), row.latency_err_pct,
                  row.energy_err_pct);
    else
      std::printf("  %-11s search failed\n", kind_name(row.kind));
  }

  FILE* f5 = std::fopen("BENCH_pr5.json", "w");
  if (f5 != nullptr) {
    std::fprintf(
        f5,
        "{\n"
        "  \"template_replay_64wide\": {\n"
        "    \"searches\": %d,\n"
        "    \"search_ms\": %.6f,\n"
        "    \"allocs_per_search\": %llu,\n"
        "    \"instances_elaborated_during_replay\": %llu,\n"
        "    \"stamp_pattern_builds\": %zu\n"
        "  }\n"
        "}\n",
        kReplaySearches, g_replay.per_search_s * 1e3,
        static_cast<unsigned long long>(g_replay.allocs_per_search),
        static_cast<unsigned long long>(g_replay.instances_elaborated),
        g_replay.m.stamp_pattern_builds);
    std::fclose(f5);
    std::printf("wrote BENCH_pr5.json\n");
  }

  FILE* f = std::fopen("bench_solver.json", "w");
  if (f != nullptr) {
    std::fprintf(
        f,
        "{\n"
        "  \"sparselu_n256\": {\n"
        "    \"full_factor_us\": %.6f,\n"
        "    \"refactor_us\": %.6f,\n"
        "    \"speedup\": %.4f\n"
        "  },\n"
        "  \"step_accuracy\": {",
        g_full_factor_s * 1e6, g_refactor_s * 1e6, refactor_speedup);
    for (std::size_t i = 0; i < g_accuracy.size(); ++i) {
      const AccuracyRow& row = g_accuracy[i];
      std::fprintf(f, "%s\n    \"%s\": ", i ? "," : "", kind_name(row.kind));
      if (row.ok)
        std::fprintf(f,
                     "{\"latency_err_pct\": %.6f, \"energy_err_pct\": %.6f}",
                     row.latency_err_pct, row.energy_err_pct);
      else
        std::fprintf(f, "null");
    }
    std::fprintf(f, "\n  }\n}\n");
    std::fclose(f);
    std::printf("wrote bench_solver.json\n");
  }
  return 0;
}
