// nemtcam_sim — command-line circuit simulator over the nemtcam engine.
//
//   nemtcam_sim deck.sp [deck2.sp ...] [--points N] [--threads N]
//
// Parses SPICE-style netlists (see spice/Netlist.h for the supported
// subset), runs the requested analysis (.op or .tran), and prints the
// .print node voltages — as a DC table or as N transient sample rows —
// plus the per-source delivered-energy ledger. Multiple decks are
// simulated concurrently (--threads, default NEMTCAM_THREADS or the core
// count); reports still print in argument order.
//
// Transients run under LTE-controlled adaptive stepping at the engine's
// fixed tolerances, the step capped at the larger of the deck's .tran
// dt_max and t_end/50.
//
// Every deck is ERC-checked before any solve (see src/erc/): errors abort
// the deck with the structured findings report, warnings print and the
// simulation proceeds. nemtcam_lint prints the same findings without
// simulating.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "erc/Checker.h"
#include "netlist/Netlist.h"
#include "spice/Newton.h"
#include "spice/Transient.h"
#include "util/Sweep.h"
#include "util/Table.h"

using namespace nemtcam;
using namespace nemtcam::spice;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: nemtcam_sim <deck.sp> [more decks...]"
               " [--points N] [--threads N]\n");
  return 2;
}

struct DeckReport {
  bool ok = false;
  std::string text;  // full report (or the error message when !ok)
};

// Simulates one deck and renders its whole report into a string, so decks
// can run concurrently without interleaving their output.
DeckReport simulate_deck(const std::string& path, int points) {
  DeckReport rep;
  std::ostringstream out;

  std::ifstream in(path);
  if (!in) {
    rep.text = "nemtcam_sim: cannot open '" + path + "'\n";
    return rep;
  }
  std::stringstream buf;
  buf << in.rdbuf();

  ParsedNetlist deck;
  try {
    deck = parse_netlist(buf.str());
  } catch (const NetlistError& e) {
    rep.text = std::string("nemtcam_sim: ") + e.what() + "\n";
    return rep;
  }
  out << "* " << deck.title << "\n";
  out << "* " << deck.circuit->node_count() << " nodes, "
      << deck.circuit->unknown_count() << " unknowns, "
      << deck.circuit->devices().size() << " devices\n";

  Circuit& ckt = *deck.circuit;

  // Static checks before any Newton iteration: a malformed deck aborts
  // with named findings instead of a singular-matrix failure mid-solve.
  const erc::Report report = erc::Checker().run(ckt);
  if (report.has_errors()) {
    rep.text = "nemtcam_sim: ERC failed for '" + path + "' (" +
               report.summary() + ")\n" + report.to_string();
    return rep;
  }
  if (!report.empty()) out << report.to_string();

  if (deck.analysis.kind == ParsedAnalysis::Kind::Op ||
      deck.analysis.kind == ParsedAnalysis::Kind::None) {
    const auto dc = dc_operating_point(ckt);
    if (!dc.converged) {
      rep.text = "nemtcam_sim: DC operating point did not converge";
      if (!dc.singular_detail.empty())
        rep.text += " (" + dc.singular_detail + ")";
      rep.text += "\n";
      return rep;
    }
    util::Table t({"node", "voltage"});
    const auto& nodes = deck.print_nodes;
    if (nodes.empty()) {
      for (int n = 1; n < static_cast<int>(ckt.node_count()); ++n)
        t.add_row({ckt.node_name(n),
                   util::si_format(dc.v[static_cast<std::size_t>(n - 1)], "V")});
    } else {
      for (const auto& name : nodes) {
        const NodeId n = ckt.node(name);
        t.add_row({name,
                   util::si_format(dc.v[static_cast<std::size_t>(n - 1)], "V")});
      }
    }
    out << "\nDC operating point\n" << t.to_string();
    rep.ok = true;
    rep.text = out.str();
    return rep;
  }

  // Transient. The step cap may exceed the deck's dt_max (tolerances
  // control accuracy) but stays fine enough that the printed sample table
  // still resolves the waveform.
  const double t_end = deck.analysis.tran_t_end;
  const double dt_max = deck.analysis.tran_dt_max;
  TransientOptions opts =
      step_defaults(t_end, std::max(dt_max, t_end / 50.0));
  opts.dt_init = dt_max / 100.0;
  const auto res = run_transient(ckt, opts);
  if (!res.finished) {
    rep.text = "nemtcam_sim: transient failed: " + res.failure + "\n";
    return rep;
  }

  std::vector<std::string> headers = {"t"};
  std::vector<Trace> traces;
  for (const auto& name : deck.print_nodes) {
    headers.push_back("v(" + name + ")");
    traces.push_back(res.node_trace(ckt.node(name)));
  }
  util::Table t(headers);
  for (int k = 0; k < points; ++k) {
    const double tp = opts.t_end * k / (points - 1);
    std::vector<std::string> row = {util::si_format(tp, "s", 3)};
    for (const auto& tr : traces)
      row.push_back(util::si_format(tr.at(tp), "V", 4));
    t.add_row(row);
  }
  out << "\nTransient (" << res.steps_taken << " accepted steps)\n"
      << t.to_string();

  util::Table e({"source", "delivered energy"});
  for (const auto& [name, energy] : res.source_energies())
    e.add_row({name, util::si_format(energy, "J")});
  out << "\nEnergy ledger\n" << e.to_string();
  rep.ok = true;
  rep.text = out.str();
  return rep;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  int points = 25;
  std::size_t threads = 0;  // 0 → run_sweep default
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--points") == 0 && i + 1 < argc) {
      points = std::atoi(argv[++i]);
      if (points < 2) points = 2;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      const int n = std::atoi(argv[++i]);
      if (n < 1) return usage();
      threads = static_cast<std::size_t>(n);
    } else if (argv[i][0] != '-') {
      paths.emplace_back(argv[i]);
    } else {
      return usage();
    }
  }
  if (paths.empty()) return usage();

  util::SweepOptions sweep;
  sweep.threads = paths.size() == 1 ? 1 : threads;
  // Guarded sweep: a deck that throws past simulate_deck's own handling
  // (solver contract violation, bad_alloc, …) fails alone — the other
  // decks still simulate and print.
  const auto items = util::run_sweep_guarded<DeckReport>(
      paths.size(),
      [&paths, points](std::size_t i, std::uint64_t) {
        return simulate_deck(paths[i], points);
      },
      sweep);

  bool all_ok = true;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (items.size() > 1)
      std::printf("%s==== %s ====\n", i == 0 ? "" : "\n", paths[i].c_str());
    if (items[i].ok && items[i].value.ok) {
      std::fputs(items[i].value.text.c_str(), stdout);
    } else {
      const std::string text =
          items[i].ok ? items[i].value.text
                      : "nemtcam_sim: " + paths[i] + ": " + items[i].error + "\n";
      std::fputs(text.c_str(), stderr);
      all_ok = false;
    }
  }
  return all_ok ? 0 : 1;
}
