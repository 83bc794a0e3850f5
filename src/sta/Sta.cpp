#include "sta/Sta.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace nemtcam::sta {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
// Driver edge ramp (the PWL sources step over a finite rise); the
// discharge clock starts at the edge *onset*, so the ramp rides into the
// upper bound only.
constexpr double kEdgeRise = 20e-12;  // s
// Energy-band half-width factor around the CV² estimate.
constexpr double kEnergyBand = 3.0;
// Settle criterion for driven lines: ln(1/ε) with ε = 10 % residue.
constexpr double kSettleLn = 2.302585092994046;

// Engineering-notation formatter for the human-readable report.
std::string eng(double v, const char* unit) {
  char buf[64];
  const double a = std::abs(v);
  if (v == 0.0) {
    std::snprintf(buf, sizeof buf, "0 %s", unit);
  } else if (std::isinf(v)) {
    std::snprintf(buf, sizeof buf, "%sinf %s", v < 0 ? "-" : "", unit);
  } else {
    static constexpr struct { double scale; const char* prefix; } kScales[] = {
        {1e9, "G"},  {1e6, "M"},   {1e3, "k"},  {1.0, ""},    {1e-3, "m"},
        {1e-6, "u"}, {1e-9, "n"},  {1e-12, "p"}, {1e-15, "f"}, {1e-18, "a"},
    };
    const auto* s = &kScales[sizeof kScales / sizeof kScales[0] - 1];
    for (const auto& cand : kScales) {
      if (a >= cand.scale) {
        s = &cand;
        break;
      }
    }
    std::snprintf(buf, sizeof buf, "%.3g %s%s", v / s->scale, s->prefix, unit);
  }
  return buf;
}

// Single-pole crossing time of `v_x` from v0 toward v_inf; +inf when the
// target is never reached.
double cross_time(double v0, double v_inf, double v_x, double tau) {
  if (tau <= 0.0) return kInf;
  const double num = v0 - v_inf;
  const double den = v_x - v_inf;
  if (num <= 0.0 || den <= 0.0 || den >= num) return kInf;
  return tau * std::log(num / den);
}
}  // namespace

StaOptions calibrated(const StaOptions& base, double t_nom, double t_measured,
                      double band) {
  StaOptions o = base;
  if (t_nom > 0.0 && t_measured > 0.0 && std::isfinite(t_nom) &&
      std::isfinite(t_measured) && band > 1.0) {
    const double k = t_measured / t_nom;
    o.k_lo = k / band;
    o.k_hi = k * band;
  }
  return o;
}

const RetentionReport* StaReport::worst_retention() const {
  const RetentionReport* worst = nullptr;
  for (const auto& r : retention)
    if (worst == nullptr || r.t_retention < worst->t_retention) worst = &r;
  return worst;
}

StaReport analyze(spice::Circuit& circuit,
                  const std::vector<std::string>& ml_probes,
                  const StaOptions& opt) {
  StaReport rep;
  const RcGraph g(circuit);
  rep.n_nodes = g.node_count();
  rep.n_edges = static_cast<int>(g.edges().size());

  const LevelSolution init = g.solve(/*use_final=*/false);
  const LevelSolution fin = g.solve(/*use_final=*/true);

  // --- Driven-line Elmore moments (needed before the ML upper bounds:
  // the SL slew rides into t_hi). ---
  for (const auto& pin : g.pins()) {
    if (pin.r_series <= 0.0) continue;
    const RcGraph::Elmore el = g.elmore_from(pin, fin);
    LineReport lr;
    lr.driver = pin.device->name();
    lr.node = circuit.node_name(pin.node);
    lr.r_drive = pin.r_series;
    lr.c_total = el.c_total;
    lr.m1 = el.m1;
    lr.m2 = el.m2;
    lr.t_settle_hi = kSettleLn * el.m1;
    lr.n_nodes = el.n_nodes;
    rep.lines.push_back(std::move(lr));
    if (pin.v_final != pin.v_init)
      rep.t_sl_settle_max =
          std::max(rep.t_sl_settle_max, kSettleLn * el.m1);
  }

  // --- Per-matchline timing. ---
  std::vector<std::string> probes = ml_probes;
  if (probes.empty()) {
    for (int n = 1; n < g.node_count(); ++n) {
      const std::string& name =
          circuit.node_name(static_cast<spice::NodeId>(n));
      if (name.rfind("ml", 0) == 0) probes.push_back(name);
    }
  }
  for (const auto& name : probes) {
    MlReport ml;
    ml.node = name;
    if (!circuit.has_node(name)) {
      rep.mls.push_back(std::move(ml));
      continue;
    }
    const spice::NodeId n = circuit.node(name);
    const std::size_t ni = static_cast<std::size_t>(n);
    ml.valid = true;
    ml.c_node = g.cap(n);

    // Precharge: the level the ML actually reaches in t_precharge through
    // the (pre-edge) conducting path — RC-limited, so an undersized
    // precharge device shows up as v0 < vdd.
    double v0 = g.ic(n);
    if (!init.floating[ni]) {
      const double v_target = init.v[ni];
      const double r_pre = g.thevenin_r(n, init);
      const double c_pre = g.swing_cap(n, init);
      if (std::isfinite(r_pre) && r_pre > 0.0 && c_pre > 0.0) {
        const double frac = -std::expm1(-opt.t_precharge / (r_pre * c_pre));
        v0 += (v_target - v0) * frac;
      } else {
        v0 = v_target;
      }
    }
    // Aggressor-coupling boost: when the search edge fires, every pair
    // capacitance into the ML injects c·ΔV_aggressor — the rising SLs and
    // the precharge-gate turn-off kick a floating ML above the rail
    // (matched traces settle at 1.1–1.35 V on a 1 V rail). Charge-share
    // against the ML's own lump gives the level the discharge starts from.
    if (ml.c_node > 0.0) {
      double q_kick = 0.0;
      for (const int xi : g.xcaps_at(n)) {
        const RcXcap& x = g.xcaps()[static_cast<std::size_t>(xi)];
        const spice::NodeId other = x.a == n ? x.b : x.a;
        const std::size_t oi = static_cast<std::size_t>(other);
        q_kick += x.c * (fin.v[oi] - init.v[oi]);
      }
      ml.v_boost = q_kick / ml.c_node;
      v0 += ml.v_boost;
    }
    ml.v0 = v0;

    if (fin.floating[ni]) {
      // No conducting path after the edge: pure leakage droop (the
      // matched NEM row — an open relay contact holds the ML up).
      const double i_leak = g.leak_current(n, v0, fin);
      ml.r_th = kInf;
      ml.c_swing = ml.c_node;
      ml.droop_rate = i_leak > 0.0 && ml.c_node > 0.0 ? i_leak / ml.c_node : 0.0;
      ml.v_strobe_nom = v0 - ml.droop_rate * opt.t_strobe;
      ml.v_inf = ml.v_strobe_nom;
      const double t_droop =
          ml.droop_rate > 0.0 ? (v0 - opt.v_sense) / ml.droop_rate : kInf;
      ml.discharges = t_droop <= opt.t_strobe;
      ml.t_cross_nom = t_droop;
      // No static lower bound for a statically-holding ML: the observed
      // crossing (when one happens) is driven by effects outside this
      // model — the SL edge couples into the compare gates and transiently
      // boosts their overdrive, discharging an ML the DC state says is
      // held (the matched MRAM row does exactly this). Claim only the
      // leak-droop upper bound.
      ml.t_cross_lo = 0.0;
      ml.t_cross_hi = std::isfinite(t_droop)
                          ? kEdgeRise + rep.t_sl_settle_max +
                                opt.k_hi * t_droop
                          : kInf;
    } else {
      ml.v_inf = fin.v[ni];
      ml.r_th = g.thevenin_r(n, fin);
      ml.c_swing = g.swing_cap(n, fin);
      ml.tau = ml.r_th * ml.c_swing;
      const double tau_fast = ml.r_th * ml.c_node;
      const double t_nom = cross_time(v0, ml.v_inf, opt.v_sense, ml.tau);
      const double t_fast = cross_time(v0, ml.v_inf, opt.v_sense, tau_fast);
      ml.t_cross_nom = t_nom;
      ml.t_cross_lo = opt.k_lo * t_fast;
      ml.t_cross_hi = std::isfinite(t_nom)
                          ? kEdgeRise + rep.t_sl_settle_max +
                                opt.k_hi * t_nom
                          : kInf;
      ml.discharges = std::isfinite(t_nom);
      if (ml.tau > 0.0 && std::isfinite(ml.tau)) {
        ml.v_strobe_nom =
            ml.v_inf + (v0 - ml.v_inf) * std::exp(-opt.t_strobe / ml.tau);
      } else {
        ml.v_strobe_nom = v0;
      }
      const double i_leak = g.leak_current(n, ml.v_strobe_nom, fin);
      ml.droop_rate =
          i_leak > 0.0 && ml.c_node > 0.0 ? i_leak / ml.c_node : 0.0;
    }
    ml.sense_margin = ml.v_strobe_nom - opt.v_sense;
    rep.mls.push_back(std::move(ml));
  }

  // --- Retention bounds for every state-holding terminal. ---
  for (const auto& h : g.holds()) {
    RetentionReport rr;
    rr.device = h.device->name();
    rr.node = circuit.node_name(h.node);
    rr.c = g.cap(h.node);
    rr.v_hold = h.v_hold;
    rr.v_start = g.ic(h.node);
    if (!fin.floating[static_cast<std::size_t>(h.node)]) {
      rr.t_retention = kInf;  // actively driven: never decays
      rr.i_leak = 0.0;
    } else {
      rr.i_leak = g.leak_current(h.node, rr.v_start, fin);
      if (rr.v_start <= rr.v_hold) {
        rr.t_retention = 0.0;  // stored below the hold level: already lost
      } else if (rr.i_leak <= 0.0 || rr.c <= 0.0) {
        rr.t_retention = kInf;
      } else {
        // Linear decay at the initial leak current: conservative — the
        // current only shrinks as the node approaches its leak targets.
        rr.t_retention = rr.c * (rr.v_start - rr.v_hold) / rr.i_leak;
      }
    }
    rep.retention.push_back(std::move(rr));
  }

  // --- CV² search-energy band + static dissipation. ---
  double e_cv2 = 0.0;
  for (int n = 1; n < g.node_count(); ++n) {
    const std::size_t ni = static_cast<std::size_t>(n);
    const double c = g.cap(static_cast<spice::NodeId>(n));
    if (c <= 0.0) continue;
    const double v_ic = g.ic(static_cast<spice::NodeId>(n));
    const double d1 = init.v[ni] - v_ic;          // precharge transition
    const double d2 = fin.v[ni] - init.v[ni];     // evaluate transition
    e_cv2 += c * (d1 * d1 + d2 * d2);
  }
  double p_static = 0.0;
  for (std::size_t ei = 0; ei < g.edges().size(); ++ei) {
    if (!fin.edge_on[ei]) continue;
    const RcEdge& e = g.edges()[ei];
    const double dv = fin.v[static_cast<std::size_t>(e.a)] -
                      fin.v[static_cast<std::size_t>(e.b)];
    p_static += e.g_on * dv * dv;
  }
  rep.p_static = p_static;
  rep.e_search_lo = 0.5 * e_cv2;
  rep.e_search_nom = e_cv2 + p_static * opt.t_window;
  rep.e_search_hi = kEnergyBand * rep.e_search_nom;

  return rep;
}

std::string StaReport::to_string() const {
  std::string out = "STA: " + std::to_string(n_nodes) + " nodes, " +
                    std::to_string(n_edges) + " edges\n";
  for (const auto& ml : mls) {
    if (!ml.valid) {
      out += "  ML " + ml.node + ": <no such node>\n";
      continue;
    }
    out += "  ML " + ml.node + ": v0=" + eng(ml.v0, "V") +
           ", v_inf=" + eng(ml.v_inf, "V") + ", R_th=" + eng(ml.r_th, "Ohm") +
           ", C=" + eng(ml.c_swing, "F");
    if (ml.discharges) {
      out += ", t_cross=[" + eng(ml.t_cross_lo, "s") + ", " +
             eng(ml.t_cross_nom, "s") + ", " + eng(ml.t_cross_hi, "s") + "]";
    } else {
      out += ", holds (droop " + eng(ml.droop_rate, "V/s") + ")";
    }
    out += ", margin=" + eng(ml.sense_margin, "V") + "\n";
  }
  for (const auto& l : lines) {
    out += "  line " + l.node + " (" + l.driver +
           "): m1=" + eng(l.m1, "s") + ", m2=" + eng(l.m2, "s^2") +
           ", settle<" + eng(l.t_settle_hi, "s") + " over " +
           std::to_string(l.n_nodes) + " nodes\n";
  }
  for (const auto& r : retention) {
    out += "  retention " + r.device + " @ " + r.node + ": " +
           eng(r.t_retention, "s") + " (C=" + eng(r.c, "F") +
           ", leak=" + eng(r.i_leak, "A") + ")\n";
  }
  out += "  search energy [" + eng(e_search_lo, "J") + ", " +
         eng(e_search_nom, "J") + ", " + eng(e_search_hi, "J") +
         "]; static " + eng(p_static, "W") + "; SL settle < " +
         eng(t_sl_settle_max, "s") + "\n";
  return out;
}

}  // namespace nemtcam::sta
