#include "spice/Newton.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "linalg/SingularMatrixError.h"
#include "linalg/StructuralRank.h"
#include "spice/AssemblyCache.h"
#include "spice/Recovery.h"
#include "spice/Stamper.h"
#include "util/Log.h"

namespace nemtcam::spice {

namespace {

// Convergence tolerance on the node-voltage update: abstol + reltol·max|v|.
constexpr double kAbstol = 1e-6;  // volts
constexpr double kReltol = 1e-6;

// Applies the damped update and checks node-voltage convergence. Returns
// true when converged.
bool apply_update(const std::vector<double>& v_new, std::vector<double>& v,
                  int n_node, const NewtonOptions& opts, NewtonResult& result) {
  const std::size_t n = v.size();
  double max_delta = 0.0;
  int worst = -1;
  bool clamped = false;
  for (std::size_t i = 0; i < n; ++i) {
    double dv = v_new[i] - v[i];
    if (opts.damp_limit > 0.0 && i < static_cast<std::size_t>(n_node)) {
      if (dv > opts.damp_limit) { dv = opts.damp_limit; clamped = true; }
      if (dv < -opts.damp_limit) { dv = -opts.damp_limit; clamped = true; }
    }
    if (i < static_cast<std::size_t>(n_node) && std::fabs(dv) > max_delta) {
      max_delta = std::fabs(dv);
      worst = static_cast<int>(i);
    }
    v[i] += dv;
  }
  result.max_delta = max_delta;
  if (worst >= 0) result.worst_unknown = worst;
  if (clamped) return false;
  // Converged when the node-voltage update is negligible.
  double tol_scale = 0.0;
  for (int i = 0; i < n_node; ++i)
    tol_scale = std::max(tol_scale, std::fabs(v[static_cast<std::size_t>(i)]));
  return max_delta <= kAbstol + kReltol * tol_scale;
}

}  // namespace

NewtonResult solve_newton(Circuit& circuit, double t, double dt, bool is_dc,
                          std::vector<double>& v,
                          const std::vector<double>& v_prev,
                          const NewtonOptions& opts, Integrator integrator) {
  const std::size_t n = static_cast<std::size_t>(circuit.unknown_count());
  NEMTCAM_EXPECT(v.size() == n && v_prev.size() == n);
  const int n_node = circuit.node_unknowns();

  NewtonResult result;
  AssemblyCache& cache = circuit.solver_cache();
  // The per-solve pass: everything the solve holds fixed, stamped at
  // v_prev. A pass that deviates from the recorded stamp pattern
  // (topology-visible mode change, e.g. DC vs transient) is redone once
  // in build mode; the second pass always succeeds.
  StampContext fixed_ctx(t, dt, is_dc, n_node, &v_prev, &v_prev, integrator);
  fixed_ctx.set_source_scale(opts.source_scale);
  const auto stamp_fixed = [&] {
    for (int pass = 0; pass < 2; ++pass) {
      Stamper stamper(cache, cache.begin_solve(n), n_node);
      for (const auto& dev : circuit.devices())
        dev->stamp_fixed(stamper, fixed_ctx);
      if (opts.gmin > 0.0)
        for (int i = 1; i <= n_node; ++i)
          stamper.conductance(static_cast<NodeId>(i), kGround, opts.gmin);
      if (cache.finish_solve()) return;
      NEMTCAM_ENSURE_MSG(pass == 0, "assembly pattern unstable");
    }
  };
  stamp_fixed();

  StampContext ctx(t, dt, is_dc, n_node, &v, &v_prev, integrator);
  ctx.set_source_scale(opts.source_scale);
  for (int iter = 0; iter < opts.max_iterations; ++iter) {
    result.iterations = iter + 1;
    // Each iteration starts from the per-solve stamps and adds the
    // iterate-dependent ones. A deviating pass drops the pattern; both
    // passes are then re-recorded.
    std::vector<double>* rhs = nullptr;
    for (int pass = 0; pass < 2; ++pass) {
      rhs = &cache.begin_iteration();
      Stamper stamper(cache, *rhs, n_node);
      for (const auto& dev : circuit.devices()) dev->stamp(stamper, ctx);
      if (cache.finish_iteration()) break;
      NEMTCAM_ENSURE_MSG(pass == 0, "assembly pattern unstable");
      stamp_fixed();
    }

    try {
      cache.factorize().solve_inplace(*rhs);  // rhs becomes v_new
    } catch (const linalg::SingularMatrixError&) {
      result.converged = false;
      result.singular = true;
      return result;
    }

    if (apply_update(*rhs, v, n_node, opts, result)) {
      result.converged = true;
      return result;
    }
  }
  return result;
}

std::vector<int> dc_undetermined_unknowns(Circuit& circuit) {
  const std::size_t n = static_cast<std::size_t>(circuit.unknown_count());
  if (n == 0) return {};
  // Assemble the gmin-free DC pattern into a private cache (the circuit's
  // own solver cache keeps its gmin-augmented pattern). stamp() reads
  // device state but never advances it; only commit() does.
  AssemblyCache cache;
  const std::vector<double> v(n, 0.0);
  const StampContext ctx(0.0, 0.0, /*is_dc=*/true, circuit.node_unknowns(),
                         &v, &v);
  Stamper fixed(cache, cache.begin_solve(n), circuit.node_unknowns());
  for (const auto& dev : circuit.devices()) dev->stamp_fixed(fixed, ctx);
  cache.finish_solve();
  Stamper stamper(cache, cache.begin_iteration(), circuit.node_unknowns());
  for (const auto& dev : circuit.devices()) dev->stamp(stamper, ctx);
  cache.finish_iteration();

  // Unmatched columns and uncoverable equations name the same defects;
  // merge them.
  const auto rank = linalg::structural_rank(cache.view());
  std::vector<char> flagged(n, 0);
  for (const std::size_t c : rank.unmatched_cols) flagged[c] = 1;
  for (const std::size_t r : rank.unmatched_rows) flagged[r] = 1;
  std::vector<int> unknowns;
  for (std::size_t u = 0; u < n; ++u)
    if (flagged[u]) unknowns.push_back(static_cast<int>(u));
  return unknowns;
}

const Device* branch_owner(const Circuit& circuit, int branch) {
  for (const auto& dev : circuit.devices())
    if (dev->branch_count() > 0 && dev->first_branch() <= branch &&
        branch < dev->first_branch() + dev->branch_count())
      return dev.get();
  return nullptr;
}

std::string structural_singularity_report(Circuit& circuit) {
  const int n_node = circuit.node_unknowns();
  std::ostringstream out;
  for (const int u : dc_undetermined_unknowns(circuit)) {
    if (out.tellp() > 0) out << "; ";
    if (u < n_node) {
      out << "node '" << circuit.node_name(static_cast<NodeId>(u + 1))
          << "' is structurally undetermined at DC";
    } else {
      const Device* owner = branch_owner(circuit, u - n_node);
      out << "branch current of device '" << (owner ? owner->name() : "?")
          << "' is structurally undetermined at DC";
    }
  }
  return out.str();
}

DcResult dc_operating_point(Circuit& circuit, const DcOptions& opts) {
  DcResult dc;
  dc.v = circuit.initial_state();
  const std::vector<double> v_prev = dc.v;
  std::vector<double> best = dc.v;  // deepest converged rung's solution
  bool any_rung = false;
  for (double gmin : opts.gmin_ladder) {
    NewtonOptions nopts = opts.newton;
    nopts.gmin = gmin;
    const NewtonResult r =
        solve_newton(circuit, 0.0, 0.0, /*is_dc=*/true, dc.v, v_prev, nopts);
    if (r.converged) {
      best = dc.v;
      any_rung = true;
      continue;
    }
    dc.last_gmin = gmin;
    dc.worst_unknown = r.worst_unknown;
    dc.worst_node = unknown_name(circuit, r.worst_unknown);
    if (opts.recover) {
      // Escalate through the recovery ladder at this rung (it re-ramps
      // gmin down to `gmin` itself and can fall back to source stepping
      // or a re-pivoted refactor).
      SolverDiagnostics diag;
      dc.v = any_rung ? best : v_prev;
      const NewtonResult rr = solve_newton_recovering(
          circuit, 0.0, 0.0, /*is_dc=*/true, dc.v, v_prev, nopts,
          RecoveryOptions{}, &diag);
      if (rr.converged) {
        best = dc.v;
        any_rung = true;
        dc.recovered = true;
        dc.recovery_stage = stage_name(diag.converged_stage);
        continue;
      }
      dc.last_gmin = diag.last_gmin > 0.0 ? diag.last_gmin : gmin;
      if (diag.worst_unknown >= 0) {
        dc.worst_unknown = diag.worst_unknown;
        dc.worst_node = diag.worst_node;
      }
      log::warn("dc_operating_point failed: ", diag.summary(),
                " (returning partial solution)");
    } else {
      log::warn("dc_operating_point: gmin=", gmin,
                " failed to converge, worst node '", dc.worst_node,
                "' (recovery disabled; returning partial solution)");
    }
    // Distinguish a structural defect (singular for every value
    // assignment — a netlist bug) from a numerical stall: name the
    // offending node/device via the structural-rank pass.
    dc.singular_detail = structural_singularity_report(circuit);
    if (!dc.singular_detail.empty())
      log::warn("dc_operating_point: ", dc.singular_detail);
    dc.converged = false;
    dc.v = any_rung ? best : v_prev;
    return dc;
  }
  dc.converged = true;
  dc.v = best;
  return dc;
}

}  // namespace nemtcam::spice
