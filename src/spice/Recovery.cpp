#include "spice/Recovery.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <sstream>
#include <vector>

#include "util/Log.h"

namespace nemtcam::spice {

const char* stage_name(LadderStage s) {
  switch (s) {
    case LadderStage::Newton: return "newton";
    case LadderStage::DampedNewton: return "damped-newton";
    case LadderStage::GminRamp: return "gmin-ramp";
    case LadderStage::SourceStepping: return "source-stepping";
    case LadderStage::FullRefactor: return "full-refactor";
  }
  return "?";
}

std::string unknown_name(const Circuit& circuit, int unknown) {
  if (unknown < 0) return {};
  if (unknown < circuit.node_unknowns())
    return circuit.node_name(static_cast<NodeId>(unknown + 1));
  // Built up in place: the one-liner `"b" + std::to_string(...)` trips a
  // GCC 12 -Wrestrict false positive (PR105329) under -Werror.
  std::string name = "b";
  name += std::to_string(unknown - circuit.node_unknowns());
  return name;
}

std::string SolverDiagnostics::summary() const {
  std::ostringstream os;
  if (recovered) {
    os << "recovered via " << stage_name(converged_stage);
    if (residual_gmin > 0.0) os << " (residual gmin=" << residual_gmin << ")";
    os << " after " << attempts.size() << " attempts";
  } else if (!attempts.empty() && attempts.back().converged) {
    os << "converged at " << stage_name(converged_stage);
  } else {
    os << "failed at " << stage_name(failure_stage);
    if (last_gmin > 0.0) os << " (gmin=" << last_gmin << ")";
    if (!worst_node.empty()) os << ", worst node '" << worst_node << "'";
    if (saw_singular) os << ", singular system seen";
  }
  return os.str();
}

namespace {

// Damping limit used by the recovery stages (volts).
constexpr double kDampTight = 0.05;
// gmin relaxation schedule, descending; the caller's own gmin is appended
// as the final rung. If only an intermediate rung converges, the smallest
// converging rung is accepted as a residual gmin floor.
constexpr double kGminRamp[] = {1e-3, 1e-5, 1e-7, 1e-9, 1e-12};
// Number of source-continuation rungs between 10% and full drive.
constexpr int kSourceSteps = 6;

// Shared bookkeeping for one ladder run: counts the budget, records every
// attempt, and keeps the failure attribution current.
struct LadderRun {
  Circuit& circuit;
  SolverDiagnostics* diag;
  int budget;
  int total_iterations = 0;

  bool exhausted() const { return budget <= 0; }

  NewtonResult attempt(LadderStage stage, double t, double dt, bool is_dc,
                       std::vector<double>& v,
                       const std::vector<double>& v_prev,
                       const NewtonOptions& opts, Integrator integrator) {
    --budget;
    const NewtonResult r =
        solve_newton(circuit, t, dt, is_dc, v, v_prev, opts, integrator);
    total_iterations += r.iterations;
    if (diag != nullptr) {
      LadderAttempt a;
      a.stage = stage;
      a.gmin = opts.gmin;
      a.source_scale = opts.source_scale;
      a.iterations = r.iterations;
      a.max_delta = r.max_delta;
      a.converged = r.converged;
      a.singular = r.singular;
      diag->attempts.push_back(a);
      if (r.singular) diag->saw_singular = true;
      if (!r.converged) {
        diag->failure_stage = stage;
        diag->last_gmin = opts.gmin;
        diag->worst_unknown = r.worst_unknown;
        diag->worst_delta = r.max_delta;
        diag->worst_node = unknown_name(circuit, r.worst_unknown);
      }
    }
    return r;
  }

  void mark_converged(LadderStage stage, double residual_gmin) {
    if (diag == nullptr) return;
    diag->recovered = stage != LadderStage::Newton;
    diag->converged_stage = stage;
    diag->residual_gmin = residual_gmin;
  }
};

}  // namespace

NewtonResult solve_newton_recovering(Circuit& circuit, double t, double dt,
                                     bool is_dc, std::vector<double>& v,
                                     const std::vector<double>& v_prev,
                                     const NewtonOptions& opts,
                                     const RecoveryOptions& recovery,
                                     SolverDiagnostics* diag,
                                     Integrator integrator) {
  LadderRun run{circuit, diag, kRetryBudget + 1};

  // Stage 1: the caller's solve, unchanged.
  NewtonResult r =
      run.attempt(LadderStage::Newton, t, dt, is_dc, v, v_prev, opts,
                  integrator);
  if (r.converged) {
    run.mark_converged(LadderStage::Newton, 0.0);
    r.iterations = run.total_iterations;
    return r;
  }

  // Recovery stages share the tightened options.
  NewtonOptions tight = opts;
  tight.damp_limit = opts.damp_limit > 0.0
                         ? std::min(opts.damp_limit, kDampTight)
                         : kDampTight;
  tight.max_iterations =
      opts.max_iterations * std::max(recovery.max_iterations_scale, 1);

  // Stage 2: damped Newton from the committed state (the extrapolated or
  // half-updated guess the caller left behind can be poisoned).
  if (!run.exhausted()) {
    v = v_prev;
    r = run.attempt(LadderStage::DampedNewton, t, dt, is_dc, v, v_prev, tight,
                    integrator);
    if (r.converged) {
      run.mark_converged(LadderStage::DampedNewton, 0.0);
      r.iterations = run.total_iterations;
      return r;
    }
  }

  // Stage 3: gmin ramp. Solve at a strong gmin first, then relax rung by
  // rung toward the caller's own gmin, warm-starting each rung from the
  // previous one (classic gmin continuation, applied to transient steps as
  // well as DC). A rung that fails keeps the deepest converged rung's
  // solution: if only a nonzero floor converges, accept it when it is small
  // enough to be a legitimate floating-node hold.
  {
    std::vector<double> best_v;
    double best_gmin = -1.0;
    v = v_prev;
    std::vector<double> ramp(std::begin(kGminRamp), std::end(kGminRamp));
    ramp.push_back(opts.gmin);
    double prev_rung = -1.0;
    for (double g : ramp) {
      const double rung = std::max(g, opts.gmin);
      if (rung == prev_rung) continue;  // dedupe (caller gmin inside ramp)
      prev_rung = rung;
      if (run.exhausted()) break;
      NewtonOptions nopts = tight;
      nopts.gmin = rung;
      r = run.attempt(LadderStage::GminRamp, t, dt, is_dc, v, v_prev, nopts,
                      integrator);
      if (r.converged) {
        best_v = v;
        best_gmin = rung;
      } else {
        // Restart the next rung from the best converged point, not the
        // diverged iterate.
        v = best_gmin >= 0.0 ? best_v : v_prev;
      }
    }
    if (best_gmin >= 0.0) {
      const bool full = best_gmin <= opts.gmin;
      // A residual floor is only a legitimate answer when it is tiny —
      // holding a node with milli-siemens to ground is not convergence.
      if (full || best_gmin <= 1e-9) {
        v = best_v;
        r.converged = true;
        r.iterations = run.total_iterations;
        run.mark_converged(LadderStage::GminRamp, full ? 0.0 : best_gmin);
        return r;
      }
    }
  }

  // Stage 4 (DC only): source stepping — ramp every independent source
  // from 10% to full drive, warm-starting each rung.
  if (is_dc && !run.exhausted()) {
    v = v_prev;
    bool alive = true;
    for (int k = 1; k <= kSourceSteps && alive && !run.exhausted(); ++k) {
      NewtonOptions nopts = tight;
      nopts.source_scale = 0.1 + 0.9 * static_cast<double>(k) /
                                     static_cast<double>(kSourceSteps);
      r = run.attempt(LadderStage::SourceStepping, t, dt, is_dc, v, v_prev,
                      nopts, integrator);
      alive = r.converged;
      if (alive && k == kSourceSteps) {
        run.mark_converged(LadderStage::SourceStepping, 0.0);
        r.iterations = run.total_iterations;
        return r;
      }
    }
  }

  // Stage 5: drop the cached pattern and symbolic LU, then solve from the
  // committed state. The first iteration re-records the pattern and picks
  // a fresh pivot order from that iterate; later ones refactor and
  // re-pivot when a reused pivot degenerates (AssemblyCache::factorize).
  if (!run.exhausted()) {
    circuit.solver_cache().invalidate();
    v = v_prev;
    r = run.attempt(LadderStage::FullRefactor, t, dt, is_dc, v, v_prev, tight,
                    integrator);
    if (r.converged) {
      run.mark_converged(LadderStage::FullRefactor, 0.0);
      r.iterations = run.total_iterations;
      return r;
    }
  }

  r.converged = false;
  r.iterations = run.total_iterations;
  log::warn("solver recovery ladder exhausted at t=", t,
            diag != nullptr ? " — " + diag->summary() : std::string());
  return r;
}

}  // namespace nemtcam::spice
