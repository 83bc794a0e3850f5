// Convergence-recovery ladder: bounded escalation when a Newton solve
// fails, with structured diagnostics instead of a bare bool.
//
// A hard circuit — a stuck relay shorting a storage node, a broken beam
// leaving a node floating, a near-singular stamp, a bistable latch solved
// from a symmetric guess — used to kill the whole analysis: solve_newton
// silently returned converged = false, or SparseLu escaped as a raw
// SingularMatrixError. The ladder retries the same solve under
// progressively stronger convergence aids, in a fixed order chosen so the
// cheap, least-intrusive aids run first:
//
//   1. Newton          — the caller's options, unchanged.
//   2. damped-newton   — much tighter per-iteration damping and a larger
//                        iteration budget; rescues oscillating iterations
//                        (latch metastability, exponential-model overshoot).
//   3. gmin-ramp       — a conductance to ground on every node, relaxed
//                        rung by rung toward the caller's gmin. Rescues
//                        singular systems (floating nodes from stuck-open
//                        contacts) and wild exponential stamps. If only a
//                        nonzero gmin floor converges, that solution is
//                        accepted and the floor reported — the standard
//                        SPICE answer to a genuinely floating node.
//   4. source-stepping — DC only: ramp every independent source from 10%
//                        to full drive, warm-starting each rung from the
//                        last. Rescues bistable/positive-feedback circuits
//                        where full drive from a cold guess has no Newton
//                        path.
//   5. full-refactor   — drop the circuit's assembly cache and solve
//                        again from the committed state through it. The
//                        first iteration re-records the stamp pattern and
//                        picks a fresh pivot order from that iterate;
//                        later iterations refactor on it. Pivots are thus
//                        re-picked at the stage's first iteration and
//                        when a reused pivot degenerates, not at every
//                        iteration, and explicit zeros stay in the
//                        pattern. Rescues a pivot order gone stale on an
//                        earlier solve.
//
// Every attempt is recorded in a SolverDiagnostics so a failure is
// attributable: which stage, which gmin, which node refused to settle.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "spice/Newton.h"

namespace nemtcam::spice {

enum class LadderStage {
  Newton = 0,      // plain solve with the caller's options
  DampedNewton,    // tighter damping + larger iteration budget
  GminRamp,        // gmin relaxation toward the caller's gmin
  SourceStepping,  // DC only: source continuation from 10% drive
  FullRefactor,    // fresh pattern and pivot order from the committed state
};

const char* stage_name(LadderStage s);

// One solve attempt inside the ladder (the iteration trace).
struct LadderAttempt {
  LadderStage stage = LadderStage::Newton;
  double gmin = 0.0;          // gmin in effect for this attempt
  double source_scale = 1.0;  // source drive fraction (source stepping)
  int iterations = 0;
  double max_delta = 0.0;
  bool converged = false;
  bool singular = false;
};

struct SolverDiagnostics {
  // A stage beyond plain Newton produced the returned solution.
  bool recovered = false;
  LadderStage converged_stage = LadderStage::Newton;
  // Deepest stage tried when the whole ladder failed.
  LadderStage failure_stage = LadderStage::Newton;
  // The unknown with the largest |Δv| at the last failed attempt and its
  // node name ("b<k>" for branch unknowns); the classic "which node is
  // floating / which latch is metastable" question.
  int worst_unknown = -1;
  std::string worst_node;
  double worst_delta = 0.0;
  // gmin floor the accepted solution needed (0 = none): nonzero means a
  // genuinely floating node is being held by the ladder, not the circuit.
  double residual_gmin = 0.0;
  double last_gmin = 0.0;  // gmin in effect at the final attempt
  bool saw_singular = false;
  std::vector<LadderAttempt> attempts;

  // One-line human summary ("recovered via gmin-ramp (gmin=1e-09) after
  // 3 attempts" / "failed at source-stepping, worst node 'stg1_0'").
  std::string summary() const;
};

// Upper bound on ladder solve attempts per recovery (all stages
// combined); also bounds the per-step Newton dt backoffs in run_transient
// before the ladder is engaged.
inline constexpr int kRetryBudget = 12;

struct RecoveryOptions {
  // Iteration-budget multiplier applied to the caller's max_iterations in
  // recovery stages.
  int max_iterations_scale = 4;
};

// Solves like solve_newton but escalates through the recovery ladder on
// failure. `v` carries the initial guess in and the best solution out (on
// total failure: the last partial iterate). When `diag` is non-null the
// attempt trace and failure attribution are recorded there; names are
// resolved through `circuit`.
NewtonResult solve_newton_recovering(Circuit& circuit, double t, double dt,
                                     bool is_dc, std::vector<double>& v,
                                     const std::vector<double>& v_prev,
                                     const NewtonOptions& opts,
                                     const RecoveryOptions& recovery,
                                     SolverDiagnostics* diag,
                                     Integrator integrator =
                                         Integrator::BackwardEuler);

// Resolves an unknown index to a printable name: node name for node
// unknowns, "b<k>" for branch unknowns, "" for -1.
std::string unknown_name(const Circuit& circuit, int unknown);

}  // namespace nemtcam::spice
