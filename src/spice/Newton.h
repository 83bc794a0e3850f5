// Newton–Raphson solve of the stamped MNA system at one time point,
// plus the DC operating-point driver (Newton with a gmin ladder).
#pragma once

#include <string>
#include <vector>

#include "spice/Circuit.h"

namespace nemtcam::spice {

// Every solve assembles into the circuit's fixed-pattern AssemblyCache and
// reuses its symbolic LU across iterations and steps. A solve stamps what
// it holds fixed once (Device::stamp_fixed at v_prev, then gmin), and each
// iteration adds only the iterate-dependent stamps (Device::stamp) to a
// copy of that. Convergence: max |Δv| over node unknowns below
// 1 µV + 1e-6·max|v|.
struct NewtonOptions {
  int max_iterations = 60;
  // Per-iteration update clamp (volts) to keep exponential device models
  // inside their sane range. 0 disables damping.
  double damp_limit = 0.5;
  // Conductance to ground added on every node unknown (DC convergence aid).
  double gmin = 0.0;
  // Multiplier on every independent source's drive value (source-stepping
  // continuation, see spice/Recovery.h). 1.0 = full drive.
  double source_scale = 1.0;
};

struct NewtonResult {
  bool converged = false;
  int iterations = 0;
  double max_delta = 0.0;
  // The factorization threw SingularMatrixError (floating node / degenerate
  // stamp) — distinct from a plain iteration stall.
  bool singular = false;
  // Unknown index with the largest |Δv| at the last iteration: the node (or
  // branch) that refused to settle. -1 when no iteration completed.
  int worst_unknown = -1;
};

// Solves f(v) = 0 at time t with step dt (dt == 0 → DC stamping).
// `v` holds the initial guess on entry and the solution on success;
// `v_prev` is the last accepted solution used by companion models and the
// iterate the per-solve stamps see, so they never depend on the guess.
NewtonResult solve_newton(Circuit& circuit, double t, double dt, bool is_dc,
                          std::vector<double>& v,
                          const std::vector<double>& v_prev,
                          const NewtonOptions& opts,
                          Integrator integrator = Integrator::BackwardEuler);

struct DcOptions {
  NewtonOptions newton;
  // gmin stepping ladder: solve repeatedly while relaxing gmin.
  std::vector<double> gmin_ladder = {1e-3, 1e-6, 1e-9, 1e-12};
  // On gmin-ladder failure, escalate through the recovery ladder
  // (spice/Recovery.h): tighter damping, gmin re-ramp, source stepping,
  // re-pivoted refactor.
  bool recover = true;
};

struct DcResult {
  bool converged = false;
  // Best solution found. On failure this is the *partial* solution from
  // the deepest gmin rung that converged (the zero/IC-seeded guess when
  // none did) — still useful as a transient starting point or for
  // diagnosing which node is stuck.
  std::vector<double> v;
  // Failure attribution: the gmin in effect at the last attempt, and the
  // unknown that refused to settle there.
  double last_gmin = 0.0;
  int worst_unknown = -1;
  std::string worst_node;
  // Set when a recovery stage beyond the plain gmin ladder produced the
  // solution (the stage name, e.g. "source-stepping").
  bool recovered = false;
  std::string recovery_stage;
  // When the failure is structural (the gmin-free DC pattern is rank-
  // deficient for every value assignment), the offending nodes/devices by
  // name — e.g. "node 'sense' (capacitor-only cut set?)". Empty when the
  // pattern has full structural rank, i.e. the failure is numerical.
  std::string singular_detail;
};

// The structurally undetermined unknowns of the circuit's gmin-free DC
// stamp pattern, ascending: the unmatched rows and columns of the
// bipartite matching in linalg/StructuralRank. Empty when the pattern has
// full structural rank. The pattern (both stamp passes) is assembled into a
// private cache, so the circuit's solver cache and device state are
// untouched.
std::vector<int> dc_undetermined_unknowns(Circuit& circuit);

// The device owning branch unknown `branch` (counted from the first
// branch), or nullptr.
const Device* branch_owner(const Circuit& circuit, int branch);

// Names dc_undetermined_unknowns(circuit), "; "-joined; "" at full
// structural rank. dc_operating_point attaches this to failures so a
// floating sense node reads as "node 'sense' is structurally undetermined"
// instead of a bare singular-matrix throw; the ERC's dc.structural-singular
// rule (erc/Rules.h) reports the same unknowns as findings.
std::string structural_singularity_report(Circuit& circuit);

// DC operating point from a zero (or IC-seeded) initial guess.
DcResult dc_operating_point(Circuit& circuit, const DcOptions& opts = {});

}  // namespace nemtcam::spice
