// Transient analysis: companion integration (Backward Euler / trapezoidal)
// with truncation-error-controlled adaptive stepping, Newton per step,
// breakpoint landing, device-event bisection, and per-source energy
// accounting.
//
// The one energy ledger is per independent source: ∫v·i delivered over
// the run, which is how the paper states write, search and OSR energy.
// Nothing integrates per-device dissipation; a test that wants it
// integrates v²/R over the node traces it records.
//
// The engine starts from the circuit's initial conditions (SPICE "UIC"
// style) — the TCAM experiments always begin from a known stored state —
// or from a caller-provided state vector (e.g. a DC operating point). A
// run is a TransientRun value that advances from breakpoint to
// breakpoint; a copy taken at one resumes the run (see TransientRun).
//
// Every step solves with default NewtonOptions. When dt backoff cannot
// rescue a step — immediately on a singular system (dt cannot un-float a
// node), otherwise once the per-step backoff budget or dt_min is hit — the
// recovery ladder (spice/Recovery.h) engages at default RecoveryOptions. A
// residual gmin the ladder accepts is sticky for the rest of the run, so
// later steps don't re-pay the ladder for the same floating node.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "spice/Circuit.h"
#include "spice/Newton.h"
#include "spice/Recovery.h"
#include "spice/Trace.h"

namespace nemtcam::spice {

// How the engine sizes dt between breakpoints.
//  - FixedGrowth (the struct default): grow by dt_grow after every
//    accepted step up to dt_max, shrink only on Newton failure; dt_max
//    alone sets the accuracy. Runs that need a known grid select it: the
//    integrator-order and device unit tests, the Table I / Fig. 3(b)
//    benches, and the refined reference the adaptive search is judged
//    against (tests/step_control_test.cpp).
//  - Lte: estimate the local truncation error each step from a divided-
//    difference predictor (Milne-style BE/trap estimate), accept/reject
//    against fixed tolerances (reltol 3e-3, abstol 0.1 mV on node
//    voltages, 1 nA on branch currents), and drive dt with a PI
//    controller. dt_max can be ns-scale; the tolerances set the accuracy.
//    Every TCAM fixture runs this way (step_defaults below).
enum class StepControl { FixedGrowth, Lte };

struct TransientOptions {
  double t_end = 0.0;           // required
  double dt_init = 1e-12;
  double dt_min = 1e-16;
  double dt_max = 1e-10;
  double dt_grow = 1.4;         // FixedGrowth: growth factor after an easy step
  Integrator integrator = Integrator::BackwardEuler;

  // --- LTE step control (used when step_control == StepControl::Lte) ---
  // Each step warm-starts Newton from a divided-difference predictor,
  // and relay pull-in/pull-out, contact arrival and memory write-threshold
  // crossings (Device::event_function sign changes) are located by
  // bisecting dt to within 1 ps and landed just past. Growth per accepted
  // step is capped at 10× (the predictor has no information beyond 3
  // points). Per-unknown error tolerance: |lte_k| ≤ 3.5·(abstol +
  // reltol·|v_k|) at the fixed tolerances above; the 3.5 is SPICE's TRTOL
  // (the Milne estimate is conservative for smooth solutions).
  StepControl step_control = StepControl::FixedGrowth;

  bool record = true;           // keep full waveforms (needed for measures)
  // Selective recording: when non-empty (and record is true), only the
  // listed node voltages are stored per step instead of the whole unknown
  // vector. Energy accounting is unaffected — energy-only runs can probe a
  // single node instead of paying O(unknowns) memory per step.
  std::vector<NodeId> probe_nodes;
};

// Canonical options for the TCAM fixtures: LTE step control with
// trapezoidal integration under a coarse dt cap, where the tolerances set
// the accuracy. µs-scale retention runs raise the cap.
TransientOptions step_defaults(double t_end, double dt_max = 1e-9);

class TransientResult {
 public:
  bool finished = false;        // reached t_end
  std::string failure;          // set when !finished
  std::size_t steps_taken = 0;
  std::size_t newton_iterations = 0;
  std::size_t steps_rejected = 0;   // LTE rejections (Lte step control only)
  std::size_t events_located = 0;   // device events landed by bisection
  std::size_t steps_recovered = 0;  // steps accepted via the recovery ladder
  // Sticky gmin floor in effect at run end (0 = none needed): nonzero means
  // a floating node was held to ground by the ladder for the whole run.
  double residual_gmin = 0.0;
  // Trace of the last recovery-ladder engagement (successful or not); empty
  // attempts when the ladder never ran.
  SolverDiagnostics diagnostics;

  // Waveform of a node voltage.
  Trace node_trace(NodeId n) const;
  // Waveform of a branch current (voltage-source current, into + terminal).
  Trace branch_trace(BranchId b) const;

  // Energy delivered to the circuit by the named source device over the
  // whole run (J). Throws if no such device was seen.
  double source_energy(const std::string& device_name) const;
  // Sum over all sources.
  double total_source_energy() const;

  const std::map<std::string, double>& source_energies() const noexcept {
    return source_energy_;
  }

  // Raw recording (used by Transient and tests). When recorded_unknowns
  // is empty each sample holds the full unknown vector; otherwise sample
  // column j holds unknown recorded_unknowns[j] (probe recording).
  std::vector<double> times;
  std::vector<std::vector<double>> samples;
  std::vector<std::size_t> recorded_unknowns;
  int n_node_unknowns = 0;
  std::map<std::string, double> source_energy_;

  // Maps a raw unknown index to its sample column: identity when the full
  // vector was recorded, else a binary search in an index built lazily on
  // first use (once per result, not once per trace call). Throws when the
  // unknown was not probed.
  std::size_t sample_column(std::size_t unknown) const;

 private:
  // Lazily built sorted (unknown, column) pairs for probe recording.
  mutable std::vector<std::pair<std::size_t, std::size_t>> column_index_;
};

// One transient in progress, as a copyable value: the result so far and
// the loop state a continuation needs (v_prev, t, dt, the last accepted
// dt, the Newton gmin and its sticky floor, the per-source energy
// accumulators). run_transient_from is construct, advance_to(t_end),
// finish().
//
// A run stops only at one of its breakpoints or at t_end, and every step
// out of a breakpoint is the engine's restart (Backward Euler, predictor
// history reset, dt resumed at a tenth of the last accepted step), so
// nothing else carries across one. A copy taken at a breakpoint is
// therefore a checkpoint: with the circuit's device states loaded back to
// what they were there (Circuit::save_device_states/load_device_states)
// and the same LU pivot order in the circuit's solver cache, advancing the
// copy repeats the uninterrupted run step for step, bit for bit. The copy
// keeps a pointer to the circuit and must only be advanced on it.
class TransientRun {
 public:
  TransientRun(Circuit& circuit, std::vector<double> v0,
               const TransientOptions& opts);

  // Advances to `t_stop`, one of the run's breakpoints or t_end, not
  // behind the run. Returns false when the run failed, here or earlier
  // (finish() then returns the failure).
  bool advance_to(double t_stop);

  // Closes the run and hands over its result: a run that reached t_end
  // gets its per-source energies and is marked finished; a failed run's
  // result is returned as it stands. The run is spent afterwards.
  TransientResult finish();

 private:
  Circuit* circuit_;
  TransientOptions opts_;
  // Source breakpoints in (0, t_end], merged closer than dt_min.
  std::vector<double> breakpoints_;
  TransientResult result_;
  std::vector<double> v_prev_;
  double t_ = 0.0;
  double dt_ = 0.0;
  double dt_last_ = 0.0;  // last accepted step (restart sizing)
  // A residual gmin accepted by the recovery ladder (a genuinely floating
  // node) is folded into the Newton options so every later step holds the
  // node without re-running the ladder.
  NewtonOptions newton_;
  double sticky_gmin_ = 0.0;
  // Per-device delivered power at the last accepted point and its
  // trapezoidal integral so far.
  std::vector<double> prev_delivered_;
  std::vector<double> acc_delivered_;
};

TransientResult run_transient(Circuit& circuit, const TransientOptions& opts);

// Same, but starting from an explicit unknown vector (e.g. DC op result).
TransientResult run_transient_from(Circuit& circuit, std::vector<double> v0,
                                   const TransientOptions& opts);

}  // namespace nemtcam::spice
