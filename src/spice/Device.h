// Device interface for the MNA simulator.
//
// Each device stamps its Newton linearization into the system J·v = rhs,
// in two parts. stamp_fixed() runs once per Newton solve and stamps what
// the solve holds fixed: everything that depends only on t, dt, the
// integrator, the source scale, committed device state, v_prev and
// companion history (linear conductances, sources, capacitor companions).
// stamp() runs at every Newton iterate and stamps only what depends on
// the iterate (transistor channels, diode junctions).
//
// Devices carry their own internal state (mechanical position, memristor
// filament, polarization, capacitor charge history); state advances only in
// commit(), which the transient engine calls exactly once per *accepted*
// step, so rejected/retried steps never corrupt state.
//
// The device-state contract. A device's fields fall in three groups:
//  - its dynamic state: every field that commit(), reset_state(), a state
//    binder or a state setter changes — companion history currents,
//    mechanical position and gate charge, filament/polarization/
//    magnetization state, in-motion flags, event-time telemetry, fault
//    pins. save_state() appends it and load_state() reads it back, so a
//    checkpointed transient (TransientRun) resumes exactly;
//  - its parameters: every other field that changes what it stamps,
//    in-place edits from aging, fault injection and variation included.
//    append_params() appends them, so that with the dynamic state and the
//    circuit's initial conditions they pin down the circuit's state at
//    t = 0 (Circuit::state_digest);
//  - its wiring and drive waveform, which neither covers: wiring is fixed
//    at construction, and a caller that rebinds a source's waveform
//    (rebind_wave) keeps its own invariant about it (a search fixture
//    rebinds only its searchline drivers, all 0 V until the same edge).
// A field left out of the first two groups makes a resumed run or a
// digest comparison silently wrong; devices with neither keep the
// defaults.
#pragma once

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "spice/Types.h"
#include "spice/Waveform.h"
#include "util/Expect.h"

namespace nemtcam::spice {

// Time-integration scheme for companion models. Backward Euler is the
// robust default (L-stable: right for the stiff switch/relay transients
// here); trapezoidal is second-order accurate and preserves oscillation
// amplitude, supported by the reactive elements that carry per-step
// current state (Capacitor, Inductor).
enum class Integrator { BackwardEuler, Trapezoidal };

// Evaluation context handed to devices during stamping and commit.
class StampContext {
 public:
  StampContext(double t, double dt, bool is_dc, int n_node_unknowns,
               const std::vector<double>* v_iter,
               const std::vector<double>* v_prev,
               Integrator integrator = Integrator::BackwardEuler)
      : t_(t), dt_(dt), is_dc_(is_dc), n_node_unknowns_(n_node_unknowns),
        v_iter_(v_iter), v_prev_(v_prev), integrator_(integrator) {}

  Integrator integrator() const noexcept { return integrator_; }

  // Multiplier applied by the independent sources to their drive value.
  // 1.0 except during source-stepping recovery (see spice/Recovery.h),
  // where the DC solve is continued from a relaxed circuit by ramping all
  // source values from a fraction of their level up to full drive.
  double source_scale() const noexcept { return source_scale_; }
  void set_source_scale(double scale) noexcept { source_scale_ = scale; }

  // Time at the end of the step being solved.
  double t() const noexcept { return t_; }
  // Step size; 0 for DC analysis.
  double dt() const noexcept { return dt_; }
  bool dc() const noexcept { return is_dc_; }

  // Voltage of a node at the current Newton iterate.
  double v(NodeId n) const {
    if (n == kGround) return 0.0;
    return (*v_iter_)[static_cast<std::size_t>(n - 1)];
  }
  // Voltage at the last accepted time point (start of this step).
  double v_prev(NodeId n) const {
    if (n == kGround) return 0.0;
    return (*v_prev_)[static_cast<std::size_t>(n - 1)];
  }
  // Branch current unknown at the current iterate.
  double branch_current(BranchId b) const {
    NEMTCAM_EXPECT(b >= 0);
    return (*v_iter_)[static_cast<std::size_t>(n_node_unknowns_ + b)];
  }

 private:
  double t_;
  double dt_;
  bool is_dc_;
  int n_node_unknowns_;
  const std::vector<double>* v_iter_;
  const std::vector<double>* v_prev_;
  Integrator integrator_;
  double source_scale_ = 1.0;
};

class Stamper;

// How a terminal pair couples at DC, for static (pre-solve) analysis.
enum class DcCoupling {
  Conductive,   // DC current path: resistor, channel, contact, V-defined branch
  Capacitive,   // charge coupling only — open at DC (capacitor, MOS gate)
  Open,         // no DC coupling (ideal current-source output)
};

// Static self-description consumed by the ERC/lint subsystem (nemtcam::erc)
// and the structural-singularity reporter: the device's terminals with
// their schematic roles, and how each terminal pair couples at DC. This is
// declarative topology, independent of the stamp values — a relay reports
// its drain–source contact as Conductive whether open or closed, because
// the open contact still stamps its g_off leakage slot.
//
// Beyond the structural kind, every terminal and coupling carries an
// optional *small-signal summary* — effective on-resistance, off-state
// leakage, capacitance, and gating — consumed by the static timing/energy
// engine (nemtcam::sta). The summary is a worst-case macro-model, not the
// Newton stamp: a MOSFET reports one switch resistance at full-rail gate
// drive, not its bias-dependent I–V. All summary members are defaulted so
// aggregate-initialized topologies from devices that predate the STA
// engine stay valid (r_on < 0 marks "no resistance model": the STA engine
// skips such edges for path enumeration but keeps them for connectivity).
struct DeviceTopology {
  // Sentinel for Terminal::v_hold: the terminal does not hold state.
  static constexpr double kNoHold = -std::numeric_limits<double>::infinity();

  struct Terminal {
    const char* label;  // schematic role, e.g. "d", "g", "plus"
    NodeId node;
    // --- small-signal summary (nemtcam::sta) ---
    // Parasitic capacitance from this terminal to ground (F) that is not
    // reported as a pair coupling: MOS junction caps, electrode plates.
    double c_ground = 0.0;
    // State-holding terminal: the device loses its committed state if this
    // terminal's level decays below v_hold — a closed NEM relay's floating
    // gate must stay at |V_GB| ≥ V_PO or the beam releases. kNoHold (the
    // default) marks a terminal with no retention requirement. This is the
    // hook behind the sta.refresh-window rule: the paper's one-shot-refresh
    // hazard reduces to "leakage must not cross v_hold within the refresh
    // period" for every terminal that sets it.
    double v_hold = kNoHold;
    bool holds_state() const noexcept { return v_hold != kNoHold; }
  };
  struct Coupling {
    int a, b;  // indices into `terminals`
    DcCoupling kind;
    // --- small-signal summary (nemtcam::sta) ---
    // Effective series resistance of the pair when conducting (Ω). For a
    // gated channel this is the switch resistance at full-rail drive
    // (the library's nominal 1 V rail; calibration factors absorb other
    // operating points). Negative = no resistance model: the edge exists
    // structurally but the STA engine must not put it on a timing path
    // (controlled sources, diodes).
    double r_on = -1.0;
    // Worst-case leakage conductance when NOT conducting (S): open relay
    // contact g_off, MOS subthreshold leak at V_GS = 0, switch 1/r_off.
    // Feeds matched-matchline droop and storage-node retention bounds.
    double g_off = 0.0;
    // Capacitance across the pair (F): explicit capacitor value, MOS gate
    // overlap, relay actuation gap. The STA engine lumps it to ground at
    // both ends (quiet-neighbor worst case).
    double c = 0.0;
    // Channel gating. ctrl < 0: conduction is static over an STA horizon
    // and `on` reports the committed state (resistor: always true; relay
    // contact: mechanical position — actuation is orders of magnitude
    // slower than an ML transient). ctrl ≥ 0: index into `terminals` of
    // the controlling gate; the edge conducts when the gate level clears
    // the channel by v_on (active_low: a PMOS conducts when the gate sits
    // v_on *below* the high channel side).
    int ctrl = -1;
    double v_on = 0.0;
    bool active_low = false;
    bool on = true;
    // Gate drive at which r_on was summarized (V). When > v_on, the STA
    // engine derates the channel for partial gate drive by the ratio of
    // saturation currents at the two overdrives — a divider-driven gate at
    // 0.6 V conducts far less than the rail-referenced chord. 0 = no
    // derating model.
    double v_gs_ref = 0.0;
    // Subthreshold slope voltage n·v_T (V) for the derate interpolation:
    // with it the near-threshold moderate-inversion tail is EKV-exact;
    // 0 falls back to hard square-law overdrive scaling.
    double v_slope = 0.0;
  };
  std::vector<Terminal> terminals;
  std::vector<Coupling> couplings;
  bool is_source = false;  // independent source: drives the circuit
  // Independent-source drive summary: the drive level at t = 0 and at the
  // settle horizon (after all waveform edges), plus the driver's series
  // resistance — the STA engine's pin model. Meaningful only for voltage-
  // defining sources (source_is_voltage).
  bool source_is_voltage = false;
  double source_v_init = 0.0;   // drive level at t = 0 (V)
  double source_v_final = 0.0;  // settled drive level as t → ∞ (V)
  double source_r_series = 0.0; // driver series resistance (Ω)
};

class Device {
 public:
  explicit Device(std::string name) : name_(std::move(name)) {}
  virtual ~Device() = default;

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  const std::string& name() const noexcept { return name_; }

  // Number of extra MNA branch-current unknowns this device needs.
  virtual int branch_count() const { return 0; }

  // Terminal/coupling self-description for static analysis. The default
  // (no terminals) keeps ad-hoc test devices valid; every shipped device
  // overrides it, and the ERC connectivity rules see only what is
  // reported here.
  virtual DeviceTopology topology() const { return {}; }

  // Stamps the contributions a Newton solve holds fixed, once per solve.
  // The context's iterate is v_prev, so nothing stamped here can depend on
  // Newton's starting guess.
  virtual void stamp_fixed(Stamper& s, const StampContext& ctx) {
    (void)s;
    (void)ctx;
  }

  // Stamps the iterate-dependent part of the Newton linearization, at
  // every iterate. A device that overrides only this is re-stamped whole
  // at every iteration.
  virtual void stamp(Stamper& s, const StampContext& ctx) {
    (void)s;
    (void)ctx;
  }

  // Advances internal state after a step is accepted.
  virtual void commit(const StampContext& ctx) { (void)ctx; }

  // Largest step the device can tolerate from its current state (e.g. a
  // relay in mechanical flight bounds dt to resolve the traversal).
  virtual double max_dt_hint() const {
    return std::numeric_limits<double>::infinity();
  }

  // Signed distance to the device's nearest discrete state change: positive
  // before the event, zero/negative once the candidate step would commit it,
  // +inf when nothing is armed. Under LTE step control the transient engine
  // evaluates this at the step start (dt = 0, iterate = v_prev) and at the
  // candidate solution; a positive→non-positive change brackets the event
  // and the step is bisected to land just past the crossing, so relay
  // pull-in/pull-out and memory-cell threshold corners are resolved exactly
  // instead of being discovered by Newton thrashing over a long step.
  // Implementations must tolerate dt == 0 and must pick which surface they
  // report from *committed* state and v_prev only, never from the iterate —
  // otherwise the start and end of a step can disagree about which surface
  // is armed and the sign test is meaningless.
  virtual double event_function(const StampContext& ctx) const {
    (void)ctx;
    return std::numeric_limits<double>::infinity();
  }

  // Clears per-run dynamic scratch — companion-model current history,
  // event telemetry (t_closed/t_set/... markers), in-flight motion flags —
  // so an elaborated circuit can be replayed for a fresh transaction
  // starting at t = 0. Primary state (stored data, drive waveforms, device
  // parameters, fault mutations) is untouched; the transaction binder
  // re-seeds stored state explicitly. Devices without scratch need not
  // override.
  virtual void reset_state() {}

  // Appends the dynamic state / reads the same values back, in the same
  // order, advancing `in` past them (see the contract above).
  virtual void save_state(std::vector<double>& out) const { (void)out; }
  virtual void load_state(const double*& in) { (void)in; }

  // Appends the parameters (see the contract above).
  virtual void append_params(std::vector<double>& out) const { (void)out; }

  // Replaces the device's drive waveform in place; returns false for
  // devices without one (only the independent sources accept it). This is
  // deliberately NOT a topology change: the stamp pattern and symbolic LU
  // recorded by the circuit's AssemblyCache stay valid, which is what lets
  // a cached template circuit be re-driven per transaction instead of
  // rebuilt (see hier/Elaborate.h).
  virtual bool rebind_wave(std::unique_ptr<Waveform> wave) {
    (void)wave;
    return false;
  }

  // Instantaneous power *delivered to the circuit* by this device (nonzero
  // for sources only). The transient engine integrates this per device
  // into its one energy ledger, the per-source energies the write, search
  // and refresh energy figures read.
  virtual double delivered_power(const StampContext& ctx) const {
    (void)ctx;
    return 0.0;
  }

  // Times within (0, t_end) where the device's drive has a corner; the
  // transient engine lands steps exactly on these (sources override).
  virtual std::vector<double> breakpoints(double t_end) const {
    (void)t_end;
    return {};
  }

  BranchId first_branch() const noexcept { return first_branch_; }
  void set_first_branch(BranchId b) noexcept { first_branch_ = b; }

 private:
  std::string name_;
  BranchId first_branch_ = kNoBranch;
};

}  // namespace nemtcam::spice
