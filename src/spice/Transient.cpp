#include "spice/Transient.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "util/Expect.h"

namespace nemtcam::spice {

namespace {

// LTE tolerances: relative, on node voltages (volts), and on branch-
// current unknowns (amps).
constexpr double kReltol = 3e-3;
constexpr double kAbstolV = 1e-4;
constexpr double kAbstolI = 1e-9;
// SPICE's TRTOL: the Milne estimate is conservative for smooth solutions,
// so the raw per-unknown bound is relaxed by this factor.
constexpr double kLteFactor = 3.5;
// Largest per-step growth the PI controller may apply (the predictor has
// no information beyond 3 points; regrowth after a breakpoint restart is
// geometric at this rate).
constexpr double kDtGrowMax = 10.0;
// Event bisection stops once the bracket is tighter than this (s).
constexpr double kEventTimeTol = 1e-12;
// Times closer than this are one instant (s).
constexpr double kTimeEps = 1e-18;

// Rolling window of the last (up to) three accepted solutions, used for the
// polynomial predictor that warm-starts Newton and anchors the Milne LTE
// estimate. Reset at every discontinuity (breakpoints, located events): the
// divided differences are meaningless across a corner.
class StepHistory {
 public:
  void reset(double t, const std::vector<double>& v) {
    count_ = 1;
    t_[0] = t;
    v_[0] = v;
  }

  void push(double t, const std::vector<double>& v) {
    // Rotate storage so the oldest vector's capacity is reused for the
    // incoming copy.
    std::vector<double> recycled = std::move(v_[2]);
    v_[2] = std::move(v_[1]);
    v_[1] = std::move(v_[0]);
    recycled = v;
    v_[0] = std::move(recycled);
    t_[2] = t_[1];
    t_[1] = t_[0];
    t_[0] = t;
    if (count_ < 3) ++count_;
  }

  int points() const noexcept { return count_; }
  // Last accepted step size (valid when points() >= 2).
  double h1() const noexcept { return t_[0] - t_[1]; }
  double h2() const noexcept { return t_[1] - t_[2]; }

  // Extrapolates the Newton-form interpolating polynomial through the
  // newest min(order, points()-1)+1 stored points to time t_new.
  void predict(double t_new, int order, std::vector<double>& out) const {
    NEMTCAM_ENSURE(count_ >= 1);
    const int ord = std::min(order, count_ - 1);
    out = v_[0];
    if (ord < 1) return;
    const double dh1 = t_[0] - t_[1];
    const double a = t_new - t_[0];
    if (ord == 1) {
      for (std::size_t k = 0; k < out.size(); ++k)
        out[k] += a / dh1 * (v_[0][k] - v_[1][k]);
      return;
    }
    const double dh2 = t_[1] - t_[2];
    const double b = (t_new - t_[0]) * (t_new - t_[1]);
    for (std::size_t k = 0; k < out.size(); ++k) {
      const double d01 = (v_[0][k] - v_[1][k]) / dh1;
      const double d12 = (v_[1][k] - v_[2][k]) / dh2;
      const double d012 = (d01 - d12) / (dh1 + dh2);
      out[k] = v_[0][k] + a * d01 + b * d012;
    }
  }

 private:
  int count_ = 0;
  double t_[3] = {0.0, 0.0, 0.0};
  std::vector<double> v_[3];
};

// Milne principle: predictor and corrector errors are both proportional to
// the same solution derivative, so the corrector LTE can be read off the
// predictor–corrector difference. With step h after history steps h1, h2:
//   BE + linear predictor   (error ∝ x''):
//     x_corr − x_pred = (h² + h·h1/2)·x'',  lte = (h²/2)·x''
//       → lte = h/(2h + h1)·|corr − pred|           (1/3 at uniform steps)
//   trapezoidal + quadratic predictor  (error ∝ x'''):
//     pred err = h(h+h1)(h+h1+h2)/6·x''',  lte = (h³/12)·x'''
//       → lte = C_c/(C_p + C_c)·|corr − pred|       (1/13 at uniform steps)
// A trapezoidal corrector against a degraded (linear) predictor falls back
// to the first-order factor, which overestimates — conservative right after
// a restart, exact from the third step on.
double milne_factor(Integrator integ, int pred_order, double h, double h1,
                    double h2) {
  if (integ == Integrator::Trapezoidal && pred_order >= 2) {
    const double cp = h * (h + h1) * (h + h1 + h2) / 6.0;
    const double cc = h * h * h / 12.0;
    return cc / (cp + cc);
  }
  return h / (2.0 * h + h1);
}

// Worst per-unknown ratio of estimated LTE to its tolerance; ≤ 1 accepts.
double error_ratio(const std::vector<double>& v_new,
                   const std::vector<double>& v_old,
                   const std::vector<double>& pred, double milne, int n_node) {
  double worst = 0.0;
  for (std::size_t k = 0; k < v_new.size(); ++k) {
    const double abstol =
        k < static_cast<std::size_t>(n_node) ? kAbstolV : kAbstolI;
    const double tol =
        kLteFactor *
        (abstol + kReltol * std::max(std::fabs(v_new[k]), std::fabs(v_old[k])));
    const double err = milne * std::fabs(v_new[k] - pred[k]);
    worst = std::max(worst, err / tol);
  }
  return worst;
}

// Gustafsson/Söderlind-style PI growth factor from the current and previous
// error ratios; clamped so one bad estimate cannot collapse or explode dt.
double pi_growth(double r, double r_prev, int order) {
  r = std::max(r, 1e-10);
  r_prev = std::max(r_prev, 1e-10);
  const double e = 1.0 / (order + 1.0);
  const double fac = 0.9 * std::pow(r, -0.7 * e) * std::pow(r_prev, 0.3 * e);
  return std::clamp(fac, 0.2, kDtGrowMax);
}

// Appends the sample at `time`: the full unknown vector, or only the
// probed unknowns.
void record_sample(TransientResult& result, double time,
                   const std::vector<double>& full) {
  result.times.push_back(time);
  if (result.recorded_unknowns.empty()) {
    result.samples.push_back(full);
    return;
  }
  std::vector<double> row;
  row.reserve(result.recorded_unknowns.size());
  for (std::size_t u : result.recorded_unknowns) row.push_back(full[u]);
  result.samples.push_back(std::move(row));
}

}  // namespace

TransientOptions step_defaults(double t_end, double dt_max) {
  TransientOptions opts;
  opts.t_end = t_end;
  opts.dt_init = 1e-13;
  opts.dt_max = dt_max;
  opts.step_control = StepControl::Lte;
  // Trapezoidal doubles the order the tolerance buys; the BE-restart rule
  // at breakpoints/events keeps the stiff switching corners L-stable.
  opts.integrator = Integrator::Trapezoidal;
  return opts;
}

std::size_t TransientResult::sample_column(std::size_t unknown) const {
  if (recorded_unknowns.empty()) return unknown;
  if (column_index_.empty()) {
    column_index_.reserve(recorded_unknowns.size());
    for (std::size_t j = 0; j < recorded_unknowns.size(); ++j)
      column_index_.emplace_back(recorded_unknowns[j], j);
    std::sort(column_index_.begin(), column_index_.end());
  }
  const auto it = std::lower_bound(
      column_index_.begin(), column_index_.end(),
      std::pair<std::size_t, std::size_t>{unknown, 0});
  NEMTCAM_EXPECT_MSG(it != column_index_.end() && it->first == unknown,
                     "unknown was not probed during this transient run");
  return it->second;
}

Trace TransientResult::node_trace(NodeId n) const {
  NEMTCAM_EXPECT(n != kGround);
  NEMTCAM_EXPECT(n - 1 < n_node_unknowns);
  const std::size_t col = sample_column(static_cast<std::size_t>(n - 1));
  std::vector<double> vals;
  vals.reserve(samples.size());
  for (const auto& s : samples) vals.push_back(s[col]);
  return Trace(times, std::move(vals));
}

Trace TransientResult::branch_trace(BranchId b) const {
  NEMTCAM_EXPECT(b >= 0);
  const std::size_t col =
      sample_column(static_cast<std::size_t>(n_node_unknowns + b));
  std::vector<double> vals;
  vals.reserve(samples.size());
  for (const auto& s : samples) vals.push_back(s[col]);
  return Trace(times, std::move(vals));
}

double TransientResult::source_energy(const std::string& device_name) const {
  const auto it = source_energy_.find(device_name);
  NEMTCAM_EXPECT_MSG(it != source_energy_.end(),
                     "no energy recorded for source '" + device_name + "'");
  return it->second;
}

double TransientResult::total_source_energy() const {
  double total = 0.0;
  for (const auto& [name, e] : source_energy_) {
    (void)name;
    total += e;
  }
  return total;
}

TransientRun::TransientRun(Circuit& circuit, std::vector<double> v0,
                           const TransientOptions& opts)
    : circuit_(&circuit), opts_(opts), v_prev_(std::move(v0)) {
  NEMTCAM_EXPECT(opts.t_end > 0.0);
  NEMTCAM_EXPECT(opts.dt_init > 0.0 && opts.dt_min > 0.0 && opts.dt_max > 0.0);
  NEMTCAM_EXPECT(v_prev_.size() ==
                 static_cast<std::size_t>(circuit.unknown_count()));

  result_.n_node_unknowns = circuit.node_unknowns();
  const int n_node = circuit.node_unknowns();

  // Collect and sort source breakpoints. Breakpoints closer together than
  // dt_min are merged into the later one — landing on both would schedule a
  // sliver step below dt_min.
  std::set<double> bp_set;
  for (const auto& dev : circuit.devices())
    for (double t : dev->breakpoints(opts.t_end))
      if (t > 0.0 && t < opts.t_end) bp_set.insert(t);
  bp_set.insert(opts.t_end);
  breakpoints_.reserve(bp_set.size());
  for (auto it = bp_set.begin(); it != bp_set.end(); ++it) {
    const auto next = std::next(it);
    if (next != bp_set.end() && *next - *it < opts.dt_min) continue;
    breakpoints_.push_back(*it);
  }

  dt_ = opts.dt_init;
  dt_last_ = opts.dt_init;

  // Delivered power at t = 0, the first sample of each source's
  // trapezoidal energy integral.
  const auto& devs = circuit.devices();
  prev_delivered_.assign(devs.size(), 0.0);
  acc_delivered_.assign(devs.size(), 0.0);
  {
    StampContext ctx0(0.0, 0.0, /*is_dc=*/false, n_node, &v_prev_, &v_prev_);
    for (std::size_t i = 0; i < devs.size(); ++i)
      prev_delivered_[i] = devs[i]->delivered_power(ctx0);
  }

  // Probe recording: store only the requested node voltages per step.
  for (NodeId n : opts.probe_nodes) {
    NEMTCAM_EXPECT(n != kGround && n - 1 < circuit.node_unknowns());
    result_.recorded_unknowns.push_back(static_cast<std::size_t>(n - 1));
  }
  if (opts.record) record_sample(result_, 0.0, v_prev_);
}

bool TransientRun::advance_to(double t_stop) {
  NEMTCAM_EXPECT_MSG(
      std::binary_search(breakpoints_.begin(), breakpoints_.end(), t_stop),
      "a transient stops only at one of its breakpoints or at t_end");
  NEMTCAM_EXPECT(t_stop >= t_ - kTimeEps);
  if (!result_.failure.empty()) return false;

  // The step loop's working names for the run's state.
  Circuit& circuit = *circuit_;
  const TransientOptions& opts = opts_;
  TransientResult& result = result_;
  std::vector<double>& v_prev = v_prev_;
  double& t = t_;
  double& dt = dt_;
  const int n_node = circuit.node_unknowns();
  const auto& devs = circuit.devices();
  std::vector<double> v = v_prev;

  // LTE control also warm-starts Newton from the predictor and locates
  // device events. The predictor history, the PI memory and a pending
  // event restart live only between breakpoints: the step out of one
  // resets them, which is what lets a run stop there.
  const bool lte = opts.step_control == StepControl::Lte;
  StepHistory hist;
  hist.reset(t, v_prev);
  std::vector<double> v_pred;           // predictor evaluation for this step
  std::vector<double> f_start, f_end;   // event function values
  if (lte) {
    f_start.resize(devs.size());
    f_end.resize(devs.size());
  }
  double r_prev = 1.0;                  // previous step's LTE ratio (PI memory)
  bool pending_restart = false;         // set when an event was landed

  std::size_t next_bp = 0;

  while (t < t_stop - kTimeEps) {
    // Respect device hints.
    double dt_cap = opts.dt_max;
    for (const auto& dev : devs) dt_cap = std::min(dt_cap, dev->max_dt_hint());
    dt = std::min(dt, dt_cap);
    while (next_bp < breakpoints_.size() &&
           breakpoints_[next_bp] <= t + kTimeEps)
      ++next_bp;

    // The very first step, any step right after a source breakpoint, and
    // any step right after a located event runs Backward Euler even in
    // trapezoidal mode: the trapezoidal companion needs a consistent
    // previous current, which a discontinuity invalidates — the classic
    // SPICE BE-restart rule. Under LTE control the predictor history is
    // reset too (divided differences across a corner are meaningless) and
    // dt restarts from dt_init, regrowing at kDtGrowMax per step.
    const bool at_discontinuity =
        result.steps_taken == 0 || pending_restart ||
        (next_bp > 0 && next_bp <= breakpoints_.size() &&
         std::fabs(t - breakpoints_[next_bp - 1]) <= kTimeEps);
    pending_restart = false;
    if (lte && at_discontinuity) {
      hist.reset(t, v_prev);
      r_prev = 1.0;
      // Resume at a tenth of the last accepted step (the SPICE2 breakpoint
      // rule) rather than all the way down at dt_init: the solution scale
      // just past a source corner is set by the surrounding waveform, and
      // regrowing from dt_init costs ~log10(dt/dt_init) extra steps at
      // every corner. The very first step has no scale yet and starts at
      // dt_init; a wrong resume guess is caught by the next step's LTE
      // rejection.
      const double resume =
          result.steps_taken == 0
              ? opts.dt_init
              : std::max(opts.dt_init, 0.1 * dt_last_);
      dt = std::min(dt, std::max(resume, opts.dt_min));
    }
    const Integrator step_integrator =
        at_discontinuity ? Integrator::BackwardEuler : opts.integrator;

    // Land exactly on the next breakpoint.
    if (next_bp < breakpoints_.size()) {
      const double to_bp = breakpoints_[next_bp] - t;
      if (dt >= to_bp - kTimeEps) dt = to_bp;
      // Avoid a sliver step right after a breakpoint landing.
      else if (to_bp - dt < opts.dt_min) dt = to_bp;
    }
    dt = std::min(dt, opts.t_end - t);
    // End-of-run sliver: when the remainder after this step would be below
    // dt_min (and no interior breakpoint sits in between), stretch the step
    // to t_end — the same merge rule breakpoint landings use.
    if (opts.t_end - t - dt < opts.dt_min &&
        (next_bp >= breakpoints_.size() ||
         breakpoints_[next_bp] >= opts.t_end - kTimeEps))
      dt = opts.t_end - t;

    // Event functions at the step start: committed state, dt → 0.
    if (lte) {
      const StampContext ctx0(t, 0.0, /*is_dc=*/false, n_node, &v_prev,
                              &v_prev, step_integrator);
      for (std::size_t i = 0; i < devs.size(); ++i)
        f_start[i] = devs[i]->event_function(ctx0);
    }

    // Attempt the step: halve dt on Newton failure, shrink per the error
    // estimate on LTE rejection. The predictor warm-starts Newton; a step
    // that fails from the extrapolated guess is retried once from v_prev at
    // the same dt before dt is cut.
    const int corr_order =
        step_integrator == Integrator::Trapezoidal ? 2 : 1;
    bool accepted = false;
    bool predictor_guess_failed = false;
    bool have_estimate = false;
    double r = 1.0;
    int backoffs = 0;  // dt backoffs spent on this step
    while (!accepted) {
      const bool use_pred =
          lte && hist.points() >= 2 && !predictor_guess_failed;
      if (lte && hist.points() >= 2) {
        hist.predict(t + dt, corr_order, v_pred);
      }
      v = use_pred ? v_pred : v_prev;
      const NewtonResult nr = solve_newton(circuit, t + dt, dt, /*is_dc=*/false,
                                           v, v_prev, newton_,
                                           step_integrator);
      result.newton_iterations += static_cast<std::size_t>(nr.iterations);
      if (!nr.converged) {
        if (use_pred) {
          // The extrapolation can overshoot a stiff corner; v_prev is the
          // robust guess. Same dt, one retry.
          predictor_guess_failed = true;
          continue;
        }
        // Backoff can't rescue everything: a singular system stays singular
        // at any dt (no step size un-floats a node), and a stall that
        // survives the backoff budget needs a stronger aid. Engage the
        // recovery ladder at the current dt instead of dying at dt_min.
        const bool engage = nr.singular || ++backoffs >= kRetryBudget ||
                            dt * 0.25 < opts.dt_min;
        if (engage) {
          v = v_prev;
          SolverDiagnostics diag;
          const NewtonResult rr = solve_newton_recovering(
              circuit, t + dt, dt, /*is_dc=*/false, v, v_prev, newton_,
              RecoveryOptions{}, &diag, step_integrator);
          result.newton_iterations += static_cast<std::size_t>(rr.iterations);
          result.diagnostics = std::move(diag);
          if (rr.converged) {
            if (result.diagnostics.residual_gmin > 0.0) {
              sticky_gmin_ =
                  std::max(sticky_gmin_, result.diagnostics.residual_gmin);
              newton_.gmin = sticky_gmin_;
              result.residual_gmin = sticky_gmin_;
            }
            ++result.steps_recovered;
            // A ladder-rescued step is treated like a discontinuity: accept
            // it blind and BE-restart the history from it.
            have_estimate = false;
            pending_restart = true;
            accepted = true;
            continue;
          }
          result.failure = "Newton failed to converge at t=" +
                           std::to_string(t) + "; recovery ladder: " +
                           result.diagnostics.summary();
          return false;
        }
        dt *= 0.25;
        if (dt < opts.dt_min) {
          result.failure = "Newton failed to converge at t=" +
                           std::to_string(t) + " with dt at dt_min";
          return false;
        }
        continue;
      }
      // LTE accept/reject. The first step after a restart has no history
      // (points() == 1) and is accepted blind — which is why restarts also
      // reset dt to dt_init.
      if (lte && hist.points() >= 2) {
        const double milne = milne_factor(step_integrator,
                                          std::min(corr_order, hist.points() - 1),
                                          dt, hist.h1(), hist.h2());
        r = error_ratio(v, v_prev, v_pred, milne, n_node);
        have_estimate = true;
        if (r > 1.0 && dt > opts.dt_min * (1.0 + 1e-12)) {
          ++result.steps_rejected;
          const double shrink = std::clamp(
              0.9 * std::pow(std::max(r, 1e-10), -1.0 / (corr_order + 1)),
              0.1, 0.9);
          dt = std::max(dt * shrink, opts.dt_min);
          predictor_guess_failed = false;
          continue;
        }
      }
      accepted = true;
    }

    // Event location: a device whose event function went positive →
    // non-positive across the step has a state change inside it. Bisect dt
    // until the bracket is tighter than kEventTimeTol and land on the
    // upper end — just past the crossing, so the commit below latches the
    // new state — then restart like a breakpoint.
    if (lte) {
      const auto eval_events = [&](double step, const std::vector<double>& sol) {
        const StampContext ec(t + step, step, /*is_dc=*/false, n_node, &sol,
                              &v_prev, step_integrator);
        for (std::size_t i = 0; i < devs.size(); ++i)
          f_end[i] = devs[i]->event_function(ec);
      };
      const auto crossed = [&]() {
        for (std::size_t i = 0; i < devs.size(); ++i)
          if (std::isfinite(f_start[i]) && f_start[i] > 0.0 &&
              f_end[i] <= 0.0)
            return true;
        return false;
      };
      eval_events(dt, v);
      if (crossed()) {
        double lo = 0.0;
        double hi = dt;
        std::vector<double> v_hi = v;  // converged solution at t + hi
        while (hi - lo > kEventTimeTol) {
          const double mid = 0.5 * (lo + hi);
          if (mid <= opts.dt_min) break;
          if (hist.points() >= 2)
            hist.predict(t + mid, corr_order, v);
          else
            v = v_prev;
          NewtonResult nr = solve_newton(circuit, t + mid, mid, /*is_dc=*/false,
                                         v, v_prev, newton_,
                                         step_integrator);
          result.newton_iterations += static_cast<std::size_t>(nr.iterations);
          if (!nr.converged) {
            v = v_prev;
            nr = solve_newton(circuit, t + mid, mid, /*is_dc=*/false, v,
                              v_prev, newton_, step_integrator);
            result.newton_iterations += static_cast<std::size_t>(nr.iterations);
          }
          if (!nr.converged) break;  // keep the current (converged) bracket
          eval_events(mid, v);
          if (crossed()) {
            hi = mid;
            v_hi = v;
          } else {
            lo = mid;
          }
        }
        dt = hi;
        v = v_hi;
        have_estimate = false;  // the landed step is shorter than judged
        ++result.events_located;
        pending_restart = true;
      }
    }

    t += dt;
    ++result.steps_taken;
    dt_last_ = dt;

    // Commit device state and integrate source energies at the accepted
    // point (same integrator the step was solved with, so companion-current
    // state stays consistent).
    StampContext ctx(t, dt, /*is_dc=*/false, n_node, &v, &v_prev,
                     step_integrator);
    for (const auto& dev : devs) dev->commit(ctx);
    for (std::size_t i = 0; i < devs.size(); ++i) {
      const double pd = devs[i]->delivered_power(ctx);
      acc_delivered_[i] += 0.5 * (prev_delivered_[i] + pd) * dt;
      prev_delivered_[i] = pd;
    }

    if (opts.record) record_sample(result, t, v);
    if (lte) hist.push(t, v);
    v_prev = v;

    if (lte) {
      const double fac = have_estimate
                             ? pi_growth(r, r_prev, corr_order)
                             : kDtGrowMax;
      dt = std::min(dt * fac, opts.dt_max);
      if (have_estimate) r_prev = r;
    } else {
      dt = std::min(dt * opts.dt_grow, opts.dt_max);
    }
  }
  return true;
}

TransientResult TransientRun::finish() {
  if (result_.failure.empty()) {
    NEMTCAM_EXPECT_MSG(t_ >= opts_.t_end - kTimeEps,
                       "TransientRun::finish before t_end");
    const auto& devs = circuit_->devices();
    for (std::size_t i = 0; i < devs.size(); ++i) {
      if (acc_delivered_[i] != 0.0 || devs[i]->branch_count() > 0)
        result_.source_energy_[devs[i]->name()] += acc_delivered_[i];
    }
    result_.finished = true;
  }
  return std::move(result_);
}

TransientResult run_transient(Circuit& circuit, const TransientOptions& opts) {
  return run_transient_from(circuit, circuit.initial_state(), opts);
}

TransientResult run_transient_from(Circuit& circuit, std::vector<double> v0,
                                   const TransientOptions& opts) {
  TransientRun run(circuit, std::move(v0), opts);
  run.advance_to(opts.t_end);
  return run.finish();
}

}  // namespace nemtcam::spice
