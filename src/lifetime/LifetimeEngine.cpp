#include "lifetime/LifetimeEngine.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "devices/NemRelay.h"
#include "fault/FaultInjector.h"
#include "tcam/RowSpecs.h"
#include "tcam/SearchTemplate.h"
#include "util/Expect.h"
#include "util/Random.h"

namespace nemtcam::lifetime {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Wear-decade recalibration points: worst live wear crossing each of
// these triggers a circuit check even when no fault has onset yet, so the
// behavioral delay/energy track the smoothly aging devices.
constexpr double kDecades[] = {1e-3, 1e-2, 1e-1, 1.0};
constexpr int kNumDecades = 4;

constexpr std::uint64_t kZipfStream = 0x5a1f5a1f5a1f5a1full;

tcam::TcamKind kind_of(core::TcamTech tech) {
  switch (tech) {
    case core::TcamTech::Sram16T: return tcam::TcamKind::Sram16T;
    case core::TcamTech::Nem3T2N: return tcam::TcamKind::Nem3T2N;
    case core::TcamTech::Rram2T2R: return tcam::TcamKind::Rram2T2R;
    case core::TcamTech::Fefet2F: return tcam::TcamKind::Fefet2F;
  }
  NEMTCAM_EXPECT_MSG(false, "unknown TcamTech");
  return tcam::TcamKind::Nem3T2N;
}

// Operations of a fixed-rate periodic stream inside [t0, t1). Floor
// arithmetic makes the count additive over any partition of the interval,
// so the multi-rate segmentation and the brute-force replay enumerate
// identical schedules.
double ops_in(double rate, double t0, double t1) {
  if (rate <= 0.0 || t1 <= t0) return 0.0;
  return std::floor(t1 * rate) - std::floor(t0 * rate);
}

core::TernaryWord checkerboard(int width) {
  core::TernaryWord w(static_cast<std::size_t>(width));
  for (int i = 0; i < width; ++i)
    w[static_cast<std::size_t>(i)] =
        i % 2 == 0 ? core::Ternary::One : core::Ternary::Zero;
  return w;
}

}  // namespace

struct LifetimeEngine::RowState {
  RowFate fate;
  double cycles = 0.0;          // fractional cell cycles accumulated
  std::uint64_t deposited = 0;  // whole cycles already in the tracker
  bool weak = false;
  bool dead = false;
  bool window_lost = false;
  std::vector<fault::FaultSpec> forced;  // externally injected faults
};

LifetimeEngine::LifetimeEngine(LifetimeConfig cfg)
    : cfg_(cfg),
      costs_(cfg.tech, cfg.width, cfg.rows),
      tcam_(cfg.tech, /*banks=*/1, cfg.rows, cfg.width, cfg.spare_rows),
      tracker_(cfg.tech, cfg.rows, cfg.width) {
  NEMTCAM_EXPECT(cfg_.rows >= 1 && cfg_.width >= 1);
  NEMTCAM_EXPECT(cfg_.spare_rows >= 0 && cfg_.spare_rows < cfg_.rows);
  NEMTCAM_EXPECT(cfg_.horizon > 0.0);

  // Per-row fates over PHYSICAL coordinates (wear is physical: a spare
  // inherits the hot logical row's traffic but starts from zero wear and
  // its own thresholds).
  state_.resize(static_cast<std::size_t>(cfg_.rows));
  for (int p = 0; p < cfg_.rows; ++p)
    state_[static_cast<std::size_t>(p)].fate =
        row_fate(cfg_.seed, p, cfg_.width);

  // Zipf write popularity over logical rows, under a seeded permutation
  // so the hot rows are seed-dependent rather than always row 0.
  const int logical = tcam_.logical_capacity();
  std::vector<int> rank(static_cast<std::size_t>(logical));
  for (int l = 0; l < logical; ++l) rank[static_cast<std::size_t>(l)] = l;
  util::Rng zrng(cfg_.seed ^ kZipfStream);
  for (int i = logical - 1; i > 0; --i)
    std::swap(rank[static_cast<std::size_t>(i)],
              rank[static_cast<std::size_t>(zrng.uniform_int(0, i))]);
  write_rate_.assign(static_cast<std::size_t>(logical), 0.0);
  double total = 0.0;
  for (int l = 0; l < logical; ++l) {
    const double w = std::pow(
        static_cast<double>(rank[static_cast<std::size_t>(l)] + 1),
        -kZipfAlpha);
    write_rate_[static_cast<std::size_t>(l)] = w;
    total += w;
  }
  for (double& w : write_rate_) w *= cfg_.traffic.write_rate_hz / total;

  // Seed every logical row with data so retirement has words to migrate.
  const core::TernaryWord word = checkerboard(cfg_.width);
  for (int l = 0; l < logical; ++l) tcam_.write(l, word);

  forced_ = cfg_.forced_faults;
  std::sort(forced_.begin(), forced_.end(),
            [](const ForcedFault& a, const ForcedFault& b) {
              return a.t < b.t;
            });

  // Refresh-window loss exists only where one-shot refresh exists.
  window_loss_wear_ = kInf;
  if (cfg_.tech == core::TcamTech::Nem3T2N && costs_.needs_refresh()) {
    window_loss_wear_ = degradation_.window_loss_wear(
        devices::NemRelayParams{}.v_pi, tcam::Calibration::standard().v_refresh);
  }

  per_search_delay_ = costs_.search_latency();
  per_search_energy_ = costs_.search_energy();
  fresh_search_delay_ = per_search_delay_;
  fresh_search_energy_ = per_search_energy_;
}

LifetimeEngine::~LifetimeEngine() = default;

double LifetimeEngine::wear_of(int physical) const {
  return state_[static_cast<std::size_t>(physical)].cycles /
         tracker_.spec().rated_cycles;
}

double LifetimeEngine::refresh_period() const {
  int worst = -1;
  double w = 0.0;
  for (int p = 0; p < cfg_.rows; ++p)
    if (tcam_.logical_at(p) >= 0 && (worst < 0 || wear_of(p) > w)) {
      worst = p;
      w = wear_of(p);
    }
  return costs_.retention_time() * cfg_.retention_derate *
         degradation_.retention_scale(w) * cfg_.refresh_period_scale;
}

double LifetimeEngine::cell_rate(int physical) const {
  const int l = tcam_.logical_at(physical);
  if (l < 0) return 0.0;  // retired / unused spare: no traffic, no refresh
  double rate = write_rate_[static_cast<std::size_t>(l)] * kFlipFraction;
  if (state_[static_cast<std::size_t>(physical)].window_lost &&
      costs_.needs_refresh()) {
    // Past window loss every one-shot refresh actuates this row's beams:
    // refresh itself now consumes endurance, at one cycle per period.
    rate += 1.0 / refresh_period();
  }
  return rate;
}

double LifetimeEngine::time_to_wear(int physical, double w_target) const {
  if (!std::isfinite(w_target)) return kInf;
  const RowState& st = state_[static_cast<std::size_t>(physical)];
  const double target_cycles = w_target * tracker_.spec().rated_cycles;
  if (st.cycles >= target_cycles) return now_;  // overdue: fire immediately
  const double rate = cell_rate(physical);
  if (rate <= 0.0) return kInf;
  return now_ + (target_cycles - st.cycles) / rate;
}

int LifetimeEngine::worst_live_row() const {
  int worst = -1;
  double w = -1.0;
  for (int p = 0; p < cfg_.rows; ++p) {
    if (tcam_.logical_at(p) < 0) continue;
    const double wp = wear_of(p);
    if (wp > w) {
      w = wp;
      worst = p;
    }
  }
  return worst;
}

void LifetimeEngine::deposit_wear(double dt) {
  if (dt <= 0.0) return;
  for (int p = 0; p < cfg_.rows; ++p) {
    RowState& st = state_[static_cast<std::size_t>(p)];
    const double rate = cell_rate(p);
    if (rate <= 0.0) continue;
    st.cycles += rate * dt;
    const auto whole = static_cast<std::uint64_t>(st.cycles);
    if (whole > st.deposited) {
      tracker_.add_row_cycles(p, whole - st.deposited);
      st.deposited = whole;
    }
  }
}

void LifetimeEngine::refresh_accrue(double t0, double t1,
                                    LifetimeResult& out) {
  if (!costs_.needs_refresh()) return;
  const double period = refresh_period();
  const double weak_period = period * arch::kWeakRetentionScale;
  int n_live = 0;
  for (int p = 0; p < cfg_.rows; ++p)
    if (tcam_.logical_at(p) >= 0) ++n_live;

  const double ops = ops_in(1.0 / period, t0, t1);
  // Rows with no live data (retired, unused spares) are skipped by the
  // one-shot op — same energy share the RefreshController models.
  const double energy_per_op =
      costs_.refresh_energy() * static_cast<double>(n_live) / cfg_.rows;
  out.refresh_ops += ops;
  out.refresh_energy += ops * energy_per_op;
  for (int p = 0; p < cfg_.rows; ++p) {
    const RowState& st = state_[static_cast<std::size_t>(p)];
    if (tcam_.logical_at(p) < 0 || !st.weak) continue;
    const double wops = ops_in(1.0 / weak_period, t0, t1);
    out.weak_refresh_ops += wops;
    out.refresh_energy += wops * costs_.write_energy();
  }
}

void LifetimeEngine::accrue(double t0, double t1, LifetimeResult& out) {
  if (t1 <= t0) return;

  const double n_search = ops_in(cfg_.traffic.search_rate_hz, t0, t1);
  if (cfg_.brute_force) {
    // Reference mode: genuinely replay the aged circuit for every search
    // operation. Degradation state is constant inside a segment, so this
    // is what the multi-rate closed form claims to equal.
    const int m = worst_live_row();
    if (m >= 0 && n_search > 0.0) {
      sync_template(m, wear_of(m), t0);
      const double strobe = tpl_->default_strobe();
      const core::TernaryWord stored = checkerboard(cfg_.width);
      core::TernaryWord miss = stored;
      miss[0] = stored[0] == core::Ternary::One ? core::Ternary::Zero
                                                : core::Ternary::One;
      for (double i = 0.0; i < n_search; i += 1.0) {
        const tcam::SearchMetrics met = tpl_->search(miss, stored, strobe);
        out.search_energy += met.energy;
        out.search_time += met.latency;
      }
    }
  } else {
    out.search_energy += n_search * per_search_energy_;
    out.search_time += n_search * per_search_delay_;
  }
  out.searches += n_search;

  const double n_write = ops_in(cfg_.traffic.write_rate_hz, t0, t1);
  out.writes += n_write;
  out.write_energy += n_write * costs_.write_energy();

  refresh_accrue(t0, t1, out);
  deposit_wear(t1 - t0);
}

fault::FaultReport LifetimeEngine::build_report(double now) const {
  fault::FaultReport report;
  report.seed = cfg_.seed;
  report.rows = cfg_.rows;
  report.width = cfg_.width;
  for (int p = 0; p < cfg_.rows; ++p) {
    std::vector<fault::FaultSpec> faults = faults_of_row(
        cfg_.seed, p, cfg_.width, cfg_.tech, wear_of(p), now);
    // Merge in the forced faults; on a cell collision keep the worse kind
    // (Dead beats Weak), else the forced one.
    for (const fault::FaultSpec& f : state_[static_cast<std::size_t>(p)].forced) {
      const auto it =
          std::find_if(faults.begin(), faults.end(),
                       [&](const fault::FaultSpec& g) { return g.col == f.col; });
      if (it == faults.end()) {
        faults.push_back(f);
      } else if (fault::health_of(f.kind) >= fault::health_of(it->kind)) {
        *it = f;
      }
    }
    std::sort(faults.begin(), faults.end(),
              [](const fault::FaultSpec& a, const fault::FaultSpec& b) {
                return a.col < b.col;
              });
    report.faults.insert(report.faults.end(), faults.begin(), faults.end());
  }
  return report;
}

void LifetimeEngine::sync_template(int physical, double w, double now) {
  if (!tpl_ || tpl_row_ != physical) {
    // Fault pins (force_stuck) are sticky by design, so a change of the
    // measured row means a fresh elaboration — rare (retirements only).
    tpl_ = std::make_unique<tcam::SearchTemplate>(
        tcam::search_spec_for(kind_of(cfg_.tech),
                              tcam::Calibration::standard()),
        cfg_.width, cfg_.rows);
    tpl_row_ = physical;
    tpl_wear_ = 0.0;
  }
  const core::TernaryWord stored = checkerboard(cfg_.width);
  tpl_->ensure_built(stored, stored);
  spice::Circuit* ckt = tpl_->circuit();
  degradation_.apply_to_circuit(*ckt, w, tpl_wear_);
  tpl_wear_ = w;
  // Inject the measured row's accumulated faults (aging first, faults
  // second: a faulted device's severity overrides its aged parameter).
  const fault::FaultInjector injector;
  for (const fault::FaultSpec& f :
       faults_of_row(cfg_.seed, physical, cfg_.width, cfg_.tech, w, now))
    injector.apply(*ckt, f);
  for (const fault::FaultSpec& f :
       state_[static_cast<std::size_t>(physical)].forced)
    injector.apply(*ckt, f);
}

void LifetimeEngine::update_behavioral(double w) {
  const double ds = degradation_.delay_scale(w) /
                    degradation_.delay_scale(checked_wear_);
  const double es = degradation_.energy_scale(w) /
                    degradation_.energy_scale(checked_wear_);
  per_search_delay_ = base_delay_ * ds;
  per_search_energy_ = base_energy_ * es;
}

void LifetimeEngine::circuit_check(double t, LifetimeResult& out) {
  const int m = worst_live_row();
  if (m < 0) return;
  const double w = wear_of(m);
  if (cfg_.max_circuit_checks <= 0 || checks_run_ >= cfg_.max_circuit_checks) {
    // Budget spent: the analytic laws extrapolate from the last anchor.
    update_behavioral(w);
    return;
  }

  sync_template(m, w, t);
  const double strobe = tpl_->default_strobe();
  const core::TernaryWord stored = checkerboard(cfg_.width);
  core::TernaryWord miss = stored;
  miss[0] = stored[0] == core::Ternary::One ? core::Ternary::Zero
                                            : core::Ternary::One;
  const tcam::SearchMetrics match = tpl_->search(stored, stored, strobe);
  const tcam::SearchMetrics mis = tpl_->search(miss, stored, strobe);
  ++checks_run_;
  out.circuit_checks = checks_run_;
  if (!match.ok || !mis.ok) return;  // keep the previous calibration

  // A false match (mismatch failed to discharge by the strobe) or a
  // missed match marks the row functionally dead — the circuit overrules
  // the behavioral classification.
  const bool functional_fail = mis.matched || !match.matched;
  if (!functional_fail && mis.latency > 0.0) {
    if (!fresh_anchored_) {
      // First healthy check is the fresh baseline: anchor the scale
      // telemetry on measured (not reference-table) values. A failing
      // first check (brute-force mode skips the w = 0 check, so it can
      // land on a fault event) must not anchor an already-degraded
      // measurement.
      fresh_search_delay_ = mis.latency;
      fresh_search_energy_ = mis.energy;
      fresh_anchored_ = true;
    }
    base_delay_ = mis.latency;
    base_energy_ = mis.energy;
    checked_wear_ = w;
    update_behavioral(w);
  }
  if (functional_fail)
    handle_dead(t, m, EventKind::FunctionalDead,
                mis.matched ? "aged/faulted row holds a false match"
                            : "aged/faulted row misses a true match",
                out);
}

void LifetimeEngine::handle_weak(double t, int physical,
                                 const std::string& detail,
                                 LifetimeResult& out) {
  RowState& st = state_[static_cast<std::size_t>(physical)];
  if (st.weak || st.dead) return;
  st.weak = true;
  if (out.t_first_weak < 0.0) out.t_first_weak = t;
  out.events.push_back({t, EventKind::WeakOnset, physical,
                        tcam_.logical_at(physical), wear_of(physical),
                        detail});
}

void LifetimeEngine::handle_dead(double t, int physical, EventKind kind,
                                 const std::string& detail,
                                 LifetimeResult& out) {
  RowState& st = state_[static_cast<std::size_t>(physical)];
  if (st.dead) return;
  st.dead = true;
  if (out.t_first_dead < 0.0) out.t_first_dead = t;
  int logical = tcam_.logical_at(physical);
  out.events.push_back(
      {t, kind, physical, logical, wear_of(physical), detail});
  if (logical < 0) return;  // a spare/abandoned row died: no data at risk

  // Remap the logical row onto spares until it lands on a healthy one.
  while (true) {
    if (!cfg_.remap_enabled || tcam_.spare_rows_free() == 0) {
      died_ = true;
      out.died = true;
      out.t_death = t;
      out.events.push_back({t, EventKind::ArrayDeath, physical, logical,
                            wear_of(physical),
                            cfg_.remap_enabled ? "spare pool exhausted"
                                               : "remap disabled"});
      return;
    }
    tcam_.retire_row(logical);
    const int np = tcam_.physical_row(logical);
    out.events.push_back({t, EventKind::RowRetired, np, logical,
                          wear_of(np),
                          "remapped off physical row " +
                              std::to_string(physical)});
    if (!state_[static_cast<std::size_t>(np)].dead) break;
    physical = np;  // the spare itself is dead (forced fault): keep going
  }
}

LifetimeResult LifetimeEngine::run() {
  // run() consumes row wear, retirements, and died_ without resetting
  // them; a silent second run would return a near-empty result.
  NEMTCAM_EXPECT_MSG(!ran_, "LifetimeEngine::run() may only be called once");
  ran_ = true;
  LifetimeResult out;
  now_ = 0.0;
  base_delay_ = costs_.search_latency();
  base_energy_ = costs_.search_energy();
  checked_wear_ = 0.0;

  // Fresh-circuit baseline anchors the behavioral model to this width's
  // measured transient rather than the 64-wide reference table.
  if (cfg_.max_circuit_checks > 0 && !cfg_.brute_force)
    circuit_check(0.0, out);

  std::size_t forced_idx = 0;
  int decade_idx = 0;

  while (!died_ && now_ < cfg_.horizon) {
    // --- Find the next state-change boundary --------------------------
    double t_next = cfg_.horizon;
    EventKind kind = EventKind::HorizonEnd;
    int row = -1;
    const char* chan = "";
    const auto consider = [&](double t, EventKind k, int p, const char* c) {
      if (t < t_next) {
        t_next = t;
        kind = k;
        row = p;
        chan = c;
      }
    };

    for (int p = 0; p < cfg_.rows; ++p) {
      if (tcam_.logical_at(p) < 0) continue;
      const RowState& st = state_[static_cast<std::size_t>(p)];
      if (!st.weak) {
        consider(time_to_wear(p, st.fate.wear_drift), EventKind::WeakOnset,
                 p, "drift");
        consider(st.fate.time_leak >= now_ ? st.fate.time_leak : now_,
                 EventKind::WeakOnset, p, "leak");
      }
      if (!st.window_lost)
        consider(time_to_wear(p, window_loss_wear_), EventKind::WindowLost,
                 p, "");
      consider(time_to_wear(p, st.fate.wear_dead), EventKind::DeadOnset, p,
               "");
    }
    if (decade_idx < kNumDecades) {
      for (int p = 0; p < cfg_.rows; ++p) {
        if (tcam_.logical_at(p) < 0) continue;
        consider(time_to_wear(p, kDecades[decade_idx]),
                 EventKind::DecadeCross, p, "");
      }
    }
    if (forced_idx < forced_.size())
      consider(std::max(forced_[forced_idx].t, now_), EventKind::Forced,
               forced_[forced_idx].spec.row, "");

    // --- Accrue the segment, then apply the state change --------------
    const double t1 = std::min(t_next, cfg_.horizon);
    accrue(now_, t1, out);
    now_ = t1;
    if (t_next >= cfg_.horizon) {
      out.events.push_back(
          {cfg_.horizon, EventKind::HorizonEnd, -1, -1, 0.0, ""});
      break;
    }

    switch (kind) {
      case EventKind::WeakOnset: {
        const RowState& st = state_[static_cast<std::size_t>(row)];
        const bool drift = chan[0] == 'd';
        handle_weak(now_, row,
                    std::string(drift ? "contact drift, col " : "gate leak, col ") +
                        std::to_string(drift ? st.fate.drift_col
                                             : st.fate.leak_col),
                    out);
        circuit_check(now_, out);
        break;
      }
      case EventKind::WindowLost: {
        RowState& st = state_[static_cast<std::size_t>(row)];
        st.window_lost = true;
        if (out.t_window_lost < 0.0) out.t_window_lost = now_;
        out.events.push_back(
            {now_, EventKind::WindowLost, row, tcam_.logical_at(row),
             wear_of(row),
             "aged V_PI reached V_R: one-shot refresh now actuates this row"});
        // Refresh-driven actuation also degrades the stored levels: the
        // row is weak from here on (and headed for wear-out runaway).
        handle_weak(now_, row, "refresh-window loss", out);
        circuit_check(now_, out);
        break;
      }
      case EventKind::DeadOnset: {
        const RowState& st = state_[static_cast<std::size_t>(row)];
        const CellFate fate =
            cell_fate(cfg_.seed, row, st.fate.dead_col);
        handle_dead(now_, row, EventKind::DeadOnset,
                    std::string(fate.dead_closed ? "stuck-closed"
                                                 : "stuck-open") +
                        ", col " + std::to_string(st.fate.dead_col),
                    out);
        if (!died_) circuit_check(now_, out);
        break;
      }
      case EventKind::DecadeCross: {
        ++decade_idx;
        out.events.push_back({now_, EventKind::DecadeCross, row,
                              tcam_.logical_at(row), wear_of(row), ""});
        circuit_check(now_, out);
        break;
      }
      case EventKind::Forced: {
        const fault::FaultSpec spec = forced_[forced_idx].spec;
        ++forced_idx;
        if (spec.row >= 0 && spec.row < cfg_.rows) {
          RowState& st = state_[static_cast<std::size_t>(spec.row)];
          st.forced.push_back(spec);
          out.events.push_back({now_, EventKind::Forced, spec.row,
                                tcam_.logical_at(spec.row), wear_of(spec.row),
                                fault::fault_kind_name(spec.kind)});
          if (fault::health_of(spec.kind) == fault::CellHealth::Dead) {
            handle_dead(now_, spec.row, EventKind::DeadOnset,
                        std::string("forced ") +
                            fault::fault_kind_name(spec.kind),
                        out);
            if (!died_) circuit_check(now_, out);
          } else {
            handle_weak(now_, spec.row,
                        std::string("forced ") +
                            fault::fault_kind_name(spec.kind),
                        out);
            circuit_check(now_, out);
          }
        }
        break;
      }
      default:
        break;
    }
  }

  // --- Finalize -------------------------------------------------------
  out.sim_end = now_;
  out.rows_retired = tcam_.retired_rows();
  out.spares_left = tcam_.spare_rows_free();
  out.report = build_report(now_);
  const int worst = worst_live_row();
  out.worst_wear = worst >= 0 ? wear_of(worst) : 0.0;
  out.delay_scale_end =
      fresh_search_delay_ > 0.0 ? per_search_delay_ / fresh_search_delay_ : 1.0;
  out.energy_scale_end = fresh_search_energy_ > 0.0
                             ? per_search_energy_ / fresh_search_energy_
                             : 1.0;
  out.retention_scale_end =
      cfg_.retention_derate * degradation_.retention_scale(out.worst_wear);

  if (costs_.needs_refresh()) {
    // Replay the end state's refresh interference over a representative
    // window (single-resource model, periodic arrivals for determinism).
    arch::RefreshSimConfig rc;
    rc.tech = cfg_.tech;
    rc.rows = cfg_.rows;
    rc.width = cfg_.width;
    rc.search_rate_hz = std::max(cfg_.traffic.search_rate_hz, 1.0);
    rc.poisson_arrivals = false;
    rc.seed = cfg_.seed;
    rc.faults = tcam_.refresh_awareness(out.report);
    rc.retention_scale = out.retention_scale_end;
    rc.refresh_period_scale = cfg_.refresh_period_scale;
    const double period = refresh_period();
    double window = 200.0 * period;
    if (rc.search_rate_hz * window > 2e6) window = 2e6 / rc.search_rate_hz;
    rc.sim_time = std::max(window, 2.0 * period);
    const arch::RefreshSimResult r = arch::simulate_refresh_interference(rc);
    out.refresh_duty_end = r.refresh_duty(rc.sim_time);
    out.avg_search_wait_end = r.avg_search_wait();
  }
  return out;
}

}  // namespace nemtcam::lifetime
