#include "arch/RefreshController.h"

#include <algorithm>
#include <cmath>
#include <queue>

#include "util/Expect.h"
#include "util/Random.h"

namespace nemtcam::arch {

const char* policy_name(RefreshPolicy p) {
  switch (p) {
    case RefreshPolicy::None: return "none";
    case RefreshPolicy::RowByRow: return "row-by-row";
    case RefreshPolicy::OneShot: return "one-shot";
  }
  return "?";
}

FaultAwareness FaultAwareness::normalized(int rows) const {
  const auto clean = [rows](std::vector<int> v) {
    std::erase_if(v, [rows](int r) { return r < 0 || r >= rows; });
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
    return v;
  };
  FaultAwareness out;
  out.retired_rows = clean(retired_rows);
  out.dead_rows = clean(dead_rows);
  out.weak_rows = clean(weak_rows);
  // Retired rows carry no live data: drop them from both fault schedules.
  const auto remove_all = [](std::vector<int>& from,
                             const std::vector<int>& sorted_rm) {
    std::erase_if(from, [&](int r) {
      return std::binary_search(sorted_rm.begin(), sorted_rm.end(), r);
    });
  };
  remove_all(out.dead_rows, out.retired_rows);
  remove_all(out.weak_rows, out.retired_rows);
  // Dead trumps weak: one stuck cell outranks any number of leaky ones.
  remove_all(out.weak_rows, out.dead_rows);
  return out;
}

RefreshSimResult simulate_refresh_interference(const RefreshSimConfig& cfg) {
  NEMTCAM_EXPECT(cfg.sim_time > 0.0 && cfg.search_rate_hz > 0.0);
  NEMTCAM_EXPECT(cfg.retention_scale > 0.0 && cfg.refresh_period_scale > 0.0);
  const core::EnergyModel costs(cfg.tech, cfg.width, cfg.rows);
  util::Rng rng(cfg.seed);

  // Fault classification, row-indexed for the scheduler. Normalization
  // enforces precedence (retired > dead > weak) and dedupes, so raw
  // campaign lists are safe to pass in.
  const FaultAwareness faults = cfg.faults.normalized(cfg.rows);
  const auto row_flags = [&](const std::vector<int>& rows) {
    std::vector<bool> flags(static_cast<std::size_t>(cfg.rows), false);
    for (const int r : rows) flags[static_cast<std::size_t>(r)] = true;
    return flags;
  };
  // Retired and dead rows schedule identically (no refresh, no energy
  // share); they are only reported separately.
  std::vector<bool> dead = row_flags(faults.dead_rows);
  for (const int r : faults.retired_rows)
    dead[static_cast<std::size_t>(r)] = true;
  const std::vector<bool> weak = row_flags(faults.weak_rows);
  const int n_dead = static_cast<int>(faults.dead_rows.size()) +
                     static_cast<int>(faults.retired_rows.size());

  // Build the refresh schedule.
  struct RefreshOp {
    double start;
    double duration;
    double energy;
    bool weak_extra;
  };
  std::vector<RefreshOp> refresh_ops;
  if (cfg.policy != RefreshPolicy::None && costs.needs_refresh()) {
    const double period = costs.retention_time() * cfg.retention_scale *
                          cfg.refresh_period_scale;
    const double weak_period = period * kWeakRetentionScale;
    if (cfg.policy == RefreshPolicy::OneShot) {
      // Dead rows carry no data: the one-shot op skips their share of the
      // recharge energy (its latency is array-parallel and unchanged).
      const double energy =
          costs.refresh_energy() *
          (1.0 - static_cast<double>(n_dead) / cfg.rows);
      for (double t = period * 0.5; t < cfg.sim_time; t += period)
        refresh_ops.push_back({t, costs.refresh_latency(), energy, false});
      // Leaky rows cannot wait a full period: they get supplemental
      // row-granularity refreshes between the one-shot ops.
      for (int r = 0; r < cfg.rows; ++r) {
        if (!weak[static_cast<std::size_t>(r)]) continue;
        for (double t = weak_period * (0.5 + r * 0.01); t < cfg.sim_time;
             t += weak_period)
          refresh_ops.push_back(
              {t, costs.write_latency(), costs.write_energy(), true});
      }
    } else {
      // Distributed row-by-row: rows refreshed evenly across each period.
      // Each op is a row read + write-back ≈ one row-write latency/energy.
      // Dead rows are dropped; weak rows cycle on their own shorter period.
      const double slice = period / cfg.rows;
      for (int r = 0; r < cfg.rows; ++r) {
        if (dead[static_cast<std::size_t>(r)]) continue;
        const bool w = weak[static_cast<std::size_t>(r)];
        const double row_period = w ? weak_period : period;
        for (double t = slice * (r + 0.5); t < cfg.sim_time; t += row_period)
          refresh_ops.push_back(
              {t, costs.write_latency(), costs.write_energy(), w});
      }
      std::sort(refresh_ops.begin(), refresh_ops.end(),
                [](const RefreshOp& a, const RefreshOp& b) {
                  return a.start < b.start;
                });
    }
  }
  if (!refresh_ops.empty() && !faults.weak_rows.empty() &&
      cfg.policy == RefreshPolicy::OneShot)
    std::sort(refresh_ops.begin(), refresh_ops.end(),
              [](const RefreshOp& a, const RefreshOp& b) {
                return a.start < b.start;
              });

  // Build the search arrival trace.
  std::vector<double> arrivals;
  {
    const double mean_gap = 1.0 / cfg.search_rate_hz;
    double t = 0.0;
    while (true) {
      const double gap = cfg.poisson_arrivals
                             ? -mean_gap * std::log(rng.uniform(1e-12, 1.0))
                             : mean_gap;
      t += gap;
      if (t >= cfg.sim_time) break;
      arrivals.push_back(t);
    }
  }

  // Single-resource replay: the array serves refreshes with priority (a
  // refresh cannot be deferred past its deadline) and searches in FIFO
  // order between them.
  RefreshSimResult out;
  out.searches_issued = arrivals.size();
  out.rows_excluded = n_dead;
  std::size_t next_refresh = 0;
  std::size_t next_search = 0;
  double busy_until = 0.0;

  while (next_refresh < refresh_ops.size() || next_search < arrivals.size()) {
    const bool refresh_due =
        next_refresh < refresh_ops.size() &&
        (next_search >= arrivals.size() ||
         refresh_ops[next_refresh].start <= arrivals[next_search]);
    if (refresh_due) {
      const RefreshOp& op = refresh_ops[next_refresh++];
      const double start = std::max(op.start, busy_until);
      busy_until = start + op.duration;
      out.refresh_busy_time += op.duration;
      out.refresh_energy += op.energy;
      ++out.refresh_ops;
      if (op.weak_extra) ++out.weak_refresh_ops;
    } else {
      const double arrival = arrivals[next_search++];
      const double start = std::max(arrival, busy_until);
      const double wait = start - arrival;
      busy_until = start + costs.search_latency();
      out.total_search_wait += wait;
      out.max_search_wait = std::max(out.max_search_wait, wait);
      ++out.searches_served;
    }
  }
  return out;
}

}  // namespace nemtcam::arch
