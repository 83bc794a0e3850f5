// Dynamic TCAM with retention and one-shot refresh, on a virtual clock.
//
// Wraps the behavioral TcamModel with the 3T2N's dynamic-memory semantics:
// stored charge decays, and a row whose last charge event (write or
// refresh) is older than the retention time loses its data (reads as
// invalid, matches nothing). One-shot refresh re-arms every valid row in a
// single operation (Fig. 4); a row-by-row refresh policy is also provided
// as the conventional baseline. An operation/energy ledger accumulates the
// EnergyModel costs so architectural studies can report totals.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/EnergyModel.h"
#include "core/TcamModel.h"

namespace nemtcam::core {

struct TcamLedger {
  std::uint64_t writes = 0;
  std::uint64_t searches = 0;
  std::uint64_t refreshes = 0;        // one-shot ops
  std::uint64_t row_refreshes = 0;    // row-by-row ops
  std::uint64_t retention_losses = 0; // rows that decayed before refresh
  double energy = 0.0;                // J
  double busy_time = 0.0;             // s the array was occupied
};

class DynamicTcam {
 public:
  // auto_refresh: when true, a one-shot refresh is inserted automatically
  // whenever the retention deadline would otherwise pass (the hardware
  // behaviour); when false, data genuinely decays (for loss studies).
  DynamicTcam(TcamTech tech, int rows, int width, bool auto_refresh = true);

  int rows() const noexcept { return model_.rows(); }
  const EnergyModel& costs() const noexcept { return energy_model_; }

  double now() const noexcept { return now_; }
  // Advances the virtual clock (e.g. idle time between requests).
  void advance(double seconds);

  // Writes a word into a row; takes write latency on the clock.
  void write(int row, const TernaryWord& word);
  void erase(int row);

  // Searches; rows whose charge decayed do not match.
  std::vector<int> search(const TernaryWord& key);
  std::optional<int> search_first(const TernaryWord& key);

  // Explicit one-shot refresh of the whole array (all valid rows re-armed
  // in one operation).
  void one_shot_refresh();
  // Conventional refresh of a single row (read + write back).
  void refresh_row(int row);

  // True when the row currently holds live (non-decayed) data.
  bool live(int row) const;
  const TernaryWord& read(int row) const { return model_.read(row); }
  bool valid(int row) const { return model_.valid(row); }

  const TcamLedger& ledger() const noexcept { return ledger_; }

 private:
  void maybe_auto_refresh(double target_time);
  void expire_rows();

  TcamModel model_;
  EnergyModel energy_model_;
  bool auto_refresh_;
  double now_ = 0.0;
  double next_deadline_ = 0.0;  // next time a refresh must have happened
  std::vector<double> charged_at_;
  TcamLedger ledger_;
};

}  // namespace nemtcam::core
