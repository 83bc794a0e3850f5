#include "arch/BankedTcam.h"

#include <algorithm>

#include "util/Expect.h"
#include "util/Log.h"

namespace nemtcam::arch {

using core::DynamicTcam;
using core::TernaryWord;

BankedTcam::BankedTcam(core::TcamTech tech, int banks, int rows_per_bank,
                       int width, int spare_rows)
    : rows_per_bank_(rows_per_bank), width_(width) {
  NEMTCAM_EXPECT(banks >= 1 && rows_per_bank >= 1 && width >= 1);
  NEMTCAM_EXPECT(spare_rows >= 0 && spare_rows < banks * rows_per_bank);
  banks_.reserve(static_cast<std::size_t>(banks));
  for (int b = 0; b < banks; ++b) {
    banks_.push_back(
        std::make_unique<DynamicTcam>(tech, rows_per_bank, width));
    // Stagger the refresh phases: advance each bank a different fraction
    // of the retention period before use, so their deadlines interleave.
    const auto& costs = banks_.back()->costs();
    if (costs.needs_refresh() && banks > 1) {
      banks_.back()->advance(costs.retention_time() *
                             static_cast<double>(b) / banks);
    }
  }
  const int physical = banks * rows_per_bank;
  logical_rows_ = physical - spare_rows;
  next_spare_ = logical_rows_;
  remap_.resize(static_cast<std::size_t>(logical_rows_));
  logical_of_.assign(static_cast<std::size_t>(physical), -1);
  retired_physical_.assign(static_cast<std::size_t>(physical), false);
  for (int r = 0; r < logical_rows_; ++r) {
    remap_[static_cast<std::size_t>(r)] = r;
    logical_of_[static_cast<std::size_t>(r)] = r;
  }
}

std::pair<int, int> BankedTcam::split(int physical_row) const {
  NEMTCAM_EXPECT(physical_row >= 0 && physical_row < capacity());
  return {physical_row / rows_per_bank_, physical_row % rows_per_bank_};
}

int BankedTcam::physical_of(int global_row) const {
  NEMTCAM_EXPECT(global_row >= 0 && global_row < logical_rows_);
  return remap_[static_cast<std::size_t>(global_row)];
}

void BankedTcam::write(int global_row, const TernaryWord& word) {
  const auto [b, local] = split(physical_of(global_row));
  banks_[static_cast<std::size_t>(b)]->write(local, word);
}

void BankedTcam::erase(int global_row) {
  const auto [b, local] = split(physical_of(global_row));
  banks_[static_cast<std::size_t>(b)]->erase(local);
}

std::vector<int> BankedTcam::search(const TernaryWord& key) {
  std::vector<int> hits;
  for (int b = 0; b < banks(); ++b) {
    for (const int local : banks_[static_cast<std::size_t>(b)]->search(key)) {
      const int physical = b * rows_per_bank_ + local;
      const int logical = logical_of_[static_cast<std::size_t>(physical)];
      if (logical >= 0) hits.push_back(logical);
    }
  }
  // Priority order is the logical index; remapped rows live on spare
  // physical rows, so the raw bank order is no longer sorted.
  std::sort(hits.begin(), hits.end());
  return hits;
}

std::optional<int> BankedTcam::search_first(const TernaryWord& key) {
  const std::vector<int> hits = search(key);
  if (hits.empty()) return std::nullopt;
  return hits.front();
}

bool BankedTcam::retire_row(int global_row) {
  const int old_physical = physical_of(global_row);
  if (next_spare_ >= capacity()) {
    log::warn("BankedTcam: spare pool exhausted, row ", global_row,
              " stays on failing physical row ", old_physical);
    return false;
  }
  const int new_physical = next_spare_++;
  const auto [ob, olocal] = split(old_physical);
  const auto [nb, nlocal] = split(new_physical);
  DynamicTcam& old_bank = *banks_[static_cast<std::size_t>(ob)];
  DynamicTcam& new_bank = *banks_[static_cast<std::size_t>(nb)];
  if (old_bank.valid(olocal)) {
    new_bank.write(nlocal, old_bank.read(olocal));
    old_bank.erase(olocal);
  }
  remap_[static_cast<std::size_t>(global_row)] = new_physical;
  logical_of_[static_cast<std::size_t>(old_physical)] = -1;
  logical_of_[static_cast<std::size_t>(new_physical)] = global_row;
  retired_physical_[static_cast<std::size_t>(old_physical)] = true;
  ++retired_;
  return true;
}

int BankedTcam::apply_fault_report(const fault::FaultReport& report) {
  int remapped = 0;
  for (const int row : report.dead_rows()) {
    if (row >= logical_rows_) continue;  // fault map may cover spares too
    if (retire_row(row)) ++remapped;
  }
  return remapped;
}

FaultAwareness BankedTcam::refresh_awareness(
    const fault::FaultReport& physical_report) const {
  FaultAwareness out;
  for (int p = 0; p < capacity(); ++p) {
    if (logical_of_[static_cast<std::size_t>(p)] < 0) {
      // No live data here: abandoned retired row or still-unused spare.
      out.retired_rows.push_back(p);
      continue;
    }
    switch (physical_report.row_health(p)) {
      case fault::CellHealth::Dead: out.dead_rows.push_back(p); break;
      case fault::CellHealth::Weak: out.weak_rows.push_back(p); break;
      case fault::CellHealth::Healthy: break;
    }
  }
  return out.normalized(capacity());
}

void BankedTcam::advance(double seconds) {
  for (auto& bank : banks_) bank->advance(seconds);
}

core::TcamLedger BankedTcam::total_ledger() const {
  core::TcamLedger total;
  for (const auto& bank : banks_) {
    const auto& l = bank->ledger();
    total.writes += l.writes;
    total.searches += l.searches;
    total.refreshes += l.refreshes;
    total.row_refreshes += l.row_refreshes;
    total.retention_losses += l.retention_losses;
    total.energy += l.energy;
    total.busy_time += l.busy_time;
  }
  return total;
}

}  // namespace nemtcam::arch
