// Multi-bank TCAM: capacity scaling with staggered one-shot refresh and
// spare-row graceful degradation.
//
// A single 3T2N array refreshes itself in one short operation, but during
// that operation it cannot serve searches. Banking lets a large table
// stagger the banks' refresh instants so that at most one bank is ever
// blocked; a search that hits the refreshing bank simply waits the
// sub-nanosecond op. Rows are striped across banks; priorities follow the
// global row index (bank-major), so lower global indices win.
//
// Degradation: the top `spare_rows` physical rows of the global row space
// can be held back as spares. Logical rows are addressed through a remap
// table; a row reported Dead by a fault campaign or by the lifetime
// engine is retired onto the next free spare, its contents migrated, and
// the failing physical row erased so it can never match.
// When the spare pool runs dry the row stays where it is — the array
// degrades (match errors on that row) instead of failing.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "arch/RefreshController.h"
#include "core/DynamicTcam.h"
#include "fault/FaultModel.h"
#include "util/Expect.h"

namespace nemtcam::arch {

class BankedTcam {
 public:
  BankedTcam(core::TcamTech tech, int banks, int rows_per_bank, int width,
             int spare_rows = 0);

  int banks() const noexcept { return static_cast<int>(banks_.size()); }
  int rows_per_bank() const noexcept { return rows_per_bank_; }
  // Physical rows, spares included.
  int capacity() const noexcept { return banks() * rows_per_bank_; }
  // Rows addressable by write/erase/search.
  int logical_capacity() const noexcept { return logical_rows_; }
  int width() const noexcept { return width_; }
  int spare_rows_free() const noexcept { return capacity() - next_spare_; }
  int retired_rows() const noexcept { return retired_; }

  // --- Physical/logical bookkeeping (lifetime engine, refresh bridge) ---
  // Physical row a logical row currently lives on.
  int physical_row(int global_row) const { return physical_of(global_row); }
  // Logical row stored on a physical row; -1 for unused spares and
  // abandoned (retired-from) rows.
  int logical_at(int physical_row) const {
    NEMTCAM_EXPECT(physical_row >= 0 && physical_row < capacity());
    return logical_of_[static_cast<std::size_t>(physical_row)];
  }
  // True once a physical row has been retired from (its logical row was
  // remapped away). Distinct from "unused spare": both map to no logical
  // row, but a retired row is known-bad.
  bool retired_physical(int physical_row) const {
    NEMTCAM_EXPECT(physical_row >= 0 && physical_row < capacity());
    return retired_physical_[static_cast<std::size_t>(physical_row)];
  }

  // Logical global-row addressing (physical row = bank * rows_per_bank +
  // local after remapping).
  void write(int global_row, const core::TernaryWord& word);
  void erase(int global_row);

  // Parallel search across banks; logical global row indices, ascending.
  std::vector<int> search(const core::TernaryWord& key);
  std::optional<int> search_first(const core::TernaryWord& key);

  // --- Graceful degradation -------------------------------------------
  // Retires a logical row onto the next free spare, migrating any stored
  // word. Returns false when the spare pool is exhausted (the row keeps
  // its failing physical location).
  bool retire_row(int global_row);
  // Retires every row the fault report classifies Dead (rows containing a
  // stuck relay). Returns the number actually remapped.
  int apply_fault_report(const fault::FaultReport& report);

  // Bridge to the refresh controller: classifies every PHYSICAL row for
  // fault-aware refresh scheduling. Rows holding no live data (abandoned
  // retired rows and still-unused spares) go to retired_rows; live rows
  // are classified by the physical-space fault report (Dead → dead_rows,
  // Weak → weak_rows). A remapped row's spare inherits the weak period iff
  // the spare itself is degraded — health follows the physical silicon,
  // not the logical address. Result is pre-normalized over capacity().
  FaultAwareness refresh_awareness(
      const fault::FaultReport& physical_report) const;

  // Advances all banks' clocks together (staggered refreshes fire inside).
  void advance(double seconds);

  // Aggregated ledger across banks.
  core::TcamLedger total_ledger() const;

  core::DynamicTcam& bank(int i) { return *banks_.at(static_cast<std::size_t>(i)); }

 private:
  std::pair<int, int> split(int physical_row) const;
  int physical_of(int global_row) const;

  int rows_per_bank_;
  int width_;
  int logical_rows_;
  int next_spare_;   // next unused spare physical row
  int retired_ = 0;  // rows successfully remapped onto spares
  std::vector<int> remap_;       // logical → physical
  std::vector<int> logical_of_;  // physical → logical (-1 = spare/retired)
  std::vector<bool> retired_physical_;  // physical rows retired from
  std::vector<std::unique_ptr<core::DynamicTcam>> banks_;
};

}  // namespace nemtcam::arch
