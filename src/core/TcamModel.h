// Behavioral (functional) TCAM array model.
//
// This is the fast golden model the circuit-level rows are checked against,
// and the substrate the architecture layer (routers, classifiers, caches)
// builds on. Semantics follow Fig. 1: every valid row is compared against
// the key in parallel; a row matches when no bit conflicts (stored X and
// key X are wildcards).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/Ternary.h"

namespace nemtcam::core {

class TcamModel {
 public:
  TcamModel(int rows, int width);

  int rows() const noexcept { return rows_; }

  // Writes a word into a row and marks it valid.
  void write(int row, const TernaryWord& word);
  // Invalidates a row (it matches nothing).
  void erase(int row);
  bool valid(int row) const;
  const TernaryWord& read(int row) const;

  // All matching row indices, ascending.
  std::vector<int> search(const TernaryWord& key) const;
  // Highest-priority (lowest index) match, or nullopt.
  std::optional<int> search_first(const TernaryWord& key) const;

  // First invalid row, or nullopt when full.
  std::optional<int> find_free_row() const;
  int valid_count() const;

 private:
  void check_row(int row) const;

  int rows_;
  int width_;
  std::vector<TernaryWord> words_;
  std::vector<bool> valid_;
};

}  // namespace nemtcam::core
