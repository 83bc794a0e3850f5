#include "arch/Endurance.h"

#include <algorithm>

#include "util/Expect.h"

namespace nemtcam::arch {

using core::TcamTech;
using core::Ternary;
using core::TernaryWord;

EnduranceSpec endurance_spec(TcamTech tech) {
  switch (tech) {
    case TcamTech::Sram16T:
      return {1e16, false};  // effectively unlimited
    case TcamTech::Nem3T2N:
      // Moderate mechanical endurance; OSR does not actuate the beams.
      return {1e10, false};
    case TcamTech::Rram2T2R:
      return {1e7, false};   // filamentary cycling
    case TcamTech::Fefet2F:
      return {1e9, false};   // polarization fatigue (paper §I: endurance
                             // limits fast high-voltage FeFET writes)
  }
  NEMTCAM_EXPECT_MSG(false, "unknown TcamTech");
  return {};
}

EnduranceTracker::EnduranceTracker(TcamTech tech, int rows, int width)
    : spec_(endurance_spec(tech)), rows_(rows), width_(width),
      cell_cycles_(static_cast<std::size_t>(rows) * width, 0),
      last_(static_cast<std::size_t>(rows),
            TernaryWord(static_cast<std::size_t>(width))),
      has_last_(static_cast<std::size_t>(rows), false) {
  NEMTCAM_EXPECT(rows >= 1 && width >= 1);
}

int EnduranceTracker::record_write(int row, const TernaryWord& word) {
  NEMTCAM_EXPECT(row >= 0 && row < rows_);
  NEMTCAM_EXPECT(static_cast<int>(word.size()) == width_);
  const auto r = static_cast<std::size_t>(row);
  int cycled = 0;
  for (int b = 0; b < width_; ++b) {
    const auto idx = r * static_cast<std::size_t>(width_) +
                     static_cast<std::size_t>(b);
    const bool changed =
        !has_last_[r] || last_[r][static_cast<std::size_t>(b)] !=
                             word[static_cast<std::size_t>(b)];
    if (changed) {
      ++cell_cycles_[idx];
      ++cycled;
    }
  }
  last_[r] = word;
  has_last_[r] = true;
  return cycled;
}

void EnduranceTracker::record_one_shot_refresh() {
  if (!spec_.refresh_wears) return;
  for (auto& c : cell_cycles_) ++c;
}

void EnduranceTracker::add_row_cycles(int row, std::uint64_t cycles) {
  NEMTCAM_EXPECT(row >= 0 && row < rows_);
  const auto r = static_cast<std::size_t>(row);
  for (int b = 0; b < width_; ++b)
    cell_cycles_[r * static_cast<std::size_t>(width_) +
                 static_cast<std::size_t>(b)] += cycles;
}

std::uint64_t EnduranceTracker::worst_cell_cycles() const {
  return *std::max_element(cell_cycles_.begin(), cell_cycles_.end());
}

double EnduranceTracker::worst_wear_fraction() const {
  return static_cast<double>(worst_cell_cycles()) / spec_.rated_cycles;
}

double EnduranceTracker::lifetime_at_write_rate(double writes_per_second) const {
  NEMTCAM_EXPECT(writes_per_second > 0.0);
  // Uniform spread over rows; worst case every bit flips on every write.
  const double cell_cycles_per_second = writes_per_second / rows_;
  return spec_.rated_cycles / cell_cycles_per_second;
}

}  // namespace nemtcam::arch
