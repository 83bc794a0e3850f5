// Endurance accounting for the TCAM technologies.
//
// NEM relays offer "moderate endurance" (the paper, §I): each *mechanical*
// actuation wears the contact. A key subtlety modeled here: one-shot
// refresh recharges the relay gates WITHOUT moving the beams (the whole
// point of staying inside the hysteresis window), so refreshes cost zero
// endurance — only data writes that actually flip a cell do. The NVM
// baselines wear per programming pulse instead (RRAM filament cycling,
// FeFET polarization fatigue), and SRAM is effectively unlimited.
#pragma once

#include <cstdint>
#include <vector>

#include "core/EnergyModel.h"
#include "core/Ternary.h"

namespace nemtcam::arch {

struct EnduranceSpec {
  // Rated switching cycles per cell before end-of-life.
  double rated_cycles;
  // True when refresh operations consume cycles (conventional dynamic
  // memories rewrite cells; OSR does not actuate relays).
  bool refresh_wears;
};

// Literature-typical ratings per technology.
EnduranceSpec endurance_spec(core::TcamTech tech);

class EnduranceTracker {
 public:
  EnduranceTracker(core::TcamTech tech, int rows, int width);

  // Records a word write into `row`: only bits that change state cycle
  // their cell. Returns the number of cells cycled.
  int record_write(int row, const core::TernaryWord& word);

  // Records a one-shot refresh (per the spec, may or may not wear).
  void record_one_shot_refresh();

  // Bulk wear deposit: adds `cycles` to every cell of `row` at once. The
  // lifetime engine accrues months of behavioral traffic analytically and
  // deposits the accumulated cycles here at segment boundaries instead of
  // replaying every word write.
  void add_row_cycles(int row, std::uint64_t cycles);

  // Worst (most-cycled) cell count and its fraction of the rating.
  std::uint64_t worst_cell_cycles() const;
  double worst_wear_fraction() const;
  // Estimated time to end-of-life at a sustained write rate (writes/s,
  // uniformly spread over rows), in seconds.
  double lifetime_at_write_rate(double writes_per_second) const;

  const EnduranceSpec& spec() const noexcept { return spec_; }

 private:
  EnduranceSpec spec_;
  int rows_;
  int width_;
  std::vector<std::uint64_t> cell_cycles_;  // rows × width
  std::vector<core::TernaryWord> last_;     // last written word per row
  std::vector<bool> has_last_;
};

}  // namespace nemtcam::arch
