#pragma once

#include <cstdint>

namespace nemtcam::linalg {

// Read only by perfbench/driver.cpp; remove at the next benchmark change.
class BbdSolver {
 public:
  struct Stats {
    std::uint64_t block_factorizations = 0;
    std::uint64_t block_refactorizations = 0;
    std::uint64_t pattern_shares = 0;
  };
  Stats stats() const noexcept { return {}; }
};

}  // namespace nemtcam::linalg
