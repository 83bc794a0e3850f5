// 128-bit streaming digest of a sequence of 64-bit words, for telling two
// states apart without keeping either: two independent lanes, each folding
// every word in and passing the result through a splitmix64-style
// bijective mixer. Doubles go in by bit pattern, so the digest is exact
// about them (−0.0 and 0.0 differ). Not cryptographic: it guards against
// accidental equality, not against a crafted collision.
#pragma once

#include <bit>
#include <cstdint>

namespace nemtcam::util {

class Digest128 {
 public:
  void add(std::uint64_t word) noexcept {
    a_ = mix(a_ ^ word);
    b_ = mix(b_ + word * 0xd6e8feb86659fd93ull + 0x9e3779b97f4a7c15ull);
  }
  void add(double x) noexcept { add(std::bit_cast<std::uint64_t>(x)); }

  bool operator==(const Digest128&) const = default;

 private:
  static std::uint64_t mix(std::uint64_t z) noexcept {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  std::uint64_t a_ = 0x243f6a8885a308d3ull;
  std::uint64_t b_ = 0x13198a2e03707344ull;
};

}  // namespace nemtcam::util
