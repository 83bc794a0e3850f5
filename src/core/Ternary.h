// Ternary logic values and words — the data model of a TCAM.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/Expect.h"

namespace nemtcam::core {

// A stored or searched ternary symbol. X is "don't care": a stored X
// matches any key bit; a key X matches any stored bit.
enum class Ternary : std::uint8_t { Zero = 0, One = 1, X = 2 };

// True when a stored symbol and a key symbol do not conflict.
constexpr bool ternary_matches(Ternary stored, Ternary key) {
  if (stored == Ternary::X || key == Ternary::X) return true;
  return stored == key;
}

char to_char(Ternary t);
Ternary ternary_from_char(char c);

// Fixed-width ternary word.
class TernaryWord {
 public:
  TernaryWord() = default;
  explicit TernaryWord(std::size_t width, Ternary fill = Ternary::Zero)
      : bits_(width, fill) {}
  // Parses e.g. "10X1"; bit 0 is the leftmost character.
  explicit TernaryWord(const std::string& text);

  static TernaryWord all_x(std::size_t width) {
    return TernaryWord(width, Ternary::X);
  }
  // From binary value, MSB first, no X bits.
  static TernaryWord from_uint(std::uint64_t value, std::size_t width);

  std::size_t size() const noexcept { return bits_.size(); }

  Ternary& operator[](std::size_t i) { return bits_[i]; }
  Ternary operator[](std::size_t i) const { return bits_[i]; }

  bool operator==(const TernaryWord& other) const = default;

  // Match semantics of one TCAM row against a search key.
  bool matches(const TernaryWord& key) const;
  // Number of conflicting bit positions (0 == match).
  std::size_t mismatch_count(const TernaryWord& key) const;
  std::size_t count_x() const;

  std::string to_string() const;

 private:
  std::vector<Ternary> bits_;
};

}  // namespace nemtcam::core
