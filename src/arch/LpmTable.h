// Longest-prefix-match IPv4 forwarding table on a ternary CAM.
//
// The classic TCAM application (paper ref [1]): each route prefix becomes
// one TCAM entry with the host bits stored as don't-care, entries are kept
// sorted by descending prefix length so the priority encoder's first match
// IS the longest match.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/DynamicTcam.h"

namespace nemtcam::arch {

struct Route {
  std::uint32_t prefix = 0;   // network byte-order-free host integer
  int length = 0;             // prefix length 0..32
  std::uint32_t next_hop = 0; // opaque next-hop id
};

// Parses dotted-quad "a.b.c.d" into a host integer; throws on bad input.
std::uint32_t parse_ipv4(const std::string& dotted);
std::string format_ipv4(std::uint32_t addr);

class LpmTable {
 public:
  // capacity: number of TCAM rows.
  LpmTable(int capacity, core::TcamTech tech = core::TcamTech::Nem3T2N);

  // Inserts (or replaces) a route. Keeps entries ordered by descending
  // prefix length. Returns false when the table is full.
  bool insert(const Route& route);
  // Removes an exact prefix/length; returns false if absent.
  bool remove(std::uint32_t prefix, int length);

  // Longest-prefix lookup. nullopt when no route covers the address.
  std::optional<Route> lookup(std::uint32_t addr);

  int size() const noexcept { return static_cast<int>(routes_.size()); }
  int capacity() const noexcept { return tcam_.rows(); }

  // Operation ledger of the underlying dynamic TCAM (energy, refreshes…).
  const core::TcamLedger& ledger() const { return tcam_.ledger(); }

 private:
  static core::TernaryWord key_of(std::uint32_t addr);
  static core::TernaryWord word_of(const Route& r);
  void rebuild_rows(std::size_t from_index);

  core::DynamicTcam tcam_;
  std::vector<Route> routes_;  // sorted by descending length, stable
};

}  // namespace nemtcam::arch
