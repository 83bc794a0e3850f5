// ERC entry point: runs the built-in rule passes plus any registered
// custom rules over a Circuit and collects a Report.
//
// The checker is purely static — it never runs a Newton iteration. It is
// meant to run once after netlist/fixture construction and before the
// first solve, so defects surface as named findings ("node 'stg1' has no
// DC-conductive path to ground") instead of a singular-matrix throw deep
// inside the solver. Every template search (tcam/ArrayTemplate.h) and
// every nemtcam_sim deck is gated on it; there is no opt-out.
#pragma once

#include <functional>
#include <vector>

#include "erc/NodeGraph.h"
#include "erc/Report.h"
#include "spice/Circuit.h"

namespace nemtcam::erc {

struct CheckerOptions {
  bool connectivity = true;  // connect.* rules
  bool dc_structure = true;  // dc.structural-singular
  bool values = true;        // value.* lint
};

class Checker {
 public:
  // A custom rule sees the circuit, the prebuilt NodeGraph, and appends
  // findings. Fixture builders register these to encode design knowledge
  // the generic passes cannot have (see erc/TcamRules.h).
  using CustomRule =
      std::function<void(spice::Circuit&, const NodeGraph&, Report&)>;

  explicit Checker(CheckerOptions options = {}) : options_(options) {}

  void add_rule(CustomRule rule) { rules_.push_back(std::move(rule)); }
  std::size_t rule_count() const noexcept { return rules_.size(); }

  // Runs every enabled pass; never throws on findings (only on internal
  // contract violations). The circuit is not modified: the structural
  // pass stamps into a private cache and device state is untouched.
  Report run(spice::Circuit& circuit) const;

 private:
  CheckerOptions options_;
  std::vector<CustomRule> rules_;
};

}  // namespace nemtcam::erc
