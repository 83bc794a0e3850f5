#include "erc/Checker.h"

#include "erc/Rules.h"

namespace nemtcam::erc {

Report Checker::run(spice::Circuit& circuit) const {
  Report report;
  const NodeGraph graph(circuit);

  std::vector<char> attributed;
  if (options_.connectivity) {
    attributed = check_connectivity(graph, report);
  }
  if (options_.dc_structure) {
    check_dc_structure(circuit, graph, attributed, report);
  }
  if (options_.values) {
    check_values(circuit, report);
  }
  for (const auto& rule : rules_) rule(circuit, graph, report);
  return report;
}

}  // namespace nemtcam::erc
