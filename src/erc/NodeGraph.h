// Node-level view of a Circuit for static analysis.
//
// Built once per check from the devices' DeviceTopology self-descriptions:
// per-node terminal references, the full coupling adjacency (any
// DcCoupling kind — "is there a wire at all"), and the DC-conductive
// subgraph (paths that carry DC current: resistors, channels, contacts,
// voltage-defined branches). Connectivity rules and the TCAM design rules
// both query this instead of re-walking the device list.
#pragma once

#include <vector>

#include "spice/Circuit.h"

namespace nemtcam::erc {

class NodeGraph {
 public:
  explicit NodeGraph(const spice::Circuit& circuit);

  struct TerminalRef {
    const spice::Device* device;
    const char* label;  // terminal role on that device ("d", "plus", …)
    spice::DcCoupling strongest;  // strongest coupling this terminal joins
  };

  const spice::Circuit& circuit() const noexcept { return *circuit_; }
  // Node count including ground (valid NodeIds are 0 .. node_count()-1).
  int node_count() const noexcept {
    return static_cast<int>(refs_.size());
  }

  // Device terminals attached to a node.
  const std::vector<TerminalRef>& refs(spice::NodeId n) const {
    return refs_[static_cast<std::size_t>(n)];
  }

  // Devices with a DC-conductive coupling incident on node n.
  const std::vector<const spice::Device*>& conductive_devices(
      spice::NodeId n) const {
    return conductive_devs_[static_cast<std::size_t>(n)];
  }

  // Per-node flags, indexed by NodeId: reachable from `from` over
  // DC-conductive edges only.
  std::vector<char> dc_reachable(spice::NodeId from) const;

  // Connected components over any coupling; component_of[0] is ground's.
  // A component "has a source" when some independent source device
  // (topology().is_source) touches one of its nodes.
  const std::vector<int>& component_of() const noexcept {
    return component_of_;
  }
  int component_count() const noexcept { return n_components_; }
  bool component_has_source(int comp) const {
    return comp_has_source_[static_cast<std::size_t>(comp)] != 0;
  }

 private:
  std::vector<char> bfs(spice::NodeId from,
                        const std::vector<std::vector<int>>& adj) const;

  const spice::Circuit* circuit_;
  std::vector<std::vector<TerminalRef>> refs_;
  std::vector<std::vector<int>> adj_any_;   // all couplings
  std::vector<std::vector<int>> adj_dc_;    // DC-conductive couplings
  std::vector<std::vector<const spice::Device*>> conductive_devs_;
  std::vector<int> component_of_;
  std::vector<char> comp_has_source_;
  int n_components_ = 0;
};

}  // namespace nemtcam::erc
