#include "erc/NodeGraph.h"

#include <algorithm>
#include <deque>

namespace nemtcam::erc {

using spice::DcCoupling;
using spice::DeviceTopology;
using spice::NodeId;

NodeGraph::NodeGraph(const spice::Circuit& circuit) : circuit_(&circuit) {
  const std::size_t n = circuit.node_count();
  refs_.resize(n);
  adj_any_.resize(n);
  adj_dc_.resize(n);
  conductive_devs_.resize(n);

  std::vector<char> node_has_source(n, 0);
  for (const auto& dev : circuit.devices()) {
    const DeviceTopology topo = dev->topology();
    // Strongest coupling per terminal (Conductive > Capacitive > Open):
    // the dangling rule downgrades a stub that only couples capacitively.
    std::vector<DcCoupling> strongest(topo.terminals.size(),
                                      DcCoupling::Open);
    for (const auto& c : topo.couplings) {
      for (int t : {c.a, c.b}) {
        auto& s = strongest[static_cast<std::size_t>(t)];
        if (c.kind == DcCoupling::Conductive ||
            (c.kind == DcCoupling::Capacitive && s == DcCoupling::Open))
          s = c.kind;
      }
    }
    for (std::size_t t = 0; t < topo.terminals.size(); ++t) {
      const auto& term = topo.terminals[t];
      refs_[static_cast<std::size_t>(term.node)].push_back(
          {dev.get(), term.label, strongest[t]});
      if (topo.is_source)
        node_has_source[static_cast<std::size_t>(term.node)] = 1;
    }
    for (const auto& c : topo.couplings) {
      const NodeId a = topo.terminals[static_cast<std::size_t>(c.a)].node;
      const NodeId b = topo.terminals[static_cast<std::size_t>(c.b)].node;
      if (a == b) continue;
      adj_any_[static_cast<std::size_t>(a)].push_back(b);
      adj_any_[static_cast<std::size_t>(b)].push_back(a);
      if (c.kind == DcCoupling::Conductive) {
        adj_dc_[static_cast<std::size_t>(a)].push_back(b);
        adj_dc_[static_cast<std::size_t>(b)].push_back(a);
        conductive_devs_[static_cast<std::size_t>(a)].push_back(dev.get());
        conductive_devs_[static_cast<std::size_t>(b)].push_back(dev.get());
      }
    }
  }

  // Components over any coupling.
  component_of_.assign(n, -1);
  for (std::size_t seed = 0; seed < n; ++seed) {
    if (component_of_[seed] >= 0) continue;
    const int comp = n_components_++;
    std::deque<std::size_t> frontier{seed};
    component_of_[seed] = comp;
    while (!frontier.empty()) {
      const std::size_t u = frontier.front();
      frontier.pop_front();
      for (int v : adj_any_[u]) {
        if (component_of_[static_cast<std::size_t>(v)] < 0) {
          component_of_[static_cast<std::size_t>(v)] = comp;
          frontier.push_back(static_cast<std::size_t>(v));
        }
      }
    }
  }
  comp_has_source_.assign(static_cast<std::size_t>(n_components_), 0);
  for (std::size_t i = 0; i < n; ++i)
    if (node_has_source[i])
      comp_has_source_[static_cast<std::size_t>(component_of_[i])] = 1;
}

std::vector<char> NodeGraph::bfs(
    NodeId from, const std::vector<std::vector<int>>& adj) const {
  std::vector<char> seen(adj.size(), 0);
  std::deque<NodeId> frontier{from};
  seen[static_cast<std::size_t>(from)] = 1;
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop_front();
    for (int v : adj[static_cast<std::size_t>(u)]) {
      if (!seen[static_cast<std::size_t>(v)]) {
        seen[static_cast<std::size_t>(v)] = 1;
        frontier.push_back(v);
      }
    }
  }
  return seen;
}

std::vector<char> NodeGraph::dc_reachable(NodeId from) const {
  return bfs(from, adj_dc_);
}

}  // namespace nemtcam::erc
