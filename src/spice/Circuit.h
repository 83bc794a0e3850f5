// Netlist container: named nodes, devices, branch bookkeeping, initial
// conditions.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "spice/AssemblyCache.h"
#include "spice/Device.h"
#include "spice/Types.h"
#include "util/Digest.h"

namespace nemtcam::spice {

class Circuit {
 public:
  Circuit() = default;

  // Returns the node with the given name, creating it on first use.
  // The name "0" and "gnd" map to ground.
  NodeId node(const std::string& name);

  // Creates an anonymous node (named "_n<k>").
  NodeId make_node();

  NodeId ground() const noexcept { return kGround; }

  // Constructs a device in place; branch unknowns are assigned here.
  template <typename D, typename... Args>
  D& add(Args&&... args) {
    auto dev = std::make_unique<D>(std::forward<Args>(args)...);
    D& ref = *dev;
    if (dev->branch_count() > 0) {
      dev->set_first_branch(n_branches_);
      n_branches_ += dev->branch_count();
    }
    devices_.push_back(std::move(dev));
    ++topology_rev_;
    return ref;
  }

  // Number of nodes including ground.
  std::size_t node_count() const noexcept { return names_.size() + 1; }
  int node_unknowns() const noexcept { return static_cast<int>(names_.size()); }
  int unknown_count() const noexcept { return node_unknowns() + n_branches_; }

  const std::vector<std::unique_ptr<Device>>& devices() const noexcept {
    return devices_;
  }

  // First device with the given instance name, or nullptr.
  Device* find(const std::string& name);

  // True when a node with this name already exists (without creating it);
  // "0"/"gnd"/"GND" always exist as ground.
  bool has_node(const std::string& name) const;

  // Replaces the drive waveform of the named source device in place (see
  // Device::rebind_wave). Returns false when no device has that name or
  // the device is not a source. Does not bump the topology revision, so
  // the cached stamp pattern and symbolic LU survive — this is the
  // transaction-replay fast path used by the hier template cache.
  bool rebind_source(const std::string& name, std::unique_ptr<Waveform> wave);

  // Calls reset_state() on every device: clears per-run scratch so the
  // same elaborated circuit can run another transaction from t = 0.
  void reset_device_states();

  // Every device's dynamic state (Device.h), in device order: appended to
  // `out`, or loaded back from a vector save_device_states filled.
  void save_device_states(std::vector<double>& out) const;
  void load_device_states(const std::vector<double>& states);

  // Digest of the state a transient from the initial conditions starts
  // in: the device and unknown counts, every device's parameters and
  // dynamic state, and the initial conditions. Drive waveforms are not in
  // it (Device.h).
  util::Digest128 state_digest() const;

  // Name of a node id ("0" for ground).
  const std::string& node_name(NodeId n) const;

  // Initial condition for a node (used by transient-from-IC; unset nodes
  // start at 0 V).
  void set_ic(NodeId n, double volts);
  const std::map<NodeId, double>& ics() const noexcept { return ics_; }

  // Builds the initial unknown vector from ICs (branch currents start at 0).
  std::vector<double> initial_state() const;

  // Solver-owned assembly/factorization scratch (see AssemblyCache). Kept
  // on the circuit so the fixed stamp pattern and symbolic LU survive
  // across Newton solves and transient steps. Invalidated automatically
  // when the topology changed since the last call. One cache per circuit
  // means a circuit must not be solved from two threads at once — sweep
  // parallelism runs one circuit per trial, never one circuit on many
  // threads.
  AssemblyCache& solver_cache() {
    if (cache_rev_ != topology_rev_) {
      solver_cache_.invalidate();
      cache_rev_ = topology_rev_;
    }
    return solver_cache_;
  }

 private:
  std::unordered_map<std::string, NodeId> name_to_id_;
  std::vector<std::string> names_;  // names_[i] is node id i+1
  std::vector<std::unique_ptr<Device>> devices_;
  int n_branches_ = 0;
  int anon_counter_ = 0;
  std::map<NodeId, double> ics_;
  // Bumped whenever a device is added; lets the solver cache detect that
  // its recorded stamp pattern belongs to an older topology.
  std::uint64_t topology_rev_ = 0;
  std::uint64_t cache_rev_ = 0;
  AssemblyCache solver_cache_;
};

}  // namespace nemtcam::spice
