// Elaboration: flattens a hier::Instance into a spice::Circuit.
//
// Name scoping rules (section 9 of DESIGN.md):
//  * the instance contributes one scope segment; nested scopes join with
//    '.' — "Xrow.Xcell3"
//  * a node reference inside a subckt body resolves, in order, to ground
//    ("0"/"gnd"/"GND" stay global), a port (bound to the parent's node),
//    or a cell-local node named "<scope>.<local>"
//  * devices are named "<scope>.<local-card-name>" — this is the
//    hierarchical instance path ERC findings and the fault injector see.
//
// The template-cache contract: elaborate once, replay many. After the
// first transaction the caller rebinds source waveforms
// (Circuit::rebind_source) and re-seeds device state through the returned
// InstanceHandles; neither bumps the topology revision, so the CSR stamp
// pattern and symbolic LU recorded by the AssemblyCache survive across
// transactions. stats() counts elaborations so tests can assert that a
// replayed search reconstructs nothing.
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "hier/Subckt.h"

namespace nemtcam::hier {

struct ElaborateError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// What an instantiation hands back for later rebinding: the scope prefix
// plus local-name → device / local-name → node maps (ports included).
struct InstanceHandles {
  std::string scope;
  std::unordered_map<std::string, spice::Device*> devices;
  std::unordered_map<std::string, spice::NodeId> nodes;

  spice::Device* device(const std::string& local) const {
    const auto it = devices.find(local);
    return it == devices.end() ? nullptr : it->second;
  }
  spice::NodeId node_at(const std::string& local) const {
    const auto it = nodes.find(local);
    if (it == nodes.end())
      throw ElaborateError("no node '" + local + "' in instance " + scope);
    return it->second;
  }
};

// Emits one text card into the circuit. Supplied by the netlist module
// (which owns the element grammar); receives the resolved node ids in the
// same positions a NodeResolver was asked for them. Throws on bad cards.
struct TextCardRequest {
  const std::vector<std::string>& tokens;  // post {param}-substitution
  int line_no;
  const std::string& scope;  // device-name prefix ("" at top level)
};
using NodeResolver = std::function<spice::NodeId(const std::string&)>;
using TextEmitter =
    std::function<spice::Device*(spice::Circuit&, const TextCardRequest&,
                                 const NodeResolver&)>;

struct ElaborateOptions {
  // Required when any card (at any depth) is a Text card.
  TextEmitter text_emitter;
};

// Flattens `def` into `ckt` under `scope` ("" elaborates into the global
// namespace) with its ports pre-resolved to `port_ids` (positional, must
// match def.ports.size()). `env` is the effective parameter environment.
InstanceHandles elaborate(spice::Circuit& ckt, const Library& lib,
                          const SubcktDef& def, const std::string& scope,
                          const std::vector<spice::NodeId>& port_ids,
                          const ParamEnv& env = {},
                          const ElaborateOptions& opts = {});

// Flattens `inst` resolving its string bindings in the parent scope (top
// level: global node names). Parameter resolution: def defaults, then
// inst.param_overrides, then `caller_env` entries referenced by override
// values have already been substituted by the parser.
InstanceHandles elaborate(spice::Circuit& ckt, const Library& lib,
                          const Instance& inst, const ParamEnv& caller_env = {},
                          const std::string& parent_scope = "",
                          const ElaborateOptions& opts = {});

// Substitutes "{name}" occurrences from env; unknown names throw.
std::string substitute_params(const std::string& token, const ParamEnv& env);

// Process-wide elaboration counters (monotonic; for the zero-
// reconstruction assertions and the bench report).
struct Stats {
  std::uint64_t instances_elaborated = 0;  // every scope, nested included
  std::uint64_t cards_emitted = 0;         // devices constructed
};
Stats stats();

}  // namespace nemtcam::hier
