#include "hier/Elaborate.h"

#include <atomic>
#include <cstdio>

namespace nemtcam::hier {

namespace {

std::atomic<std::uint64_t> g_instances{0};
std::atomic<std::uint64_t> g_cards{0};

bool is_ground_name(const std::string& s) {
  return s == "0" || s == "gnd" || s == "GND";
}

}  // namespace

Stats stats() {
  Stats s;
  s.instances_elaborated = g_instances.load(std::memory_order_relaxed);
  s.cards_emitted = g_cards.load(std::memory_order_relaxed);
  return s;
}

std::string substitute_params(const std::string& token, const ParamEnv& env) {
  std::string out;
  std::size_t i = 0;
  while (i < token.size()) {
    if (token[i] != '{') {
      out.push_back(token[i++]);
      continue;
    }
    const auto close = token.find('}', i + 1);
    if (close == std::string::npos)
      throw ElaborateError("unterminated '{' in token '" + token + "'");
    const std::string key = token.substr(i + 1, close - i - 1);
    const auto it = env.find(key);
    if (it == env.end())
      throw ElaborateError("unknown parameter '{" + key + "}' in token '" +
                           token + "'");
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", it->second);
    out += buf;
    i = close + 1;
  }
  return out;
}

InstanceHandles elaborate(spice::Circuit& ckt, const Library& lib,
                          const SubcktDef& def, const std::string& scope,
                          const std::vector<spice::NodeId>& port_ids,
                          const ParamEnv& env, const ElaborateOptions& opts) {
  if (port_ids.size() != def.ports.size())
    throw ElaborateError("subckt '" + def.name + "': " +
                         std::to_string(def.ports.size()) + " ports, " +
                         std::to_string(port_ids.size()) + " bindings");

  InstanceHandles out;
  out.scope = scope;
  for (std::size_t i = 0; i < def.ports.size(); ++i)
    out.nodes[def.ports[i]] = port_ids[i];

  const std::string prefix = scope.empty() ? std::string() : scope + ".";

  // Resolves a local node reference: ground stays global, ports map to the
  // caller's nodes, everything else becomes "<scope>.<local>".
  const NodeResolver resolve = [&](const std::string& local) -> spice::NodeId {
    if (is_ground_name(local)) return ckt.ground();
    const auto it = out.nodes.find(local);
    if (it != out.nodes.end()) return it->second;
    const spice::NodeId id = ckt.node(prefix + local);
    out.nodes.emplace(local, id);
    return id;
  };

  for (const Card& card : def.cards) {
    switch (card.kind) {
      case Card::Kind::Emit: {
        std::vector<spice::NodeId> ids;
        ids.reserve(card.nodes.size());
        for (const auto& ref : card.nodes) ids.push_back(resolve(ref));
        spice::Device& dev = card.fn(ckt, prefix + card.name, ids, env);
        out.devices[card.name] = &dev;
        g_cards.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      case Card::Kind::Text: {
        if (!opts.text_emitter)
          throw ElaborateError("subckt '" + def.name +
                               "' has text cards but no text emitter was "
                               "provided");
        std::vector<std::string> tokens;
        tokens.reserve(card.tokens.size());
        for (const auto& t : card.tokens)
          tokens.push_back(substitute_params(t, env));
        const TextCardRequest req{tokens, card.line_no, scope};
        spice::Device* dev = opts.text_emitter(ckt, req, resolve);
        if (dev != nullptr && !tokens.empty())
          out.devices[tokens[0]] = dev;
        g_cards.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      case Card::Kind::Sub: {
        const Instance& inst = card.sub;
        const SubcktDef* child = lib.find(inst.subckt);
        if (child == nullptr)
          throw ElaborateError("unknown subckt '" + inst.subckt +
                               "' instanced by '" + inst.name + "'");
        std::vector<spice::NodeId> child_ports;
        child_ports.reserve(inst.bindings.size());
        for (const auto& b : inst.bindings)
          child_ports.push_back(resolve(substitute_params(b, env)));
        ParamEnv child_env = child->params;
        for (const auto& [k, v] : inst.param_overrides) child_env[k] = v;
        elaborate(ckt, lib, *child, prefix + inst.name, child_ports,
                  child_env, opts);
        break;
      }
    }
  }

  g_instances.fetch_add(1, std::memory_order_relaxed);
  return out;
}

InstanceHandles elaborate(spice::Circuit& ckt, const Library& lib,
                          const Instance& inst, const ParamEnv& caller_env,
                          const std::string& parent_scope,
                          const ElaborateOptions& opts) {
  const SubcktDef* def = lib.find(inst.subckt);
  if (def == nullptr)
    throw ElaborateError("unknown subckt '" + inst.subckt +
                         "' instanced by '" + inst.name + "'");
  std::vector<spice::NodeId> port_ids;
  port_ids.reserve(inst.bindings.size());
  for (const auto& b : inst.bindings) {
    const std::string name = substitute_params(b, caller_env);
    port_ids.push_back(is_ground_name(name) ? ckt.ground() : ckt.node(name));
  }
  ParamEnv env = def->params;
  for (const auto& [k, v] : inst.param_overrides) env[k] = v;
  const std::string scope =
      parent_scope.empty() ? inst.name : parent_scope + "." + inst.name;
  return elaborate(ckt, lib, *def, scope, port_ids, env, opts);
}

}  // namespace nemtcam::hier
