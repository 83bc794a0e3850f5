#include "erc/Rules.h"

#include <sstream>

#include "devices/Controlled.h"
#include "devices/Diode.h"
#include "devices/Fefet.h"
#include "devices/Inductor.h"
#include "devices/Mosfet.h"
#include "devices/Mtj.h"
#include "devices/NemRelay.h"
#include "devices/Passive.h"
#include "devices/Rram.h"
#include "devices/Sources.h"
#include "devices/Switch.h"
#include "spice/Newton.h"

namespace nemtcam::erc {

using spice::Circuit;
using spice::DcCoupling;
using spice::Device;
using spice::NodeId;

namespace {

// Comma-joined device names attached to a node (for messages).
std::string attached_names(const NodeGraph& graph, NodeId n,
                           std::vector<std::string>* devices_out = nullptr) {
  std::ostringstream out;
  bool first = true;
  for (const auto& ref : graph.refs(n)) {
    if (!first) out << ", ";
    out << ref.device->name();
    if (devices_out) devices_out->push_back(ref.device->name());
    first = false;
  }
  return out.str();
}

}  // namespace

std::vector<char> check_connectivity(const NodeGraph& graph, Report& report) {
  const Circuit& ckt = graph.circuit();
  const int n = graph.node_count();
  std::vector<char> attributed(static_cast<std::size_t>(n), 0);

  // Islands first: one finding per ground-less, source-less component
  // instead of a per-node storm.
  const auto& comp = graph.component_of();
  const int ground_comp = comp[0];
  std::vector<std::vector<NodeId>> comp_nodes(
      static_cast<std::size_t>(graph.component_count()));
  for (NodeId v = 1; v < n; ++v)
    comp_nodes[static_cast<std::size_t>(comp[static_cast<std::size_t>(v)])]
        .push_back(v);
  for (int c = 0; c < graph.component_count(); ++c) {
    if (c == ground_comp || graph.component_has_source(c)) continue;
    const auto& nodes = comp_nodes[static_cast<std::size_t>(c)];
    if (nodes.empty()) continue;
    Finding f;
    f.rule = "connect.island";
    f.severity = Severity::Error;
    std::ostringstream msg;
    msg << "nodes ";
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (i) msg << ", ";
      msg << "'" << ckt.node_name(nodes[i]) << "'";
      f.nodes.push_back(ckt.node_name(nodes[i]));
      attributed[static_cast<std::size_t>(nodes[i])] = 1;
    }
    msg << " form an island with no path to ground or any source";
    for (const NodeId v : nodes) attached_names(graph, v, &f.devices);
    f.message = msg.str();
    f.hint = "connect the island to the rest of the circuit or remove it";
    report.add(std::move(f));
  }

  // Dangling terminals: a node touched by exactly one device terminal.
  for (NodeId v = 1; v < n; ++v) {
    if (attributed[static_cast<std::size_t>(v)]) continue;
    const auto& refs = graph.refs(v);
    if (refs.size() != 1) continue;
    const auto& ref = refs.front();
    Finding f;
    f.rule = "connect.dangling";
    f.severity = Severity::Error;
    f.nodes.push_back(ckt.node_name(v));
    f.devices.push_back(ref.device->name());
    f.message = "terminal '" + std::string(ref.label) + "' of device '" +
                ref.device->name() + "' dangles on node '" +
                ckt.node_name(v) + "' that nothing else touches";
    f.hint = "wire the terminal to its intended node or tie it off";
    attributed[static_cast<std::size_t>(v)] = 1;
    report.add(std::move(f));
  }

  // No DC path to ground: conductive-only reachability from node 0.
  const std::vector<char> dc_ok = graph.dc_reachable(ckt.ground());
  for (NodeId v = 1; v < n; ++v) {
    if (attributed[static_cast<std::size_t>(v)] ||
        dc_ok[static_cast<std::size_t>(v)])
      continue;
    Finding f;
    f.rule = "connect.no-dc-path";
    f.severity = Severity::Error;
    f.nodes.push_back(ckt.node_name(v));
    f.message = "node '" + ckt.node_name(v) +
                "' has no DC-conductive path to ground (touched by " +
                attached_names(graph, v, &f.devices) + ")";
    f.hint =
        "add a DC leak path (resistor/bleeder) or drive the node; "
        "capacitors and MOS gates are open at DC";
    attributed[static_cast<std::size_t>(v)] = 1;
    report.add(std::move(f));
  }

  return attributed;
}

void check_dc_structure(Circuit& circuit, const NodeGraph& graph,
                        const std::vector<char>& already_attributed,
                        Report& report) {
  const int n_node = circuit.node_unknowns();
  for (const int u : spice::dc_undetermined_unknowns(circuit)) {
    Finding f;
    f.rule = "dc.structural-singular";
    f.severity = Severity::Error;
    if (u < n_node) {
      const NodeId node = static_cast<NodeId>(u + 1);
      if (static_cast<std::size_t>(node) < already_attributed.size() &&
          already_attributed[static_cast<std::size_t>(node)])
        continue;  // connectivity pass already named this node
      f.nodes.push_back(circuit.node_name(node));
      f.message = "node '" + circuit.node_name(node) +
                  "' is structurally undetermined at DC (touched by " +
                  attached_names(graph, node, &f.devices) +
                  "): the MNA matrix is singular for every value assignment";
    } else {
      const Device* owner = spice::branch_owner(circuit, u - n_node);
      f.devices.push_back(owner ? owner->name() : "?");
      f.message = "branch current of device '" + f.devices.back() +
                  "' is structurally undetermined at DC";
    }
    f.hint =
        "likely a capacitor-only cut set or a sense-only node; add a DC "
        "path or rely on gmin only deliberately";
    report.add(std::move(f));
  }
}

void check_values(const Circuit& circuit, Report& report) {
  using namespace nemtcam::devices;

  const auto add = [&report](const Device& dev, const char* rule,
                             Severity sev, std::string msg,
                             std::string hint) {
    Finding f;
    f.rule = rule;
    f.severity = sev;
    f.devices.push_back(dev.name());
    f.message = "device '" + dev.name() + "': " + std::move(msg);
    f.hint = std::move(hint);
    report.add(std::move(f));
  };

  for (const auto& dev : circuit.devices()) {
    const Device* d = dev.get();
    if (const auto* r = dynamic_cast<const Resistor*>(d)) {
      if (!(r->resistance() > 0.0))
        add(*d, "value.nonpositive-r", Severity::Error,
            "non-positive resistance", "resistance must be > 0");
    } else if (const auto* c = dynamic_cast<const Capacitor*>(d)) {
      if (!(c->capacitance() > 0.0))
        add(*d, "value.nonpositive-c", Severity::Error,
            "non-positive capacitance", "capacitance must be > 0");
    } else if (const auto* l = dynamic_cast<const Inductor*>(d)) {
      if (!(l->inductance() > 0.0))
        add(*d, "value.nonpositive-l", Severity::Error,
            "non-positive inductance", "inductance must be > 0");
    } else if (const auto* di = dynamic_cast<const Diode*>(d)) {
      if (!(di->params().i_sat > 0.0) || !(di->params().n_ideality > 0.0))
        add(*d, "value.diode-params", Severity::Error,
            "non-positive saturation current or ideality factor",
            "is and n must be > 0");
    } else if (const auto* sw = dynamic_cast<const Switch*>(d)) {
      if (!(sw->r_on() > 0.0) || sw->r_off() < sw->r_on())
        add(*d, "value.switch-params", Severity::Error,
            "r_on must be positive and r_off >= r_on",
            "check ron=/roff= values");
    } else if (const auto* m = dynamic_cast<const Mosfet*>(d)) {
      const auto& p = m->params();
      if (!(p.kp > 0.0) || !(p.n_slope > 0.0) || !(p.vth > 0.0))
        add(*d, "value.mosfet-params", Severity::Error,
            "non-positive kp, subthreshold slope, or |Vth|",
            "kp, n and vth must be > 0");
    } else if (const auto* nr = dynamic_cast<const NemRelay*>(d)) {
      const auto& p = nr->params();
      if (p.v_po >= p.v_pi)
        add(*d, "value.hysteresis-inverted", Severity::Error,
            "pull-out voltage V_PO >= pull-in voltage V_PI — the hysteresis "
            "window is inverted and the stored state cannot be held",
            "require V_PO < V_PI (paper: 0.13 V < 0.53 V)");
      if (!(p.r_on > 0.0) || p.g_off < 0.0 || !(p.tau_mech > 0.0) ||
          !(p.c_on > 0.0) || !(p.c_off > 0.0))
        add(*d, "value.relay-params", Severity::Error,
            "non-physical contact/mechanical parameters",
            "r_on, tau_mech, C_on, C_off must be > 0 and g_off >= 0");
      if (p.z_critical <= 0.0 || p.z_critical > 1.0)
        add(*d, "value.relay-params", Severity::Warning,
            "pull-in instability point z_critical outside (0, 1]",
            "classical electrostatic pull-in limit is 1/3");
    } else if (const auto* rr = dynamic_cast<const Rram*>(d)) {
      const auto& p = rr->params();
      if (!(p.r_on > 0.0) || p.r_off <= p.r_on)
        add(*d, "value.rram-window", Severity::Error,
            "resistance window inverted (R_OFF <= R_ON)",
            "require R_OFF > R_ON > 0");
      else if (p.v_set < p.vth_set || p.v_reset < p.vth_reset)
        add(*d, "value.rram-drive", Severity::Warning,
            "nominal write drive below the motion threshold — the device "
            "can never complete a transition",
            "raise v_set/v_reset above vth_set/vth_reset");
    } else if (const auto* fe = dynamic_cast<const Fefet*>(d)) {
      const auto& p = fe->params();
      if (p.vth_high <= p.vth_low)
        add(*d, "value.fefet-window", Severity::Error,
            "memory window inverted (vth_high <= vth_low)",
            "require vth_high > vth_low");
      else if (p.v_write < p.v_coercive)
        add(*d, "value.fefet-drive", Severity::Warning,
            "write drive below the coercive voltage — polarization cannot "
            "move",
            "raise v_write above v_coercive");
    } else if (const auto* mtj = dynamic_cast<const Mtj*>(d)) {
      const auto& p = mtj->params();
      if (!(p.r_parallel > 0.0) || p.r_antiparallel <= p.r_parallel)
        add(*d, "value.mtj-window", Severity::Error,
            "TMR window inverted (R_AP <= R_P)", "require R_AP > R_P > 0");
    }
  }
}

}  // namespace nemtcam::erc
