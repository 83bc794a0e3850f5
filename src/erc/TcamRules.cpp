#include "erc/TcamRules.h"

#include <algorithm>
#include <sstream>

#include "devices/NemRelay.h"

namespace nemtcam::erc {

using core::Ternary;
using devices::NemRelay;
using spice::NodeId;

Checker::CustomRule ml_precharge_rule(spice::NodeId ml, spice::NodeId vdd) {
  return [ml, vdd](spice::Circuit& ckt, const NodeGraph& graph,
                   Report& report) {
    if (graph.dc_reachable(ml)[static_cast<std::size_t>(vdd)]) return;
    Finding f;
    f.rule = "tcam.ml-precharge";
    f.severity = Severity::Error;
    f.nodes = {ckt.node_name(ml), ckt.node_name(vdd)};
    f.message = "matchline '" + ckt.node_name(ml) +
                "' has no DC-conductive precharge path to the VDD rail '" +
                ckt.node_name(vdd) + "'";
    f.hint = "the precharge PMOS is missing or miswired; the ML can never "
             "be charged before evaluate";
    report.add(std::move(f));
  };
}

Checker::CustomRule ml_fanin_rule(spice::NodeId ml, spice::NodeId vdd,
                                  int expected) {
  return [ml, vdd, expected](spice::Circuit& ckt, const NodeGraph& graph,
                             Report& report) {
    // Unique conductive devices on the ML that are not part of the
    // precharge path (i.e. not also conductively on VDD).
    const auto& on_vdd = graph.conductive_devices(vdd);
    std::vector<const spice::Device*> cells;
    for (const spice::Device* dev : graph.conductive_devices(ml)) {
      if (std::find(on_vdd.begin(), on_vdd.end(), dev) != on_vdd.end())
        continue;
      if (std::find(cells.begin(), cells.end(), dev) != cells.end())
        continue;
      cells.push_back(dev);
    }
    if (static_cast<int>(cells.size()) == expected) return;
    Finding f;
    f.rule = "tcam.ml-fanin";
    f.severity = Severity::Warning;
    f.nodes = {ckt.node_name(ml)};
    for (const spice::Device* dev : cells) f.devices.push_back(dev->name());
    std::ostringstream msg;
    msg << "matchline '" << ckt.node_name(ml) << "' is loaded by "
        << cells.size() << " discharge device(s), expected " << expected;
    f.message = msg.str();
    f.hint = "a cell's discharge transistor is missing or doubled — check "
             "the row tiling width";
    report.add(std::move(f));
  };
}

Checker::CustomRule nem_pair_rule(core::TernaryWord word, RelayNamer n1_namer,
                                  RelayNamer n2_namer) {
  return [word = std::move(word), n1_namer = std::move(n1_namer),
          n2_namer = std::move(n2_namer)](spice::Circuit& ckt,
                                          const NodeGraph&,
                                          Report& report) {
    for (std::size_t col = 0; col < word.size(); ++col) {
      const std::string n1_name = n1_namer(col);
      const std::string n2_name = n2_namer(col);
      const auto* n1 = dynamic_cast<const NemRelay*>(ckt.find(n1_name));
      const auto* n2 = dynamic_cast<const NemRelay*>(ckt.find(n2_name));
      if (n1 == nullptr || n2 == nullptr) {
        Finding f;
        f.rule = "tcam.relay-pair";
        f.severity = Severity::Error;
        f.devices = {n1 ? n1->name() : n1_name, n2 ? n2->name() : n2_name};
        f.message = "cell " + std::to_string(col) +
                    " is missing a relay of its complementary pair ('" +
                    n1_name + "'/'" + n2_name + "')";
        f.hint = "the row is mis-tiled; every cell needs both relays";
        report.add(std::move(f));
        continue;
      }
      // Injected mechanical faults are deliberate, not netlist bugs.
      if (n1->stuck() || n2->stuck()) continue;
      const Ternary stored = word[col];
      const bool want1 = stored == Ternary::One;   // S
      const bool want2 = stored == Ternary::Zero;  // S̄
      if (n1->contact() == want1 && n2->contact() == want2) continue;
      Finding f;
      f.severity = Severity::Error;
      f.devices = {n1->name(), n2->name()};
      const auto state = [](const NemRelay* r) {
        return r->contact() ? "closed" : "open";
      };
      if (stored == Ternary::X) {
        f.rule = "tcam.x-encoding";
        f.message = "cell " + std::to_string(col) +
                    " stores don't-care but its relay pair is (" +
                    state(n1) + ", " + state(n2) +
                    "); X must be encoded OFF/OFF so neither key polarity "
                    "discharges the matchline";
        f.hint = "open both relays of the pair for a stored X";
      } else {
        f.rule = "tcam.relay-pair";
        f.message =
            "cell " + std::to_string(col) + " stores " +
            std::string(1, core::to_char(stored)) +
            " but its relay pair is (" + state(n1) + ", " + state(n2) +
            "); expected (" + (want1 ? "closed" : "open") + ", " +
            (want2 ? "closed" : "open") + ")";
        f.hint = want1 == want2
                     ? "both relays closed shorts SL to SLB through the "
                       "cell — rewrite the cell"
                     : "the stored bit and the mechanical state disagree — "
                       "rewrite the cell before searching";
      }
      report.add(std::move(f));
    }
  };
}

Checker::CustomRule relay_refresh_window_rule(double v_refresh) {
  return [v_refresh](spice::Circuit& ckt, const NodeGraph&, Report& report) {
    for (const auto& dev : ckt.devices()) {
      const auto* relay = dynamic_cast<const NemRelay*>(dev.get());
      if (relay == nullptr) continue;
      const auto& p = relay->params();
      if (p.v_po < v_refresh && v_refresh < p.v_pi) continue;
      Finding f;
      f.rule = "tcam.refresh-window";
      f.severity = Severity::Error;
      f.devices = {relay->name()};
      std::ostringstream msg;
      msg << "refresh level V_R = " << v_refresh
          << " V is outside relay '" << relay->name()
          << "' hysteresis window (V_PO = " << p.v_po
          << " V, V_PI = " << p.v_pi << " V)";
      f.message = msg.str();
      f.hint = "one-shot refresh holds state only for V_PO < V_R < V_PI; "
               "V_R >= V_PI pulls every relay in, V_R <= V_PO drops every "
               "closed relay out";
      report.add(std::move(f));
    }
  };
}

}  // namespace nemtcam::erc
