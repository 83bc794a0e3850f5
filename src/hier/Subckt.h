// Hierarchical subcircuit IR.
//
// A SubcktDef is the reusable description of one cell/block: named ports,
// numeric parameters with defaults, and an ordered list of element cards.
// An Instance names a definition and binds its ports. elaborate() (see
// hier/Elaborate.h) flattens an Instance into a spice::Circuit with scoped
// node/device names ("Xrow.Xcell3.N1"), which is how the seven TCAM row
// builders and the netlist parser's .subckt/X cards share one mechanism.
//
// Cards come in three flavors:
//  * Emit  — a C++ closure that constructs exactly one typed device. The
//            row builders use these so an elaborated cell is device-for-
//            device identical to the legacy hand-assembled circuits
//            (bitwise-equal parameters, same construction order).
//  * Text  — raw netlist tokens ("N1 slb stg1 gs 0 closed") deferred to a
//            TextEmitter callback. The netlist module supplies the
//            emitter (hier deliberately does not depend on netlist), so
//            .subckt bodies reuse the full element-card grammar.
//  * Sub   — a nested Instance (hierarchy inside hierarchy).
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "spice/Circuit.h"

namespace nemtcam::hier {

// Numeric parameter environment ({name} substitution in text cards; passed
// through to emit closures).
using ParamEnv = std::map<std::string, double>;

// Constructs one device into the circuit. `name` is the fully scoped
// instance name; `nodes` are the card's node references resolved to ids in
// the card's declared order.
using EmitFn = std::function<spice::Device&(
    spice::Circuit&, const std::string& name,
    const std::vector<spice::NodeId>& nodes, const ParamEnv& params)>;

struct Instance {
  std::string name;     // "Xcell3" — becomes a scope segment when elaborated
  std::string subckt;   // definition name looked up in the Library
  // Port bindings by position: node names resolved in the *parent* scope.
  // (The tcam template path binds ports to already-resolved NodeIds via the
  // elaborate() overload instead.)
  std::vector<std::string> bindings;
  // Per-instance parameter overrides (X card "k=v" pairs).
  ParamEnv param_overrides;
};

struct Card {
  enum class Kind { Emit, Text, Sub };
  Kind kind = Kind::Emit;

  // Emit
  std::string name;                 // local device name, scoped on emit
  std::vector<std::string> nodes;   // local node references
  EmitFn fn;

  // Text
  std::vector<std::string> tokens;  // raw element-card tokens
  int line_no = 0;                  // source line for error attribution

  // Sub
  Instance sub;
};

struct SubcktDef {
  std::string name;
  std::vector<std::string> ports;
  ParamEnv params;  // defaults, overridable per instance
  std::vector<Card> cards;

  // Appends an emit card: `fn` constructs the device from the resolved
  // nodes (given here as local names: ports or cell-local nodes).
  void emit(std::string dev_name, std::vector<std::string> node_refs,
            EmitFn fn) {
    Card c;
    c.kind = Card::Kind::Emit;
    c.name = std::move(dev_name);
    c.nodes = std::move(node_refs);
    c.fn = std::move(fn);
    cards.push_back(std::move(c));
  }

  void text(std::vector<std::string> tokens, int line_no) {
    Card c;
    c.kind = Card::Kind::Text;
    c.tokens = std::move(tokens);
    c.line_no = line_no;
    cards.push_back(std::move(c));
  }

  void sub(Instance inst) {
    Card c;
    c.kind = Card::Kind::Sub;
    c.sub = std::move(inst);
    cards.push_back(std::move(c));
  }
};

// Definition store; names are unique (redefinition is an error the parser
// reports with a line number).
class Library {
 public:
  // Returns false when a definition with this name already exists.
  bool add(SubcktDef def);
  const SubcktDef* find(const std::string& name) const;

 private:
  std::map<std::string, SubcktDef> defs_;
};

}  // namespace nemtcam::hier
