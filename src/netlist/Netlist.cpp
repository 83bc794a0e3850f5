#include "netlist/Netlist.h"

#include <algorithm>
#include <cctype>
#include <functional>
#include <map>
#include <sstream>

#include "devices/Controlled.h"
#include "devices/Diode.h"
#include "devices/Fefet.h"
#include "devices/Inductor.h"
#include "devices/Mosfet.h"
#include "devices/NemRelay.h"
#include "devices/Passive.h"
#include "devices/Rram.h"
#include "devices/Sources.h"
#include "devices/Switch.h"
#include "hier/Elaborate.h"
#include "spice/Waveform.h"

namespace nemtcam::spice {

namespace {

using namespace nemtcam::devices;

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

[[noreturn]] void fail(int line, const std::string& msg) {
  throw NetlistError("netlist line " + std::to_string(line) + ": " + msg);
}

// Splits a line into tokens; treats '(', ')' and ',' as separators so both
// "PULSE(0 1 1n ...)" and "PULSE(0,1,1n,...)" tokenize uniformly. The
// function-name token (pulse/pwl/sin) is kept.
std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> out;
  std::string cur;
  for (char ch : line) {
    if (std::isspace(static_cast<unsigned char>(ch)) || ch == '(' ||
        ch == ')' || ch == ',') {
      if (!cur.empty()) {
        out.push_back(cur);
        cur.clear();
      }
    } else {
      cur.push_back(ch);
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

// Parses "key=value" into {key, value}; returns false for plain tokens.
bool split_kv(const std::string& tok, std::string& key, std::string& value) {
  const auto eq = tok.find('=');
  if (eq == std::string::npos) return false;
  key = lower(tok.substr(0, eq));
  value = tok.substr(eq + 1);
  return true;
}

struct Parser {
  int line_no = 0;

  double num(const std::string& tok) {
    try {
      return parse_spice_number(tok);
    } catch (const NetlistError& e) {
      // Make sure the offending token reaches the message even when the
      // underlying error (empty number, bad suffix) didn't quote it.
      std::string msg = e.what();
      if (msg.find("'" + tok + "'") == std::string::npos)
        msg += " (offending token '" + tok + "')";
      fail(line_no, msg);
    }
  }

  // Fails on t[n], the first token of `t` a card did not consume.
  void reject_from(const std::vector<std::string>& t, std::size_t n) {
    if (n < t.size())
      fail(line_no, "unexpected token '" + t[n] + "' on " + t[0]);
  }

  // Builds a waveform from tokens[i..], the rest of the card; handles DC,
  // PULSE, PWL, SIN.
  std::unique_ptr<Waveform> waveform(const std::vector<std::string>& t,
                                     std::size_t i) {
    if (i >= t.size()) fail(line_no, "missing source value");
    const std::string head = lower(t[i]);
    if (head == "pulse") {
      if (t.size() - i - 1 < 6) fail(line_no, "PULSE needs 6-7 arguments");
      reject_from(t, i + 8);
      const double v1 = num(t[i + 1]);
      const double v2 = num(t[i + 2]);
      const double td = num(t[i + 3]);
      const double tr = num(t[i + 4]);
      const double tf = num(t[i + 5]);
      const double pw = num(t[i + 6]);
      const double per = (t.size() - i - 1 >= 7) ? num(t[i + 7]) : 0.0;
      return std::make_unique<PulseWave>(v1, v2, td, tr, tf, pw, per);
    }
    if (head == "pwl") {
      std::vector<std::pair<double, double>> pts;
      std::size_t k = i + 1;
      for (; k + 1 < t.size(); k += 2)
        pts.emplace_back(num(t[k]), num(t[k + 1]));
      if (pts.empty()) fail(line_no, "PWL needs time/value pairs");
      reject_from(t, k);
      return std::make_unique<PwlWave>(std::move(pts));
    }
    if (head == "sin") {
      if (t.size() - i - 1 < 3) fail(line_no, "SIN needs 3-4 arguments");
      reject_from(t, i + 5);
      const double off = num(t[i + 1]);
      const double ampl = num(t[i + 2]);
      const double freq = num(t[i + 3]);
      const double delay = (t.size() - i - 1 >= 4) ? num(t[i + 4]) : 0.0;
      return std::make_unique<SinWave>(off, ampl, freq, delay);
    }
    if (head == "dc") {
      if (i + 1 >= t.size()) fail(line_no, "DC needs a value");
      reject_from(t, i + 2);
      return std::make_unique<DcWave>(num(t[i + 1]));
    }
    reject_from(t, i + 1);
    return std::make_unique<DcWave>(num(t[i]));
  }
};

// Current-controlled sources need their controlling V element; top-level
// cards are collected and resolved after the first pass.
struct Deferred {
  int line_no;
  std::vector<std::string> tokens;
};

// Adds one element card to `circuit`. `resolve` maps a raw node token to a
// NodeId (the caller decides the namespace: global for top-level cards,
// instance-scoped during subckt elaboration); `prefix` scopes the device
// name ("x1." inside instance x1). F/H cards are deferred via `deferred`
// when non-null and rejected otherwise — a subckt body cannot name a
// controlling element across scopes. Returns the constructed device
// (nullptr for a deferred card).
Device* add_element_card(
    Parser& p, Circuit& circuit, const std::vector<std::string>& tokens,
    const std::string& prefix,
    const std::function<NodeId(const std::string&)>& resolve,
    std::vector<Deferred>* deferred) {
  const std::string head = lower(tokens[0]);
  const char kind = head[0];
  const std::string name = prefix + tokens[0];
  auto node = [&](const std::string& tok) { return resolve(tok); };
  auto need = [&](std::size_t n) {
    if (tokens.size() < n) fail(p.line_no, "too few fields for " + tokens[0]);
  };
  // Exactly n fields: nothing after them.
  auto exact = [&](std::size_t n) {
    need(n);
    p.reject_from(tokens, n);
  };
  // Splits an optional trailing key=value; a plain token fails the card.
  auto kv = [&](std::size_t i, std::string& key, std::string& value) {
    if (!split_kv(tokens[i], key, value)) p.reject_from(tokens, i);
  };

  switch (kind) {
    case 'r': {
      exact(4);
      return &circuit.add<Resistor>(name, node(tokens[1]), node(tokens[2]),
                                    p.num(tokens[3]));
    }
    case 'c': {
      exact(4);
      return &circuit.add<Capacitor>(name, node(tokens[1]), node(tokens[2]),
                                     p.num(tokens[3]));
    }
    case 'l': {
      exact(4);
      return &circuit.add<Inductor>(name, node(tokens[1]), node(tokens[2]),
                                    p.num(tokens[3]));
    }
    case 'd': {
      need(3);
      DiodeParams dp;
      for (std::size_t i = 3; i < tokens.size(); ++i) {
        std::string key, value;
        kv(i, key, value);
        if (key == "is") dp.i_sat = p.num(value);
        else if (key == "n") dp.n_ideality = p.num(value);
        else fail(p.line_no, "unknown diode parameter '" + key + "'");
      }
      return &circuit.add<Diode>(name, node(tokens[1]), node(tokens[2]), dp);
    }
    case 'v': {
      need(4);
      return &circuit.add<VSource>(name, node(tokens[1]), node(tokens[2]),
                                   p.waveform(tokens, 3));
    }
    case 'i': {
      need(4);
      return &circuit.add<ISource>(name, node(tokens[1]), node(tokens[2]),
                                   p.waveform(tokens, 3));
    }
    case 'm': {
      need(5);
      const std::string type = lower(tokens[4]);
      double w = 1.0;
      double vth = -1.0;
      for (std::size_t i = 5; i < tokens.size(); ++i) {
        std::string key, value;
        kv(i, key, value);
        if (key == "w") w = p.num(value);
        else if (key == "vth") vth = p.num(value);
        else fail(p.line_no, "unknown MOSFET parameter '" + key + "'");
      }
      MosfetParams mp = type == "pmos" ? MosfetParams::pmos_lp(w)
                                       : MosfetParams::nmos_lp(w);
      if (type != "nmos" && type != "pmos")
        fail(p.line_no, "MOSFET type must be NMOS or PMOS");
      if (vth > 0.0) mp.vth = vth;
      return &circuit.add<Mosfet>(name, node(tokens[1]), node(tokens[2]),
                                  node(tokens[3]), mp);
    }
    case 'e': {
      exact(6);
      return &circuit.add<Vcvs>(name, node(tokens[1]), node(tokens[2]),
                                node(tokens[3]), node(tokens[4]),
                                p.num(tokens[5]));
    }
    case 'g': {
      exact(6);
      return &circuit.add<Vccs>(name, node(tokens[1]), node(tokens[2]),
                                node(tokens[3]), node(tokens[4]),
                                p.num(tokens[5]));
    }
    case 'f':
    case 'h': {
      exact(5);
      if (deferred == nullptr)
        fail(p.line_no,
             "current-controlled source '" + tokens[0] +
                 "' is not supported inside a .subckt body (the controlling "
                 "element lives in another scope)");
      deferred->push_back({p.line_no, tokens});
      return nullptr;
    }
    case 's': {
      need(3);
      double ron = 1.0, roff = 1e12;
      bool closed = false;
      for (std::size_t i = 3; i < tokens.size(); ++i) {
        std::string key, value;
        if (split_kv(tokens[i], key, value)) {
          if (key == "ron") ron = p.num(value);
          else if (key == "roff") roff = p.num(value);
          else fail(p.line_no, "unknown switch parameter '" + key + "'");
        } else if (lower(tokens[i]) == "on") {
          closed = true;
        } else if (lower(tokens[i]) == "off") {
          closed = false;
        } else {
          p.reject_from(tokens, i);
        }
      }
      return &circuit.add<Switch>(name, node(tokens[1]), node(tokens[2]), ron,
                                  roff, closed);
    }
    case 'n': {
      need(5);
      NemRelayParams np;
      bool closed = false;
      for (std::size_t i = 5; i < tokens.size(); ++i) {
        std::string key, value;
        if (split_kv(tokens[i], key, value)) {
          if (key == "vpi") np.v_pi = p.num(value);
          else if (key == "vpo") np.v_po = p.num(value);
          else if (key == "ron") np.r_on = p.num(value);
          else if (key == "con") np.c_on = p.num(value);
          else if (key == "coff") np.c_off = p.num(value);
          else if (key == "taumech") np.tau_mech = p.num(value);
          else fail(p.line_no, "unknown relay parameter '" + key + "'");
        } else if (lower(tokens[i]) == "closed") {
          closed = true;
        } else {
          p.reject_from(tokens, i);
        }
      }
      auto& relay = circuit.add<NemRelay>(name, node(tokens[1]),
                                          node(tokens[2]), node(tokens[3]),
                                          node(tokens[4]), np);
      if (closed) relay.set_state(true);
      return &relay;
    }
    case 'z': {
      need(3);
      double state = 0.0;
      for (std::size_t i = 3; i < tokens.size(); ++i) {
        std::string key, value;
        kv(i, key, value);
        if (key == "state") state = p.num(value);
        else fail(p.line_no, "unknown RRAM parameter '" + key + "'");
      }
      auto& rram = circuit.add<Rram>(name, node(tokens[1]), node(tokens[2]));
      rram.set_state(state);
      return &rram;
    }
    case 'q': {
      need(4);
      FefetParams fp;
      auto& fefet = circuit.add<Fefet>(name, node(tokens[1]), node(tokens[2]),
                                       node(tokens[3]), fp);
      for (std::size_t i = 4; i < tokens.size(); ++i) {
        const std::string flag = lower(tokens[i]);
        if (flag == "low") fefet.set_low_vth(true);
        else if (flag == "high") fefet.set_low_vth(false);
        else p.reject_from(tokens, i);
      }
      return &fefet;
    }
    default:
      fail(p.line_no, "unknown element '" + tokens[0] + "'");
  }
}

// Parses "Xname n1 n2 ... subname [k=v ...]" into an Instance. Parameter
// override values are evaluated against `env` (so "{p}" from an enclosing
// .param works at top level).
hier::Instance parse_x_card(Parser& p, const std::vector<std::string>& tokens,
                            const hier::ParamEnv& env) {
  hier::Instance inst;
  inst.name = lower(tokens[0]);
  std::size_t end = tokens.size();
  while (end > 1 && tokens[end - 1].find('=') != std::string::npos) --end;
  if (end < 3)
    fail(p.line_no, "X card needs at least a subckt name: X<name> "
                    "[nodes...] <subckt> [param=value...]");
  inst.subckt = lower(tokens[end - 1]);
  for (std::size_t i = 1; i + 1 < end; ++i)
    inst.bindings.push_back(lower(tokens[i]));
  for (std::size_t i = end; i < tokens.size(); ++i) {
    std::string key, value;
    if (!split_kv(tokens[i], key, value))
      fail(p.line_no, "bad X parameter '" + tokens[i] + "'");
    try {
      inst.param_overrides[key] =
          p.num(hier::substitute_params(value, env));
    } catch (const hier::ElaborateError& e) {
      fail(p.line_no, e.what());
    }
  }
  return inst;
}

}  // namespace

double parse_spice_number(const std::string& token) {
  if (token.empty()) throw NetlistError("empty number");
  const std::string t = lower(token);
  std::size_t pos = 0;
  double base = 0.0;
  try {
    base = std::stod(t, &pos);
  } catch (const std::exception&) {
    throw NetlistError("invalid number '" + token + "'");
  }
  const std::string suffix = t.substr(pos);
  if (suffix.empty()) return base;
  static const std::map<std::string, double> kScale = {
      {"t", 1e12}, {"g", 1e9},   {"meg", 1e6}, {"k", 1e3},  {"m", 1e-3},
      {"u", 1e-6}, {"n", 1e-9},  {"p", 1e-12}, {"f", 1e-15}, {"a", 1e-18},
  };
  // SPICE rules: the scale suffix is case-insensitive ("1M" ≡ "1m" ≡
  // milli; only "meg"/"MEG" is 1e6). Trailing *unit letters* after a
  // recognized suffix are tolerated ("2.2nF", "1kOhm"); anything
  // containing further digits ("1k5", "1.5meg2") is rejected instead of
  // silently dropping the tail.
  for (const auto& [sfx, scale] : kScale) {
    if (suffix.rfind(sfx, 0) == 0) {
      // "m" must not shadow "meg".
      if (sfx == "m" && suffix.rfind("meg", 0) == 0) continue;
      const std::string rest = suffix.substr(sfx.size());
      if (!std::all_of(rest.begin(), rest.end(), [](unsigned char c) {
            return std::isalpha(c);
          }))
        throw NetlistError("invalid number '" + token +
                           "': garbage after scale suffix '" + sfx + "'");
      return base * scale;
    }
  }
  // Pure unit letters (V, s, ohm) — anything alphabetic left is a unit.
  if (std::all_of(suffix.begin(), suffix.end(), [](unsigned char c) {
        return std::isalpha(c);
      }))
    return base;
  throw NetlistError("invalid number '" + token + "'");
}

ParsedNetlist parse_netlist(const std::string& text) {
  ParsedNetlist out;
  out.circuit = std::make_unique<Circuit>();
  Parser p{};

  std::istringstream is(text);
  std::string raw;
  bool first = true;
  bool ended = false;
  std::vector<Deferred> deferred;
  std::map<std::string, Device*> by_name;

  hier::Library library;
  hier::ParamEnv global_params;
  // Top-level X instances are elaborated after the whole deck is read so a
  // .subckt may appear after its first use.
  struct PendingInstance {
    int line_no;
    hier::Instance inst;
  };
  std::vector<PendingInstance> instances;
  // .print names validated after elaboration (hierarchical nodes only
  // exist once their instance is flattened).
  struct PrintRef {
    int line_no;
    std::string name;
  };
  std::vector<PrintRef> print_refs;

  // In-progress .subckt collection (no nesting).
  hier::SubcktDef* open_subckt = nullptr;
  int open_subckt_line = 0;

  const auto resolve_global = [&](const std::string& tok) {
    return out.circuit->node(lower(tok));
  };

  while (std::getline(is, raw)) {
    ++p.line_no;
    if (first) {
      out.title = raw;
      first = false;
      continue;
    }
    if (ended) continue;
    // Strip comments: '*' at start, ';' anywhere.
    std::string line = raw;
    if (const auto sc = line.find(';'); sc != std::string::npos)
      line.resize(sc);
    if (!line.empty() && line[0] == '*') continue;
    auto tokens = tokenize(line);
    if (tokens.empty()) continue;

    const std::string head = lower(tokens[0]);

    // Inside a .subckt body: collect cards verbatim ({param} substitution
    // happens per instance at elaboration time).
    if (open_subckt != nullptr && head != ".ends") {
      if (head == ".end")
        fail(open_subckt_line,
             ".subckt '" + open_subckt->name + "' is never closed by .ends");
      if (head[0] == '.')
        fail(p.line_no, "directive '" + tokens[0] +
                            "' is not allowed inside .subckt '" +
                            open_subckt->name + "'");
      if (head[0] == 'x') {
        open_subckt->sub(parse_x_card(p, tokens, open_subckt->params));
      } else {
        open_subckt->text(tokens, p.line_no);
      }
      continue;
    }

    // Top level: apply .param substitution before interpreting the card.
    if (!global_params.empty()) {
      try {
        for (auto& t : tokens) t = hier::substitute_params(t, global_params);
      } catch (const hier::ElaborateError& e) {
        fail(p.line_no, e.what());
      }
    }

    if (head[0] == '.') {
      if (head == ".end") {
        ended = true;
      } else if (head == ".op") {
        out.analysis.kind = ParsedAnalysis::Kind::Op;
      } else if (head == ".tran") {
        if (tokens.size() < 3) fail(p.line_no, ".tran <dt_max> <t_end>");
        out.analysis.kind = ParsedAnalysis::Kind::Tran;
        out.analysis.tran_dt_max = p.num(tokens[1]);
        out.analysis.tran_t_end = p.num(tokens[2]);
      } else if (head == ".ic") {
        // .ic v(node)=value …; tokenize() split the parens, so the pattern
        // arrives as: "v" <node> "=value".
        std::size_t i = 1;
        while (i < tokens.size()) {
          if (i + 2 >= tokens.size() || lower(tokens[i]) != "v" ||
              tokens[i + 2].empty() || tokens[i + 2][0] != '=')
            fail(p.line_no, ".ic expects v(node)=value");
          out.circuit->set_ic(out.circuit->node(lower(tokens[i + 1])),
                              p.num(tokens[i + 2].substr(1)));
          i += 3;
        }
      } else if (head == ".print") {
        // .print v(node) [v(node)…] → tokens "v" <node> repeated.
        for (std::size_t i = 1; i < tokens.size();) {
          if (lower(tokens[i]) == "v" && i + 1 < tokens.size()) {
            print_refs.push_back({p.line_no, lower(tokens[i + 1])});
            i += 2;
          } else {
            print_refs.push_back({p.line_no, lower(tokens[i])});
            ++i;
          }
        }
      } else if (head == ".param") {
        // .param name=value [name=value …]; later .params may reference
        // earlier ones by {name}.
        if (tokens.size() < 2) fail(p.line_no, ".param name=value");
        for (std::size_t i = 1; i < tokens.size(); ++i) {
          std::string key, value;
          if (!split_kv(tokens[i], key, value))
            fail(p.line_no, ".param expects name=value, got '" + tokens[i] +
                                "'");
          global_params[key] = p.num(value);
        }
      } else if (head == ".subckt") {
        if (tokens.size() < 2) fail(p.line_no, ".subckt <name> [ports...]");
        hier::SubcktDef def;
        def.name = lower(tokens[1]);
        for (std::size_t i = 2; i < tokens.size(); ++i) {
          std::string key, value;
          if (split_kv(tokens[i], key, value)) {
            def.params[key] = p.num(value);  // parameter default
          } else {
            def.ports.push_back(lower(tokens[i]));
          }
        }
        if (!library.add(std::move(def)))
          fail(p.line_no, "subckt '" + lower(tokens[1]) + "' redefined");
        // Library::add moved the def; reopen it for card collection.
        open_subckt =
            const_cast<hier::SubcktDef*>(library.find(lower(tokens[1])));
        open_subckt_line = p.line_no;
      } else if (head == ".ends") {
        if (open_subckt == nullptr)
          fail(p.line_no, ".ends without an open .subckt");
        open_subckt = nullptr;
      } else {
        fail(p.line_no, "unsupported directive '" + tokens[0] + "'");
      }
      continue;
    }

    if (head[0] == 'x') {
      instances.push_back({p.line_no, parse_x_card(p, tokens, global_params)});
      continue;
    }

    Device* dev =
        add_element_card(p, *out.circuit, tokens, "", resolve_global,
                         &deferred);
    if (dev != nullptr) {
      by_name[lower(tokens[0])] = dev;
      out.device_lines[dev->name()] = p.line_no;
    }
  }

  if (open_subckt != nullptr)
    fail(open_subckt_line,
         ".subckt '" + open_subckt->name + "' is never closed by .ends");

  // Resolve current-controlled sources now that all V elements exist.
  for (const auto& d : deferred) {
    p.line_no = d.line_no;
    const auto& t = d.tokens;
    const auto it = by_name.find(lower(t[3]));
    if (it == by_name.end() || it->second->branch_count() == 0)
      fail(d.line_no, "controlling element '" + t[3] + "' not found or has no branch");
    if (lower(t[0])[0] == 'f') {
      out.circuit->add<Cccs>(t[0], out.circuit->node(lower(t[1])),
                             out.circuit->node(lower(t[2])), *it->second,
                             p.num(t[4]));
    } else {
      out.circuit->add<Ccvs>(t[0], out.circuit->node(lower(t[1])),
                             out.circuit->node(lower(t[2])), *it->second,
                             p.num(t[4]));
    }
    out.device_lines[t[0]] = d.line_no;
  }

  // Flatten the X instances. The emitter routes every text card back
  // through the shared element grammar with instance-scoped names.
  if (!instances.empty()) {
    hier::ElaborateOptions eopts;
    eopts.text_emitter = [&out](Circuit& ckt, const hier::TextCardRequest& req,
                                const hier::NodeResolver& resolve) -> Device* {
      Parser sub_p{};
      sub_p.line_no = req.line_no;
      const std::string prefix =
          req.scope.empty() ? std::string() : req.scope + ".";
      Device* dev = add_element_card(
          sub_p, ckt, req.tokens, prefix,
          [&](const std::string& tok) { return resolve(lower(tok)); },
          /*deferred=*/nullptr);
      if (dev != nullptr) out.device_lines[dev->name()] = req.line_no;
      return dev;
    };
    for (const auto& pending : instances) {
      try {
        hier::elaborate(*out.circuit, library, pending.inst, global_params,
                        "", eopts);
      } catch (const hier::ElaborateError& e) {
        fail(pending.line_no, e.what());
      } catch (const NetlistError&) {
        throw;  // already line-attributed by the text emitter
      }
    }
  }

  // .print names must exist somewhere in the elaborated deck — a silent
  // no-op trace helps nobody debug a typo.
  for (const auto& ref : print_refs) {
    if (!out.circuit->has_node(ref.name))
      fail(ref.line_no,
           ".print v(" + ref.name + "): node never appears in the deck");
    out.print_nodes.push_back(ref.name);
  }

  return out;
}

}  // namespace nemtcam::spice
