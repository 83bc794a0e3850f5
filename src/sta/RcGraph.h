// Ground-referenced RC view of an elaborated circuit for static analysis.
//
// Built once per analysis from the devices' DeviceTopology small-signal
// summaries (spice/Device.h): per-node lumped capacitance, resistive /
// leak edges with their gating, independent-source pins (level at t = 0
// and at the settle horizon, driver series resistance), and the list of
// state-holding terminals. Everything the sta:: engine computes — switch-
// level logic levels, Thevenin discharge equivalents, Elmore moments —
// is a traversal of this graph; no Newton iteration ever runs.
//
// Two conduction tiers matter on a search-transaction timescale:
//  - "strong" edges (conducting, g ≥ kWeakG) move charge within the
//    window and define the switch-level connectivity;
//  - everything else (off-state g_off, weak leak resistors) only matters
//    as droop/retention current — a node whose only paths are weak holds
//    its initial condition through the window and decays over micro- to
//    milliseconds, which is exactly the paper's refresh-window physics.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "spice/Circuit.h"

namespace nemtcam::sta {

struct RcEdge {
  spice::NodeId a = spice::kGround;
  spice::NodeId b = spice::kGround;
  double g_on = 0.0;    // conductance when conducting (S); clamped finite
  double g_off = 0.0;   // worst-case leak when not conducting (S)
  bool has_r = false;   // device reported a resistance model (r_on ≥ 0)
  bool switchable = false;      // gated by a control node
  spice::NodeId ctrl = spice::kGround;
  double v_on = 0.0;
  bool active_low = false;
  bool static_on = true;        // committed state when not switchable
  double v_gs_ref = 0.0;        // gate drive r_on was summarized at; 0 = n/a
  double v_slope = 0.0;         // n·v_T for the derate interpolation; 0 = n/a
  const spice::Device* device = nullptr;
};

// Pair capacitance between two live nodes (kept alongside the both-end
// ground lumps): the aggressor-coupling term behind the matchline boost —
// a rising SL kicks a floating precharged ML above the rail through the
// compare-gate overlap caps.
struct RcXcap {
  spice::NodeId a = spice::kGround;
  spice::NodeId b = spice::kGround;
  double c = 0.0;
};

// Independent voltage pin: the node a source defines, with its drive
// levels and driver resistance.
struct RcPin {
  spice::NodeId node = spice::kGround;
  double v_init = 0.0;   // drive level at t = 0
  double v_final = 0.0;  // settled drive level
  double r_series = 0.0;
  const spice::Device* device = nullptr;
};

// Terminal that must hold its level for the device to retain state
// (closed NEM relay gate): input to the retention/refresh-window bound.
struct RcHold {
  spice::NodeId node = spice::kGround;
  double v_hold = 0.0;
  const spice::Device* device = nullptr;
};

// One static switch-level solution: per-node levels with the edge states
// that produced them.
struct LevelSolution {
  std::vector<double> v;        // per node id (index 0 = ground)
  std::vector<char> edge_on;    // per edge: conducting in this solution
  std::vector<char> strong;     // per edge: conducting with g ≥ kWeakG
  std::vector<char> floating;   // per node: no strong path to any pin
};

class RcGraph {
 public:
  // Conduction below this is "weak": it cannot move a line within a
  // search window, only leak charge over retention timescales. 10 nS
  // keeps an HRS RRAM filament (0.5 µS) strong — the finite-ON/OFF-ratio
  // matched-row droop must stay on the timing path — while an off MOS
  // channel (~pS) and a leaky relay dielectric (~nS) fall below it.
  static constexpr double kWeakG = 1e-8;
  // Floor resistance for edges reporting r_on = 0 (inductor DC short).
  static constexpr double kMinR = 1e-3;

  explicit RcGraph(spice::Circuit& circuit);

  spice::Circuit& circuit() const noexcept { return *circuit_; }
  int node_count() const noexcept { return n_nodes_; }
  const std::vector<RcEdge>& edges() const noexcept { return edges_; }
  const std::vector<RcPin>& pins() const noexcept { return pins_; }
  const std::vector<RcHold>& holds() const noexcept { return holds_; }
  // Lumped capacitance to ground at a node (terminal c_ground plus the
  // quiet-neighbor share of every pair coupling).
  double cap(spice::NodeId n) const {
    return cap_[static_cast<std::size_t>(n)];
  }
  // Pair-capacitance indices incident on a node.
  const std::vector<int>& xcaps_at(spice::NodeId n) const {
    return xadj_[static_cast<std::size_t>(n)];
  }
  const std::vector<RcXcap>& xcaps() const noexcept { return xcaps_; }
  // Timing conductance of an edge under a solution: g_on derated by the
  // squared overdrive ratio for partially driven gates (saturation-current
  // scaling); g_on unchanged for static edges and rail-driven gates.
  double g_timing(int ei, const LevelSolution& s) const;
  // Initial level of a node before any solve: its IC when set, else 0.
  double ic(spice::NodeId n) const;

  // Static switch-level solve: pins at v_init (use_final = false, the
  // precharge phase) or v_final (post-edge). Gated edge states and node
  // levels are relaxed to a joint fixpoint; nodes with no strong path to
  // a pin hold their IC (a floating storage node does not move within
  // the window).
  LevelSolution solve(bool use_final) const;

  // Thevenin resistance seen from `n` over the solution's conducting
  // edges with every pin (and ground) shorted — the discharge-path
  // equivalent. Computed by unit-current injection restricted to n's
  // component, so it is exact for series/parallel device stacks.
  // Returns +inf when n has no conducting path to a pin.
  double thevenin_r(spice::NodeId n, const LevelSolution& s) const;

  // Total capacitance that must swing with `n`: its own lump plus every
  // non-pin node reachable over strong edges.
  double swing_cap(spice::NodeId n, const LevelSolution& s) const;

  // Leak current out of `n` at level `v_n`: the sum over incident
  // non-conducting (or weak) edges of g·(v_n − v_neighbor).
  double leak_current(spice::NodeId n, double v_n,
                      const LevelSolution& s) const;

  // Elmore moments of the RC subtree fed by pin `p` over static (non-
  // gated) conducting edges: first and second moments at the worst sink,
  // total capacitance, and node count. Loops are broken on a BFS tree
  // (the shipped ladders are trees; a loop only tightens the true delay,
  // so the tree bound stays an upper estimate).
  struct Elmore {
    double m1 = 0.0;       // worst-sink first moment Σ R_common·C (s)
    double m2 = 0.0;       // matching second moment (s²)
    double c_total = 0.0;  // F
    int n_nodes = 0;
    spice::NodeId far_node = spice::kGround;
  };
  Elmore elmore_from(const RcPin& p, const LevelSolution& s) const;

 private:
  bool edge_conducts(const RcEdge& e, const std::vector<double>& v) const;
  // Exact nodal solve over `unknown` (node ids): for each unknown node i,
  //   Σ_incident g_edge[e]·(v_i − v_j) = i_inj·[i == inj_node],
  // every node outside `unknown` a Dirichlet boundary held at v[·].
  // Edges participate when use_edge[e] is set. Writes the solution back
  // into v at the unknown indices. Sparse LU over the reduced Laplacian —
  // the SL wire ladders are long 1-D chains where relaxation needs O(n²)
  // sweeps, so iteration does not scale past small widths.
  void solve_nodal(const std::vector<int>& unknown,
                   const std::vector<double>& g_edge,
                   const std::vector<char>& use_edge, spice::NodeId inj_node,
                   double i_inj, std::vector<double>& v) const;

  spice::Circuit* circuit_;
  int n_nodes_ = 0;
  // Scratch pools reused across the const analysis calls (an analysis
  // makes a few thousand of them on a full-width template, and the
  // allocator traffic would otherwise dominate the solve itself). A
  // consequence: RcGraph is not thread-safe — every analysis builds its
  // own instance, which is how sta::analyze uses it.
  mutable std::vector<int> ws_row_of_;
  mutable std::vector<std::vector<std::pair<int, double>>> ws_nbr_;
  mutable std::vector<double> ws_gb_, ws_rhs_;
  mutable std::vector<char> ws_alive_;
  mutable std::vector<int> ws_pos_;
  mutable std::vector<int> ws_order_, ws_parent_;
  mutable std::vector<double> ws_r_up_, ws_c_down_, ws_m1_, ws_s_down_,
      ws_m2_;
  mutable std::vector<char> ws_seen_;
  std::vector<RcEdge> edges_;
  std::vector<RcPin> pins_;
  std::vector<RcHold> holds_;
  std::vector<RcXcap> xcaps_;
  std::vector<std::vector<int>> adj_;
  std::vector<std::vector<int>> xadj_;
  std::vector<double> cap_;
  std::vector<int> pin_of_;  // node → index into pins_, −1 otherwise
};

}  // namespace nemtcam::sta
