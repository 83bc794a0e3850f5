#include "tcam/Nem3T2NRow.h"

#include <algorithm>

#include "devices/Mosfet.h"
#include "devices/NemRelay.h"
#include "erc/TcamRules.h"
#include "hier/Elaborate.h"
#include "spice/Transient.h"
#include "tcam/Harness.h"
#include "tcam/RowSpecs.h"
#include "util/Random.h"

namespace nemtcam::tcam {

using namespace nemtcam::devices;
using spice::Circuit;
using spice::NodeId;
using spice::TransientOptions;

namespace {

struct RelayTargets {
  bool n1_closed;
  bool n2_closed;
};

RelayTargets targets_for(Ternary t) {
  switch (t) {
    case Ternary::One: return {true, false};
    case Ternary::Zero: return {false, true};
    case Ternary::X: return {false, false};
  }
  return {false, false};
}

// Draws per-device pull-in/pull-out thresholds around the nominals.
NemRelayParams varied_relay_params(util::Rng& rng, double sigma) {
  NemRelayParams np;
  if (sigma > 0.0) {
    np.v_pi = rng.normal(np.v_pi, sigma);
    np.v_po = std::min(rng.normal(np.v_po, sigma), np.v_pi - 0.05);
  }
  return np;
}

NemRelay& relay_at(const hier::InstanceHandles& cell, const char* local) {
  auto* relay = dynamic_cast<NemRelay*>(cell.device(local));
  NEMTCAM_EXPECT(relay != nullptr);
  return *relay;
}

// Seeds one cell with a stored trit, a closed relay's gate at `v_one`:
// the relay states and both storage-node ICs, zero ICs included.
auto seed_cell(double v_one) {
  return [v_one](Circuit& ckt, const hier::InstanceHandles& cell, Ternary t) {
    const RelayTargets tgt = targets_for(t);
    const double v1 = tgt.n1_closed ? v_one : 0.0;
    const double v2 = tgt.n2_closed ? v_one : 0.0;
    relay_at(cell, "N1").set_state(tgt.n1_closed, v1);
    relay_at(cell, "N2").set_state(tgt.n2_closed, v2);
    ckt.set_ic(cell.node_at("stg1"), v1);
    ckt.set_ic(cell.node_at("stg2"), v2);
  };
}

// One 3T2N cell, all nets as ports. A search grounds bl/blb/wl; a write
// grounds ml/sl/slb.
hier::SubcktDef nem_cell_def(const Calibration& c) {
  hier::SubcktDef def;
  def.name = "nem3t2n_cell";
  def.ports = {"ml", "sl", "slb", "bl", "blb", "wl"};
  const auto write_nmos = [c](Circuit& k, const std::string& n,
                              const std::vector<NodeId>& nd,
                              const hier::ParamEnv&) -> spice::Device& {
    return k.add<Mosfet>(n, nd[0], nd[1], nd[2], c.nem_write_nmos());
  };
  def.emit("Tw1", {"stg1", "wl", "bl"}, write_nmos);
  def.emit("Tw2", {"stg2", "wl", "blb"}, write_nmos);
  const auto relay = [](Circuit& k, const std::string& n,
                        const std::vector<NodeId>& nd,
                        const hier::ParamEnv&) -> spice::Device& {
    return k.add<NemRelay>(n, nd[0], nd[1], nd[2], nd[3]);
  };
  def.emit("N1", {"slb", "stg1", "gs", "0"}, relay);
  def.emit("N2", {"sl", "stg2", "gs", "0"}, relay);
  def.emit("Ts", {"ml", "gs", "0"},
           [c](Circuit& k, const std::string& n,
               const std::vector<NodeId>& nd,
               const hier::ParamEnv&) -> spice::Device& {
             return k.add<Mosfet>(n, nd[0], nd[1], nd[2],
                                  MosfetParams::nmos_lp(c.w_nem_sense));
           });
  return def;
}

std::string hier_relay_name(const char* base, std::size_t col) {
  return "Xcell" + std::to_string(col) + "." + base;
}

}  // namespace

SearchTemplateSpec nem3t2n_search_spec(const Calibration& c) {
  SearchTemplateSpec spec;
  spec.cal = c;
  spec.geo = c.geo_nem;
  spec.t_strobe = c.t_strobe_nem;
  spec.cell = nem_cell_def(c);
  spec.bind = seed_cell(c.v_store_one);
  spec.array_rules = [v_refresh = c.v_refresh](const ArrayRowContext& rc,
                                               const TernaryWord& stored) {
    rc.checker.add_rule(erc::ml_fanin_rule(rc.ml, rc.vdd, rc.width));
    rc.checker.add_rule(erc::nem_pair_rule(
        stored,
        [scope = rc.scope](std::size_t col) {
          return scope + hier_relay_name("N1", col);
        },
        [scope = rc.scope](std::size_t col) {
          return scope + hier_relay_name("N2", col);
        }));
    // Window check inspects every relay in the circuit — once per array.
    if (rc.row == 0)
      rc.checker.add_rule(erc::relay_refresh_window_rule(v_refresh));
  };
  return spec;
}

WriteTemplateSpec nem3t2n_write_spec(const Calibration& c) {
  WriteTemplateSpec w;
  w.t_end = kWriteEdge + c.t_write_window_nem;
  // Boosted wordline crossing the whole row; each bitline charges one relay
  // gate to V_DD (close) or to 0 (open).
  w.nets = {row_line("wl", c, c.geo_nem, c.v_wl_write),
            column_line("bl", c, c.geo_nem,
                        [vdd = c.vdd](Ternary t) {
                          return targets_for(t).n1_closed ? vdd : 0.0;
                        }),
            column_line("blb", c, c.geo_nem, [vdd = c.vdd](Ternary t) {
              return targets_for(t).n2_closed ? vdd : 0.0;
            })};
  w.check = [](const spice::TransientResult&,
               const hier::InstanceHandles& cell, Ternary, Ternary t,
               WriteMetrics& m) {
    const RelayTargets tgt = targets_for(t);
    for (const auto& [base, want_closed] :
         {std::pair{"N1", tgt.n1_closed}, std::pair{"N2", tgt.n2_closed}}) {
      const NemRelay& relay = relay_at(cell, base);
      const double t_settle = want_closed ? relay.t_contact_closed()
                                          : relay.t_contact_opened();
      record_outcome(m, cell, base, relay.contact() == want_closed,
                     t_settle - kWriteEdge);
    }
  };
  return w;
}

WriteTemplateSpec nem3t2n_refresh_spec(const Calibration& c, double v_refresh,
                                       double v_pre_one) {
  WriteTemplateSpec w;
  // Sequencing matters: the bitlines must already sit at V_R when the
  // wordlines open, otherwise a stored '1' gate transiently dips below
  // V_PO through the write transistor — and once the beam starts
  // releasing, V_R (< V_PI) cannot re-actuate it. OSR therefore raises
  // all BLs first, then asserts all WLs.
  const double t_wl = kWriteEdge + 0.5e-9;
  w.t_end = t_wl + 5e-9;
  const auto to_refresh_level = [v_refresh](Ternary) { return v_refresh; };
  w.nets = {row_line("wl", c, c.geo_nem, c.v_wl_write, t_wl),
            column_line("bl", c, c.geo_nem, to_refresh_level),
            column_line("blb", c, c.geo_nem, to_refresh_level)};
  w.bind = seed_cell(v_pre_one);
  w.check = [v_refresh, tol = 0.05 * c.vdd](
                const spice::TransientResult& r,
                const hier::InstanceHandles& cell, Ternary, Ternary t,
                WriteMetrics& m) {
    const RelayTargets tgt = targets_for(t);
    record_outcome(m, cell, "N1",
                   relay_at(cell, "N1").contact() == tgt.n1_closed, 0.0);
    record_outcome(m, cell, "N2",
                   relay_at(cell, "N2").contact() == tgt.n2_closed, 0.0);
    // Latency: both storage nodes settled to the refresh level.
    for (const char* node : {"stg1", "stg2"}) {
      const auto ts =
          r.node_trace(cell.node_at(node)).settle_time(v_refresh, tol);
      if (ts.has_value()) m.latency = std::max(m.latency, *ts - kWriteEdge);
    }
  };
  return w;
}

Nem3T2NRow::Nem3T2NRow(int width, int array_rows, const Calibration& cal)
    : TcamRow(width, array_rows, cal) {}

Nem3T2NRow::~Nem3T2NRow() = default;

double Nem3T2NRow::simulate_retention(double v_start) const {
  // One cell with every port grounded: WL and BL sit at 0 V, so the write
  // transistor's subthreshold leak drains the relay gate toward the bitline.
  const SearchTemplateSpec spec = nem3t2n_search_spec(cal());
  Circuit ckt;
  const hier::InstanceHandles cell =
      elaborate_cell(ckt, spec.cell, "Xcell0", {}, 0, spec.cell.params);
  seed_cell(v_start)(ckt, cell, Ternary::One);

  // Retention runs µs-scale: under LTE control the leakage decay sustains
  // µs steps and the relay release lands via event bisection.
  TransientOptions opts = spice::step_defaults(500e-6, 1e-6);
  opts.record = false;
  const auto result = run_transient(ckt, opts);
  if (!result.finished) return 0.0;
  const NemRelay& relay = relay_at(cell, "N1");
  if (relay.contact()) return opts.t_end;  // never lost within the window
  return relay.t_contact_opened();
}

RefreshMetrics Nem3T2NRow::one_shot_refresh() {
  // Worst case: the refresh must arrive before a '1' written at the
  // refresh level itself decays below V_PO.
  return refresh_at(cal().v_refresh, /*v_pre_one=*/0.25);
}

RefreshMetrics Nem3T2NRow::refresh_at(double v_refresh, double v_pre_one) {
  // Two legs: bitlines loaded by the whole column, and the cells alone, so
  // the shared-line energy can be separated from the per-row energy.
  if (!osr_loaded_ || v_refresh != osr_v_refresh_ ||
      v_pre_one != osr_v_pre_one_) {
    const SearchTemplateSpec cell = nem3t2n_search_spec(cal());
    const WriteTemplateSpec spec =
        nem3t2n_refresh_spec(cal(), v_refresh, v_pre_one);
    osr_loaded_ =
        std::make_unique<WriteTemplate>(cell, spec, width(), array_rows());
    osr_cells_ = std::make_unique<WriteTemplate>(cell, spec, width(), 0);
    osr_v_refresh_ = v_refresh;
    osr_v_pre_one_ = v_pre_one;
  }
  // Each leg draws the same thresholds: the draw restarts from seed_.
  const auto replay = [this](WriteTemplate& leg) {
    util::Rng rng(seed_);
    for (const hier::InstanceHandles& cell : leg.cells())
      for (const char* local : {"N1", "N2"}) {
        const NemRelayParams p = varied_relay_params(rng, sigma_vth_);
        relay_at(cell, local).set_thresholds(p.v_pi, p.v_po);
      }
    return leg.write(stored_, stored_);
  };

  RefreshMetrics m;
  const WriteMetrics full = replay(*osr_loaded_);
  if (!full.ok) {
    m.note = full.note;
    return m;
  }
  const WriteMetrics cells_only = replay(*osr_cells_);
  if (!cells_only.ok) {
    m.note = cells_only.note;
    return m;
  }
  m.stamp_pattern_builds =
      full.stamp_pattern_builds + cells_only.stamp_pattern_builds;

  // Whole-array decomposition: the bitline (and its driver) energy is
  // shared by every row and is spent once; wordline + cell-charge energy
  // repeats per row.
  const double e_shared = std::max(full.energy - cells_only.energy, 0.0);
  m.energy_per_op = e_shared + array_rows() * cells_only.energy;
  m.latency = full.latency;
  m.retention_time = simulate_retention(v_refresh);
  if (m.retention_time > 0.0)
    m.refresh_power = m.energy_per_op / m.retention_time;
  m.ok = m.retention_time > 0.0;
  if (!m.ok) m.note = "retention simulation failed";
  return m;
}

}  // namespace nemtcam::tcam
