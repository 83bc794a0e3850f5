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
  // Seeds the relays and storage-node ICs, zero ICs included.
  spec.bind = [v_one = c.v_store_one](Circuit& ckt,
                                      const hier::InstanceHandles& cell,
                                      Ternary t) {
    const RelayTargets tgt = targets_for(t);
    const double v1 = tgt.n1_closed ? v_one : 0.0;
    const double v2 = tgt.n2_closed ? v_one : 0.0;
    auto* n1 = dynamic_cast<NemRelay*>(cell.device("N1"));
    auto* n2 = dynamic_cast<NemRelay*>(cell.device("N2"));
    NEMTCAM_EXPECT(n1 != nullptr && n2 != nullptr);
    n1->set_state(tgt.n1_closed, v1);
    n2->set_state(tgt.n2_closed, v2);
    ckt.set_ic(cell.node_at("stg1"), v1);
    ckt.set_ic(cell.node_at("stg2"), v2);
  };
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
      const auto* relay = dynamic_cast<const NemRelay*>(cell.device(base));
      NEMTCAM_EXPECT(relay != nullptr);
      const double t_settle = want_closed ? relay->t_contact_closed()
                                          : relay->t_contact_opened();
      record_outcome(m, cell, base, relay->contact() == want_closed,
                     t_settle - kWriteEdge);
    }
  };
  return w;
}

Nem3T2NRow::Nem3T2NRow(int width, int array_rows, const Calibration& cal)
    : TcamRow(width, array_rows, cal) {}

double Nem3T2NRow::simulate_retention(double v_start) const {
  const Calibration& c = cal();
  Circuit ckt;
  const NodeId stg = ckt.node("stg");
  const NodeId gs = ckt.node("gs");
  // WL and BL grounded: the write transistor's subthreshold leak drains
  // the relay gate toward the bitline.
  ckt.add<Mosfet>("Tw", stg, ckt.ground(), ckt.ground(),
                  c.nem_write_nmos());
  auto& relay = ckt.add<NemRelay>("N1", ckt.ground(), stg, gs, ckt.ground());
  ckt.add<Mosfet>("Ts", ckt.ground(), gs, ckt.ground(),
                  MosfetParams::nmos_lp(c.w_nem_sense));
  relay.set_state(true, v_start);
  ckt.set_ic(stg, v_start);

  // Retention runs µs-scale: under LTE control the leakage decay sustains
  // µs steps and the relay release lands via event bisection (the legacy
  // fixed path quantized it to the 100 ns grid).
  TransientOptions opts = spice::step_defaults(500e-6, 100e-9, 1e-6);
  opts.record = false;
  const auto result = run_transient(ckt, opts);
  if (!result.finished) return 0.0;
  if (relay.contact()) return opts.t_end;  // never lost within the window
  return relay.t_contact_opened();
}

RefreshMetrics Nem3T2NRow::one_shot_refresh() const {
  const Calibration& c = cal();
  // Worst case: the refresh must arrive before a '1' written at the
  // refresh level itself decays below V_PO.
  return refresh_at(c.v_refresh, /*v_pre_one=*/0.25);
}

RefreshMetrics Nem3T2NRow::refresh_at(double v_refresh, double v_pre_one) const {
  const Calibration& c = cal();

  // Runs the row-level OSR netlist and returns {energy, latency, ok}.
  // with_bl_load toggles the column-height bitline capacitance so the
  // shared-line energy can be separated from the per-row energy.
  struct OsrRun {
    double energy = 0.0;
    double latency = 0.0;
    bool ok = false;
    std::string note;
  };
  auto run_osr = [&](bool with_bl_load) -> OsrRun {
    Circuit ckt;
    util::Rng rng(seed_);
    // Sequencing matters: the bitlines must already sit at V_R when the
    // wordlines open, otherwise a stored '1' gate transiently dips below
    // V_PO through the write transistor — and once the beam starts
    // releasing, V_R (< V_PI) cannot re-actuate it. OSR therefore raises
    // all BLs first, then asserts all WLs.
    const double t0 = 0.1e-9;
    const double t_wl = t0 + 0.5e-9;
    const double t_end = t_wl + 5e-9;
    const double c_wl = width() * c.c_hline_per_cell(c.geo_nem);
    const NodeId wl = add_driven_line(ckt, c, "wl", c_wl, 0.0, c.v_wl_write, t_wl);
    const double c_bl =
        with_bl_load ? array_rows() * c.c_vline_per_cell(c.geo_nem) : 1e-21;

    std::vector<NemRelay*> r1(static_cast<std::size_t>(width()));
    std::vector<NemRelay*> r2(static_cast<std::size_t>(width()));
    std::vector<NodeId> stg_nodes;
    for (int i = 0; i < width(); ++i) {
      const std::string sfx = std::to_string(i);
      const NodeId bl =
          add_driven_line(ckt, c, "bl" + sfx, c_bl, 0.0, v_refresh, t0);
      const NodeId blb =
          add_driven_line(ckt, c, "blb" + sfx, c_bl, 0.0, v_refresh, t0);
      const NodeId stg1 = ckt.node("stg1_" + sfx);
      const NodeId stg2 = ckt.node("stg2_" + sfx);
      const NodeId gs = ckt.node("gs_" + sfx);
      ckt.add<Mosfet>("Tw1_" + sfx, stg1, wl, bl,
                      c.nem_write_nmos());
      ckt.add<Mosfet>("Tw2_" + sfx, stg2, wl, blb,
                      c.nem_write_nmos());
      r1[static_cast<std::size_t>(i)] = &ckt.add<NemRelay>(
          "N1_" + sfx, ckt.ground(), stg1, gs, ckt.ground(),
          varied_relay_params(rng, sigma_vth_));
      r2[static_cast<std::size_t>(i)] = &ckt.add<NemRelay>(
          "N2_" + sfx, ckt.ground(), stg2, gs, ckt.ground(),
          varied_relay_params(rng, sigma_vth_));
      ckt.add<Mosfet>("Ts_" + sfx, ckt.ground(), gs, ckt.ground(),
                      MosfetParams::nmos_lp(c.w_nem_sense));

      const RelayTargets t = targets_for(stored_[static_cast<std::size_t>(i)]);
      const double v1 = t.n1_closed ? v_pre_one : 0.0;
      const double v2 = t.n2_closed ? v_pre_one : 0.0;
      r1[static_cast<std::size_t>(i)]->set_state(t.n1_closed, v1);
      r2[static_cast<std::size_t>(i)]->set_state(t.n2_closed, v2);
      if (v1 > 0.0) ckt.set_ic(stg1, v1);
      if (v2 > 0.0) ckt.set_ic(stg2, v2);
      stg_nodes.push_back(stg1);
      stg_nodes.push_back(stg2);
    }

    const TransientOptions opts = spice::step_defaults(t_end, 20e-12);
    const auto result = run_transient(ckt, opts);

    OsrRun out;
    if (!result.finished) {
      out.note = "transient failed: " + result.failure;
      return out;
    }
    out.energy = result.total_source_energy();
    out.ok = true;
    for (int i = 0; i < width(); ++i) {
      const RelayTargets t = targets_for(stored_[static_cast<std::size_t>(i)]);
      if (r1[static_cast<std::size_t>(i)]->contact() != t.n1_closed ||
          r2[static_cast<std::size_t>(i)]->contact() != t.n2_closed) {
        out.ok = false;
        out.note = "OSR corrupted stored state at column " + std::to_string(i);
      }
    }
    // Latency: all storage nodes settled to the refresh level.
    double latest = t0;
    for (const NodeId n : stg_nodes) {
      const auto ts = result.node_trace(n).settle_time(v_refresh,
                                                       0.05 * c.vdd);
      if (ts.has_value()) latest = std::max(latest, *ts);
    }
    out.latency = latest - t0;
    return out;
  };

  RefreshMetrics m;
  const OsrRun full = run_osr(/*with_bl_load=*/true);
  if (!full.ok) {
    m.note = full.note;
    return m;
  }
  const OsrRun cells_only = run_osr(/*with_bl_load=*/false);
  if (!cells_only.ok) {
    m.note = cells_only.note;
    return m;
  }

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
