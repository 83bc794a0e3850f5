#include "tcam/WriteTemplate.h"

#include <algorithm>

#include "devices/Passive.h"
#include "spice/Waveform.h"

namespace nemtcam::tcam {

using core::Ternary;

WriteNet column_line(std::string port, const Calibration& cal,
                     const CellGeometry& geo,
                     std::function<double(Ternary)> level) {
  return {std::move(port), true, cal.c_vline_per_cell(geo), cal.c_driver_load,
          cal.r_line_driver,
          [level = std::move(level)](Ternary, Ternary new_trit) {
            return step_wave(0.0, level(new_trit), kWriteEdge);
          }};
}

WriteNet row_line(std::string port, const Calibration& cal,
                  const CellGeometry& geo, double level, double t_edge) {
  return {std::move(port), false, cal.c_hline_per_cell(geo),
          cal.c_driver_load, cal.r_line_driver,
          [level, t_edge](Ternary, Ternary) {
            return step_wave(0.0, level, t_edge);
          }};
}

WriteNet held_net(std::string port, bool per_column, double level) {
  return {std::move(port), per_column, 0.0, 0.0, 0.0,
          [level](Ternary, Ternary) {
            return std::make_unique<spice::DcWave>(level);
          }};
}

void record_outcome(WriteMetrics& m, const hier::InstanceHandles& cell,
                    const char* local, bool reached, double t_settle) {
  if (!reached) {
    m.ok = false;
    m.note = cell.scope + "." + local + " did not reach its write target";
    return;
  }
  m.latency = std::max(m.latency, t_settle);
}

WriteTemplate::WriteTemplate(const SearchTemplateSpec& cell_spec,
                             WriteTemplateSpec spec, int width,
                             int array_rows)
    : spec_(std::move(spec)),
      bind_(spec_.bind ? spec_.bind : cell_spec.bind) {
  NEMTCAM_EXPECT(static_cast<bool>(bind_) && static_cast<bool>(spec_.check));
  hier::ParamEnv env = cell_spec.cell.params;
  for (const auto& [name, value] : spec_.params) {
    NEMTCAM_EXPECT_MSG(env.count(name) == 1,
                       "write override of an unknown cell parameter");
    env[name] = value;
  }

  PortNets nets;
  for (std::size_t n = 0; n < spec_.nets.size(); ++n) {
    const WriteNet& net = spec_.nets[n];
    if (net.per_column)
      columns_.push_back({n, {}});
    else
      nets.row[net.port] = add_net(net, net.port, width).plus();
  }
  // Column by column: the column's lines, then its cell. Device order sets
  // how the stamp sums round; this order keeps the pinned write goldens
  // (tests/hier_test.cpp) bit for bit on most kinds.
  for (int i = 0; i < width; ++i) {
    for (ColumnDrivers& col : columns_) {
      const WriteNet& net = spec_.nets[col.net];
      devices::VSource& src =
          add_net(net, net.port + "_" + std::to_string(i), array_rows);
      col.sources.push_back(&src);
      nets.columns[net.port].push_back(src.plus());
    }
    cells_.push_back(elaborate_cell(ckt_, cell_spec.cell,
                                    "Xcell" + std::to_string(i), nets, i,
                                    env));
  }
}

devices::VSource& WriteTemplate::add_net(const WriteNet& net,
                                         const std::string& name,
                                         int cells_spanned) {
  const spice::NodeId node = ckt_.node(name);
  std::unique_ptr<spice::Waveform> wave = net.wave(Ternary::X, Ternary::X);
  ckt_.set_ic(node, wave->value(0.0));
  auto& src = ckt_.add<devices::VSource>("Vdrv_" + name, node, ckt_.ground(),
                                         std::move(wave), net.r_drive);
  const double c = cells_spanned * net.c_per_cell + net.c_fixed;
  if (c > 0.0)
    ckt_.add<devices::Capacitor>("Cline_" + name, node, ckt_.ground(), c);
  return src;
}

WriteMetrics WriteTemplate::write(const core::TernaryWord& old_word,
                                  const core::TernaryWord& new_word) {
  NEMTCAM_EXPECT(old_word.size() == cells_.size());
  NEMTCAM_EXPECT(new_word.size() == cells_.size());
  for (const ColumnDrivers& col : columns_) {
    const WriteNet& net = spec_.nets[col.net];
    for (std::size_t i = 0; i < col.sources.size(); ++i) {
      std::unique_ptr<spice::Waveform> wave =
          net.wave(old_word[i], new_word[i]);
      ckt_.set_ic(col.sources[i]->plus(), wave->value(0.0));
      col.sources[i]->set_wave(std::move(wave));
    }
  }
  ckt_.reset_device_states();
  for (std::size_t i = 0; i < cells_.size(); ++i)
    bind_(ckt_, cells_[i], old_word[i]);

  const spice::TransientResult result = spice::run_transient(
      ckt_, spice::step_defaults(spec_.t_end));
  WriteMetrics m;
  m.stamp_pattern_builds = ckt_.solver_cache().stats().pattern_builds;
  if (!result.finished) {
    m.note = "transient failed: " + result.failure;
    return m;
  }
  m.energy = result.total_source_energy();
  m.ok = true;
  for (std::size_t i = 0; i < cells_.size(); ++i)
    spec_.check(result, cells_[i], old_word[i], new_word[i], m);
  return m;
}

}  // namespace nemtcam::tcam
