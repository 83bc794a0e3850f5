#include "tcam/SearchTemplate.h"

#include "devices/Passive.h"
#include "sta/Rules.h"
#include "sta/Sta.h"
#include "tcam/StaBridge.h"

namespace nemtcam::tcam {

SearchTemplate::SearchTemplate(SearchTemplateSpec spec, int width,
                               int array_rows)
    : spec_(std::move(spec)), width_(width), array_rows_(array_rows) {
  NEMTCAM_EXPECT(static_cast<bool>(spec_.bind));
  NEMTCAM_EXPECT(!spec_.cell.ports.empty());
}

void SearchTemplate::build(const core::TernaryWord& key,
                           const core::TernaryWord& stored) {
  fx_ = std::make_unique<SearchFixture>(spec_.cal, spec_.geo, width_,
                                        array_rows_, key,
                                        spec_.c_sl_gate_per_row);
  cells_.clear();
  cells_.reserve(static_cast<std::size_t>(width_));

  // The fixture's nets take precedence over a shared rail of the same name.
  PortNets nets = fx_->port_nets();
  if (spec_.shared_rails)
    nets.row.merge(spec_.shared_rails(fx_->circuit(), fx_->vdd()));
  if (spec_.c_ml_load_per_cell > 0.0)
    fx_->circuit().add<devices::Capacitor>("Cel_ml", fx_->ml(),
                                           fx_->circuit().ground(),
                                           width_ * spec_.c_ml_load_per_cell);

  for (int i = 0; i < width_; ++i)
    cells_.push_back(elaborate_cell(fx_->circuit(), spec_.cell,
                                    "Xcell" + std::to_string(i), nets, i,
                                    spec_.cell.params));

  if (spec_.array_rules)
    spec_.array_rules(
        ArrayRowContext{fx_->checker(), fx_->ml(), fx_->vdd(), 0, width_, ""},
        stored);
  // Quantitative STA margin rules ride the same checker pass as the
  // structural rules, at this row's width-scaled strobe. They see the
  // circuit as bound for the first search after the (re)build.
  if (sta::default_enabled())
    fx_->checker().add_rule(sta::margin_rules(
        {"ml"}, sta_options_for(spec_.cal, default_strobe())));
  built_key_ = key;
  built_stored_ = stored;
  ++builds_;
}

void SearchTemplate::ensure_built(const core::TernaryWord& key,
                                  const core::TernaryWord& stored) {
  if (!fx_ || built_stored_ != stored) {
    build(key, stored);
  } else if (built_key_ != key) {
    fx_->rebind_key(key);
    built_key_ = key;
  }
}

SearchMetrics SearchTemplate::search(const core::TernaryWord& key,
                                     const core::TernaryWord& stored,
                                     double strobe_delay) {
  ensure_built(key, stored);

  spice::Circuit& ckt = fx_->circuit();
  ckt.reset_device_states();
  for (int i = 0; i < width_; ++i)
    spec_.bind(ckt, cells_[static_cast<std::size_t>(i)],
               stored[static_cast<std::size_t>(i)]);

  const auto result = fx_->run();
  return fx_->metrics(result, strobe_delay);
}

}  // namespace nemtcam::tcam
