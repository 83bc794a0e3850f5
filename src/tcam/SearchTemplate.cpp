#include "tcam/SearchTemplate.h"

#include "tcam/ArrayTemplate.h"

namespace nemtcam::tcam {

SearchTemplate::SearchTemplate(SearchTemplateSpec spec, int width,
                               int array_rows)
    : arr_(std::make_unique<ArrayTemplate>(std::move(spec), /*rows=*/1, width,
                                           ArrayOptions{}, array_rows)) {}

SearchTemplate::~SearchTemplate() = default;

void SearchTemplate::ensure_built(const core::TernaryWord& key,
                                  const core::TernaryWord& stored) {
  arr_->store(0, stored);
  arr_->ensure_built(key);
}

SearchMetrics SearchTemplate::search(const core::TernaryWord& key,
                                     const core::TernaryWord& stored,
                                     double strobe_delay) {
  arr_->store(0, stored);
  ArraySearchMetrics am = arr_->search(key, strobe_delay);
  SearchMetrics m;
  m.ok = am.ok;
  m.energy = am.energy;
  m.steps = am.steps;
  m.steps_rejected = am.steps_rejected;
  m.newton_iters = am.newton_iters;
  m.erc_errors = am.erc_errors;
  m.erc_warnings = am.erc_warnings;
  m.stamp_pattern_builds = am.stamp_pattern_builds;
  m.note = std::move(am.note);
  if (!am.rows.empty()) {
    const ArrayRowResult& row = am.rows.front();
    m.matched = row.matched;
    m.latency = row.latency;
    m.ml_final = row.ml_final;
    m.ml_min = row.ml_min;
    m.sta = row.sta;
    m.sta.analysis_seconds = am.sta.analysis_seconds;
  }
  return m;
}

spice::Circuit* SearchTemplate::circuit() noexcept {
  return arr_->fixture() ? &arr_->fixture()->circuit() : nullptr;
}

std::uint64_t SearchTemplate::builds() const noexcept {
  return arr_->builds();
}

const SearchTemplateSpec& SearchTemplate::spec() const noexcept {
  return arr_->spec();
}

double SearchTemplate::default_strobe() const {
  return arr_->default_strobe();
}

double SearchTemplate::t_edge() const { return arr_->t_edge(); }

}  // namespace nemtcam::tcam
