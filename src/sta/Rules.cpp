#include "sta/Rules.h"

#include <cmath>

#include "sta/Sta.h"

namespace nemtcam::sta {

namespace {

// Guard band the nominal ML level must clear around the sense threshold
// at the strobe.
constexpr double kSenseMarginMin = 0.05;  // V
// Required ratio of retention bound to refresh period.
constexpr double kRefreshSafety = 2.0;

std::string volts(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3g V", v);
  return buf;
}

std::string seconds(double t) {
  char buf[32];
  if (std::isinf(t))
    std::snprintf(buf, sizeof buf, "inf");
  else
    std::snprintf(buf, sizeof buf, "%.3g ns", t * 1e9);
  return buf;
}

}  // namespace

erc::Checker::CustomRule margin_rules(std::vector<std::string> ml_probes,
                                      StaOptions opt) {
  return [probes = std::move(ml_probes), opt](spice::Circuit& c,
                                              const erc::NodeGraph&,
                                              erc::Report& report) {
    const StaReport sta = analyze(c, probes, opt);

    for (const auto& ml : sta.mls) {
      if (!ml.valid) continue;
      // The nominal strobe level must clear the comparator threshold by
      // the guard band on whichever side it lands — a level inside the
      // band means the sense amp is deciding a coin flip.
      if (std::abs(ml.sense_margin) < kSenseMarginMin) {
        erc::Finding f;
        f.rule = "sta.sense-margin";
        f.severity = erc::Severity::Warning;
        f.message = "matchline '" + ml.node + "' sits at " +
                    volts(ml.v_strobe_nom) + " at the sense strobe, within " +
                    volts(kSenseMarginMin) + " of the " +
                    volts(opt.v_sense) + " threshold (precharge reaches " +
                    volts(ml.v0) + ")";
        f.nodes = {ml.node};
        f.hint =
            "widen the precharge device or precharge window, slow the "
            "strobe, or reduce matchline leakage/droop";
        report.add(std::move(f));
      }
    }

    for (const auto& line : sta.lines) {
      if (line.t_settle_hi <= opt.t_strobe) continue;
      erc::Finding f;
      f.rule = "sta.sl-ladder-delay";
      f.severity = erc::Severity::Warning;
      f.message = "driven line '" + line.node + "' settles in " +
                  seconds(line.t_settle_hi) + " (Elmore m1 " +
                  seconds(line.m1) + " over " + std::to_string(line.n_nodes) +
                  " nodes), past the " + seconds(opt.t_strobe) +
                  " sense strobe";
      f.nodes = {line.node};
      f.devices = {line.driver};
      f.hint =
          "shorten or segment the line, strengthen the driver, or delay "
          "the strobe";
      report.add(std::move(f));
    }

    if (opt.refresh_period > 0.0) {
      for (const auto& r : sta.retention) {
        if (r.t_retention >= kRefreshSafety * opt.refresh_period) continue;
        erc::Finding f;
        f.rule = "sta.refresh-window";
        f.severity = erc::Severity::Error;
        f.message = "storage node '" + r.node + "' (" + r.device +
                    ") retains for " + seconds(r.t_retention) +
                    " but the refresh period is " +
                    seconds(opt.refresh_period) + " (x" +
                    std::to_string(kRefreshSafety).substr(0, 4) +
                    " safety): stored state decays below its hold level "
                    "before the next one-shot refresh";
        f.nodes = {r.node};
        f.devices = {r.device};
        f.hint =
            "shorten the refresh period, reduce storage-node leakage, or "
            "raise the stored level";
        report.add(std::move(f));
      }
    }
  };
}

}  // namespace nemtcam::sta
