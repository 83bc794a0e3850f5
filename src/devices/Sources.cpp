#include "devices/Sources.h"

namespace nemtcam::devices {

VSource::VSource(std::string name, NodeId plus, NodeId minus,
                 std::unique_ptr<Waveform> wave, double series_ohms)
    : Device(std::move(name)), plus_(plus), minus_(minus),
      wave_(std::move(wave)), series_ohms_(series_ohms) {
  NEMTCAM_EXPECT(wave_ != nullptr);
  NEMTCAM_EXPECT(series_ohms_ >= 0.0);
}

VSource::VSource(std::string name, NodeId plus, NodeId minus, double dc_volts,
                 double series_ohms)
    : VSource(std::move(name), plus, minus,
              std::make_unique<spice::DcWave>(dc_volts), series_ohms) {}

void VSource::stamp_fixed(Stamper& s, const StampContext& ctx) {
  s.voltage_source(plus_, minus_, first_branch(),
                   ctx.source_scale() * wave_->value(ctx.t()));
  if (series_ohms_ > 0.0)
    s.branch_series_resistance(first_branch(), series_ohms_);
}

double VSource::delivered_power(const StampContext& ctx) const {
  // Branch current flows into the + terminal; power delivered is −EMF · i.
  // Using the EMF (not the terminal voltage) counts the dissipation in the
  // driver's own series resistance as energy drawn from the supply —
  // matching how SPICE benchmarking measures write/search energy.
  const double i = ctx.branch_current(first_branch());
  return -wave_->value(ctx.t()) * i;
}

std::vector<double> VSource::breakpoints(double t_end) const {
  return wave_->breakpoints(t_end);
}

void VSource::set_wave(std::unique_ptr<Waveform> wave) {
  NEMTCAM_EXPECT(wave != nullptr);
  wave_ = std::move(wave);
}

ISource::ISource(std::string name, NodeId from, NodeId to,
                 std::unique_ptr<Waveform> wave)
    : Device(std::move(name)), from_(from), to_(to), wave_(std::move(wave)) {
  NEMTCAM_EXPECT(wave_ != nullptr);
}

ISource::ISource(std::string name, NodeId from, NodeId to, double dc_amps)
    : ISource(std::move(name), from, to,
              std::make_unique<spice::DcWave>(dc_amps)) {}

void ISource::stamp_fixed(Stamper& s, const StampContext& ctx) {
  s.current(from_, to_, ctx.source_scale() * wave_->value(ctx.t()));
}

double ISource::delivered_power(const StampContext& ctx) const {
  // The source carries current i from `from_` to `to_`; like any two-
  // terminal element it absorbs v_ab·i, so it delivers −v_ab·i.
  const double i = wave_->value(ctx.t());
  return (ctx.v(to_) - ctx.v(from_)) * i;
}

std::vector<double> ISource::breakpoints(double t_end) const {
  return wave_->breakpoints(t_end);
}


spice::DeviceTopology VSource::topology() const {
  spice::DeviceTopology t{{{"plus", plus_}, {"minus", minus_}},
                   {{0, 1, spice::DcCoupling::Conductive}},
                   /*is_source=*/true};
  // Pin model for the STA engine: drive level before the first edge and
  // after the last one. All shipped waveforms (DC, PWL, single PULSE)
  // clamp at the ends, so one sample at a horizon past every transaction
  // window reads the settled level.
  constexpr double kSettleHorizon = 1.0;  // s; far beyond any transaction
  t.source_is_voltage = true;
  t.source_v_init = wave_->value(0.0);
  t.source_v_final = wave_->value(kSettleHorizon);
  t.source_r_series = series_ohms_;
  return t;
}

spice::DeviceTopology ISource::topology() const {
  // An ideal current source is a DC open: it injects current but provides
  // no path, so its nodes still need a conductive route to ground.
  spice::DeviceTopology t{{{"from", from_}, {"to", to_}},
                   {{0, 1, spice::DcCoupling::Open}},
                   /*is_source=*/true};
  return t;
}

}  // namespace nemtcam::devices
