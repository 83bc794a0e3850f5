#include "spice/Circuit.h"

namespace nemtcam::spice {

namespace {
const std::string kGroundName = "0";
}

NodeId Circuit::node(const std::string& name) {
  if (name == "0" || name == "gnd" || name == "GND") return kGround;
  auto it = name_to_id_.find(name);
  if (it != name_to_id_.end()) return it->second;
  names_.push_back(name);
  const NodeId id = static_cast<NodeId>(names_.size());
  name_to_id_.emplace(name, id);
  return id;
}

NodeId Circuit::make_node() {
  return node("_n" + std::to_string(anon_counter_++));
}

Device* Circuit::find(const std::string& name) {
  for (const auto& dev : devices_)
    if (dev->name() == name) return dev.get();
  return nullptr;
}

bool Circuit::has_node(const std::string& name) const {
  if (name == "0" || name == "gnd" || name == "GND") return true;
  return name_to_id_.count(name) > 0;
}

bool Circuit::rebind_source(const std::string& name,
                            std::unique_ptr<Waveform> wave) {
  Device* dev = find(name);
  if (dev == nullptr) return false;
  return dev->rebind_wave(std::move(wave));
}

void Circuit::reset_device_states() {
  for (const auto& dev : devices_) dev->reset_state();
}

void Circuit::save_device_states(std::vector<double>& out) const {
  for (const auto& dev : devices_) dev->save_state(out);
}

void Circuit::load_device_states(const std::vector<double>& states) {
  const double* in = states.data();
  for (const auto& dev : devices_) dev->load_state(in);
  NEMTCAM_EXPECT_MSG(in == states.data() + states.size(),
                     "device states saved from another circuit");
}

util::Digest128 Circuit::state_digest() const {
  util::Digest128 d;
  d.add(static_cast<std::uint64_t>(devices_.size()));
  d.add(static_cast<std::uint64_t>(unknown_count()));
  std::vector<double> words;
  for (const auto& dev : devices_) {
    words.clear();
    dev->append_params(words);
    dev->save_state(words);
    d.add(static_cast<std::uint64_t>(words.size()));
    for (const double w : words) d.add(w);
  }
  for (const auto& [n, volts] : ics_) {
    d.add(static_cast<std::uint64_t>(n));
    d.add(volts);
  }
  return d;
}

const std::string& Circuit::node_name(NodeId n) const {
  if (n == kGround) return kGroundName;
  NEMTCAM_EXPECT(n >= 1 && static_cast<std::size_t>(n) <= names_.size());
  return names_[static_cast<std::size_t>(n - 1)];
}

void Circuit::set_ic(NodeId n, double volts) {
  NEMTCAM_EXPECT_MSG(n != kGround, "cannot set an IC on ground");
  ics_[n] = volts;
}

std::vector<double> Circuit::initial_state() const {
  std::vector<double> v(static_cast<std::size_t>(unknown_count()), 0.0);
  for (const auto& [n, volts] : ics_)
    v[static_cast<std::size_t>(n - 1)] = volts;
  return v;
}

}  // namespace nemtcam::spice
