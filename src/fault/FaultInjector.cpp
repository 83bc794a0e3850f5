#include "fault/FaultInjector.h"

#include <cctype>
#include <string>

#include "devices/Mosfet.h"
#include "devices/NemRelay.h"

namespace nemtcam::fault {

namespace {

// Parses a decimal column index out of [begin, end); returns -1 when the
// range is empty or not all digits.
int parse_col(const std::string& name, std::size_t begin, std::size_t end) {
  if (begin >= end) return -1;
  int col = 0;
  for (std::size_t i = begin; i < end; ++i) {
    if (std::isdigit(static_cast<unsigned char>(name[i])) == 0) return -1;
    col = col * 10 + (name[i] - '0');
  }
  return col;
}

// Array coordinates of a device. row is -1 when the name carries no row
// scope (flat or single-row hierarchical names match any requested row);
// col is -1 when the name matches no known convention.
struct DeviceLoc {
  int row = -1;
  int col = -1;
};

// Three naming conventions: flat "<base>_<col>" ("N1_3"), single-row
// hierarchical "Xcell<col>.<base>" ("Xcell3.N1"), and the two-level array
// scope "Xrow<row>.Xcell<col>.<base>" ("Xrow2.Xcell3.N1") of an N-row
// ArrayTemplate.
DeviceLoc locate(const std::string& name) {
  DeviceLoc loc;
  std::size_t pos = 0;
  if (name.rfind("Xrow", 0) == 0) {
    const std::size_t row_dot = name.find('.');
    if (row_dot == std::string::npos) return {};
    loc.row = parse_col(name, 4, row_dot);
    if (loc.row < 0) return {};
    pos = row_dot + 1;
  }
  const std::size_t dot = name.find('.', pos);
  if (dot != std::string::npos) {
    if (name.compare(pos, 5, "Xcell") != 0) return {};
    loc.col = parse_col(name, pos + 5, dot);
    return loc;
  }
  if (loc.row >= 0) return {};  // "Xrow<r>.<base>" is row hardware, not a cell
  const std::size_t us = name.rfind('_');
  if (us == std::string::npos) return {};
  loc.col = parse_col(name, us + 1, name.size());
  return loc;
}

// Local (scope-stripped) device name: everything after the last '.'.
std::string local_name(const std::string& name) {
  const std::size_t dot = name.rfind('.');
  return dot == std::string::npos ? name : name.substr(dot + 1);
}

bool is_target_relay(const std::string& name, bool on_n1) {
  const char* base = on_n1 ? "N1" : "N2";
  if (name.find('.') != std::string::npos) return local_name(name) == base;
  return name.rfind(std::string(base) + "_", 0) == 0;
}

}  // namespace

int FaultInjector::apply(spice::Circuit& circuit, const FaultSpec& spec) const {
  if (spec.kind == FaultKind::None) return 0;
  int applied = 0;
  for (const auto& dev : circuit.devices()) {
    const DeviceLoc loc = locate(dev->name());
    if (loc.col != spec.col) continue;
    // Row-scoped names must match the spec's row; unscoped names come
    // from single-row circuits, where every device is the spec's row.
    if (loc.row >= 0 && loc.row != spec.row) continue;
    if (auto* relay = dynamic_cast<devices::NemRelay*>(dev.get())) {
      if (!is_target_relay(relay->name(), spec.on_n1)) continue;
      switch (spec.kind) {
        case FaultKind::RelayStuckClosed:
          relay->force_stuck(true);
          ++applied;
          break;
        case FaultKind::RelayStuckOpen:
          relay->force_stuck(false);
          relay->set_off_leakage(kGOffBroken);
          ++applied;
          break;
        case FaultKind::ContactDrift:
          relay->set_contact_resistance(kDriftROn);
          ++applied;
          break;
        case FaultKind::GateLeak:
          relay->set_gate_leakage(kLeakG);
          ++applied;
          break;
        default:
          break;
      }
    } else if (auto* mos = dynamic_cast<devices::Mosfet*>(dev.get())) {
      if (spec.kind != FaultKind::MosVthOutlier) continue;
      // Absolute offset from the design-nominal threshold, not a relative
      // shift: like every relay hook above this is idempotent, so callers
      // may re-apply a fault list to a persistent circuit.
      mos->set_vth_outlier(spec.positive ? kVthShift : -kVthShift);
      ++applied;
    }
  }
  return applied;
}

std::vector<FaultSpec> FaultInjector::inject(spice::Circuit& circuit,
                                             std::uint64_t seed, int width,
                                             const FaultRates& rates) const {
  std::vector<FaultSpec> applied;
  for (int c = 0; c < width; ++c) {
    const FaultSpec spec = fault_at(seed, /*row=*/0, c, rates);
    if (spec.kind == FaultKind::None) continue;
    apply(circuit, spec);
    applied.push_back(spec);
  }
  return applied;
}

}  // namespace nemtcam::fault
