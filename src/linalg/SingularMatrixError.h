// Thrown by SparseLu when a pivot column has no usable entry (a floating
// node or a degenerate topology). Newton reports it as a singular solve,
// which the recovery ladder (spice/Recovery.h) then handles.
#pragma once

#include <stdexcept>

namespace nemtcam::linalg {

struct SingularMatrixError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

}  // namespace nemtcam::linalg
