// Minimal logger for the library's warnings and errors.
//
// The simulator is a library: it reports only what a caller should see
// (a failed operating point, an exhausted recovery ladder, a full spare
// pool), always, to stderr. There is no level to raise or lower.
#pragma once

#include <sstream>
#include <string>

namespace nemtcam::log {

enum class Level { Warn, Error };

void write(Level lvl, const std::string& msg);

namespace detail {

template <typename... Args>
void emit(Level lvl, Args&&... args) {
  std::ostringstream os;
  (os << ... << args);
  write(lvl, os.str());
}

}  // namespace detail

template <typename... Args>
void warn(Args&&... args) { detail::emit(Level::Warn, std::forward<Args>(args)...); }
template <typename... Args>
void error(Args&&... args) { detail::emit(Level::Error, std::forward<Args>(args)...); }

}  // namespace nemtcam::log
