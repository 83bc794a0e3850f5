#include "util/Log.h"

#include <cstdio>
#include <mutex>

namespace nemtcam::log {

namespace {

std::mutex g_mutex;

const char* name_of(Level lvl) {
  return lvl == Level::Warn ? "WARN" : "ERROR";
}

}  // namespace

void write(Level lvl, const std::string& msg) {
  std::lock_guard<std::mutex> lock(g_mutex);
  std::fprintf(stderr, "[nemtcam %s] %s\n", name_of(lvl), msg.c_str());
}

}  // namespace nemtcam::log
