#include "src/util/env.h"

#include <algorithm>
#include <cstdlib>

namespace cloudgen {
namespace {

double GetEnvDouble(const std::string& name, double fallback) {
  const char* value = std::getenv(name.c_str());
  if (value == nullptr || value[0] == '\0') {
    return fallback;
  }
  char* end = nullptr;
  const double parsed = std::strtod(value, &end);
  if (end == value) {
    return fallback;
  }
  return parsed;
}

}  // namespace

long GetEnvLong(const std::string& name, long fallback) {
  const char* value = std::getenv(name.c_str());
  if (value == nullptr || value[0] == '\0') {
    return fallback;
  }
  char* end = nullptr;
  const long parsed = std::strtol(value, &end, 10);
  if (end == value) {
    return fallback;
  }
  return parsed;
}

std::string GetEnvString(const std::string& name, const std::string& fallback) {
  const char* value = std::getenv(name.c_str());
  if (value == nullptr || value[0] == '\0') {
    return fallback;
  }
  return value;
}

double ExperimentScale() {
  return std::max(0.05, GetEnvDouble("CLOUDGEN_SCALE", 1.0));
}

}  // namespace cloudgen
