// Environment-variable helpers for experiment scaling.
//
// CLOUDGEN_SCALE multiplies dataset sizes / sample counts in the bench
// harnesses: 1 (default) runs a CPU-friendly configuration; larger values
// approach the paper's scale.
#ifndef SRC_UTIL_ENV_H_
#define SRC_UTIL_ENV_H_

#include <string>

namespace cloudgen {

// Returns the env var value or `fallback` when unset/invalid.
long GetEnvLong(const std::string& name, long fallback);
std::string GetEnvString(const std::string& name, const std::string& fallback);

// CLOUDGEN_SCALE as a double (1.0 when unset/invalid), clamped to >= 0.05.
double ExperimentScale();

}  // namespace cloudgen

#endif  // SRC_UTIL_ENV_H_
