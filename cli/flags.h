// Minimal --flag=value / --flag value command-line parsing for the cloudgen
// CLI. Parse stores every `--name`, known or not; a command reads only the
// flags it documents in Usage(), so an unknown flag is accepted and ignored.
#ifndef CLI_FLAGS_H_
#define CLI_FLAGS_H_

#include <cstdlib>
#include <map>
#include <string>
#include <vector>

namespace cloudgen {

class Flags {
 public:
  // Parses argv[first..argc); returns false (with a message to stderr) on
  // malformed input.
  bool Parse(int argc, char** argv, int first);

  bool Has(const std::string& name) const { return values_.count(name) > 0; }
  std::string GetString(const std::string& name, const std::string& fallback) const;
  long GetLong(const std::string& name, long fallback) const;
  double GetDouble(const std::string& name, double fallback) const;

 private:
  std::map<std::string, std::string> values_;
};

inline bool Flags::Parse(int argc, char** argv, int first) {
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
      return false;
    }
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = std::string("1");  // Boolean flag.
    }
  }
  return true;
}

inline std::string Flags::GetString(const std::string& name,
                                    const std::string& fallback) const {
  const auto it = values_.find(name);
  return it != values_.end() ? it->second : fallback;
}

inline long Flags::GetLong(const std::string& name, long fallback) const {
  const auto it = values_.find(name);
  return it != values_.end() ? std::strtol(it->second.c_str(), nullptr, 10) : fallback;
}

inline double Flags::GetDouble(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  return it != values_.end() ? std::strtod(it->second.c_str(), nullptr) : fallback;
}

}  // namespace cloudgen

#endif  // CLI_FLAGS_H_
