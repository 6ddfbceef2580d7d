// Tiny argv helpers: "--key=value" lookups ("--seed=7",
// "--json=out.json") and the whole-string value parsers that bbench and
// the figure flags use. No registry, no allocation beyond the returned
// value.

#ifndef BLOCKBENCH_UTIL_FLAGS_H_
#define BLOCKBENCH_UTIL_FLAGS_H_

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>

namespace bb::util {

/// Returns the value of a "--key=value" flag given its key (e.g.
/// "--jobs"), or nullopt when absent. The last occurrence wins.
inline std::optional<std::string> FlagValue(int argc, char** argv,
                                            const std::string& key) {
  std::optional<std::string> value;
  const std::string prefix = key + "=";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) value = arg.substr(prefix.size());
  }
  return value;
}

/// Whole-string parses for flag values that must be well formed: "4x",
/// "" and "-1" are not counts, and "abc", "inf" and "1e999" are not
/// values. False leaves *out unchanged.
inline bool ParseUint(const std::string& v, uint64_t* out) {
  if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  errno = 0;
  unsigned long long n = std::strtoull(v.c_str(), nullptr, 10);
  if (errno == ERANGE) return false;
  *out = n;
  return true;
}

inline bool ParseDouble(const std::string& v, double* out) {
  if (v.empty()) return false;
  char* end = nullptr;
  double d = std::strtod(v.c_str(), &end);
  if (*end != '\0' || !std::isfinite(d)) return false;
  *out = d;
  return true;
}

/// "--key=N" parsed as uint64, or `fallback` when absent/malformed.
inline uint64_t FlagUint(int argc, char** argv, const std::string& key,
                         uint64_t fallback) {
  auto v = FlagValue(argc, argv, key);
  if (!v || v->empty()) return fallback;
  char* end = nullptr;
  unsigned long long n = std::strtoull(v->c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return fallback;
  return uint64_t(n);
}

/// "--key=X" parsed as double, or `fallback` when absent/malformed.
inline double FlagDouble(int argc, char** argv, const std::string& key,
                         double fallback) {
  auto v = FlagValue(argc, argv, key);
  if (!v || v->empty()) return fallback;
  char* end = nullptr;
  double d = std::strtod(v->c_str(), &end);
  if (end == nullptr || *end != '\0') return fallback;
  return d;
}

}  // namespace bb::util

#endif  // BLOCKBENCH_UTIL_FLAGS_H_
