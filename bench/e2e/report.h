// Flag parsing and JSON output shared by e2e_loadgen and e2e_probe.
#ifndef TALUS_BENCH_E2E_REPORT_H_
#define TALUS_BENCH_E2E_REPORT_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

namespace talus {
namespace e2e {

/// Value of --name=VALUE, or `def` when absent.
inline std::string FlagValue(int argc, char** argv, const char* name,
                             const char* def) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; i++) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return argv[i] + prefix.size();
    }
  }
  return def;
}

inline bool FlagPresent(int argc, char** argv, const char* name) {
  const std::string flag = std::string("--") + name;
  for (int i = 1; i < argc; i++) {
    if (flag == argv[i]) return true;
  }
  return false;
}

inline std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20 ||
               static_cast<unsigned char>(c) >= 0x7f) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned char>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

inline std::string JsonNumber(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

/// Nearest-rank percentile of `sorted` (ascending), 0 when empty.
inline uint64_t Percentile(const std::vector<uint64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  const size_t rank = static_cast<size_t>(p / 100.0 *
                                          static_cast<double>(sorted.size()));
  return sorted[std::min(rank, sorted.size() - 1)];
}

}  // namespace e2e
}  // namespace talus

#endif  // TALUS_BENCH_E2E_REPORT_H_
