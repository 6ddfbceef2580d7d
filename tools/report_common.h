// Slurp-and-parse of JSON documents, shared by bbreport and by
// bbench --replay. Header-only so both tools stay
// single-translation-unit binaries.

#ifndef BLOCKBENCH_TOOLS_REPORT_COMMON_H_
#define BLOCKBENCH_TOOLS_REPORT_COMMON_H_

#include <cstdio>
#include <string>

#include "util/json.h"
#include "util/status.h"

namespace bb::tools {

inline Result<std::string> ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("cannot open " + path);
  }
  std::string text;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  return text;
}

/// Read + parse one JSON document; the error message carries the path.
inline Result<util::Json> LoadJson(const std::string& path) {
  auto text = ReadFile(path);
  if (!text.ok()) return text.status();
  auto doc = util::Json::Parse(*text);
  if (!doc.ok()) {
    return Status::InvalidArgument(path + ": " + doc.status().ToString());
  }
  return doc;
}

}  // namespace bb::tools

#endif  // BLOCKBENCH_TOOLS_REPORT_COMMON_H_
