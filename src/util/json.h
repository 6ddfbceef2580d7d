// Minimal JSON value model, writer and parser — just enough for the
// benchmark suite's machine-readable output (--json=<path>) and the
// report tools that validate and gate those files. Objects preserve
// insertion order so emitted files are stable and diffable across runs.

#ifndef BLOCKBENCH_UTIL_JSON_H_
#define BLOCKBENCH_UTIL_JSON_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace bb::util {

/// A JSON document node. Numbers are stored as double (JSON's number
/// model); use AsUint() for counters that fit exactly in 2^53.
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() : type_(Type::kNull) {}
  Json(bool b) : type_(Type::kBool), bool_(b) {}                    // NOLINT
  Json(double d) : type_(Type::kNumber), num_(d) {}                 // NOLINT
  Json(int i) : type_(Type::kNumber), num_(i) {}                    // NOLINT
  Json(uint64_t u) : type_(Type::kNumber), num_(double(u)) {}       // NOLINT
  Json(int64_t i) : type_(Type::kNumber), num_(double(i)) {}        // NOLINT
  Json(const char* s) : type_(Type::kString), str_(s) {}            // NOLINT
  Json(std::string s) : type_(Type::kString), str_(std::move(s)) {} // NOLINT

  static Json Array() {
    Json j;
    j.type_ = Type::kArray;
    return j;
  }
  static Json Object() {
    Json j;
    j.type_ = Type::kObject;
    return j;
  }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool AsBool() const { return is_bool() && bool_; }
  double AsDouble() const { return is_number() ? num_ : 0; }
  /// Saturates at 2^64, where converting to uint64_t is undefined.
  uint64_t AsUint() const {
    if (!is_number() || !(num_ > 0)) return 0;
    return num_ < 0x1p64 ? uint64_t(num_) : UINT64_MAX;
  }
  const std::string& AsString() const { return str_; }

  /// Array access. Push() asserts the value is (or becomes) an array.
  void Push(Json v);
  const std::vector<Json>& items() const { return items_; }
  size_t size() const {
    return is_array() ? items_.size() : is_object() ? members_.size() : 0;
  }

  /// Object access. Set() keeps insertion order and overwrites an
  /// existing key in place; Get() returns nullptr when absent.
  void Set(const std::string& key, Json v);
  const Json* Get(const std::string& key) const;
  const std::vector<std::pair<std::string, Json>>& members() const {
    return members_;
  }

  /// Serializes the document. indent=0 -> compact one-liner; otherwise
  /// pretty-printed with that many spaces per level.
  std::string Dump(int indent = 0) const;
  /// Writes Dump(2) and a newline to `path` through a BufferedWriter:
  /// the first open, write or close error, so a full disk fails it.
  Status WriteFile(const std::string& path) const;

  /// Parses a complete JSON document (trailing garbage is an error).
  static Result<Json> Parse(const std::string& text);

 private:
  void DumpTo(std::string* out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  double num_ = 0;
  std::string str_;
  std::vector<Json> items_;                             // kArray
  std::vector<std::pair<std::string, Json>> members_;   // kObject
};

}  // namespace bb::util

#endif  // BLOCKBENCH_UTIL_JSON_H_
