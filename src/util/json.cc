#include "util/json.h"

#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "util/bufwriter.h"

namespace bb::util {
namespace {

void AppendEscaped(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendNumber(std::string* out, double d) {
  if (!std::isfinite(d)) {  // JSON has no inf/nan; closest faithful value
    *out += "null";
    return;
  }
  double rounded = std::nearbyint(d);
  if (rounded == d && std::fabs(d) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", (long long)d);
    *out += buf;
  } else {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", d);
    *out += buf;
  }
}

struct Parser {
  const char* p;
  const char* end;

  void SkipWs() {
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r')) {
      ++p;
    }
  }

  bool Eat(char c) {
    if (p < end && *p == c) {
      ++p;
      return true;
    }
    return false;
  }

  Status Error(const std::string& what) const {
    return Status::InvalidArgument("json: " + what + " at offset " +
                                   std::to_string(size_t(p - start)));
  }

  Result<Json> ParseValue() {
    SkipWs();
    if (p >= end) return Error("unexpected end of input");
    switch (*p) {
      case '{': return ParseObject();
      case '[': return ParseArray();
      case '"': {
        std::string s;
        Status st = ParseString(&s);
        if (!st.ok()) return st;
        return Json(std::move(s));
      }
      case 't':
        if (Literal("true")) return Json(true);
        return Error("bad literal");
      case 'f':
        if (Literal("false")) return Json(false);
        return Error("bad literal");
      case 'n':
        if (Literal("null")) return Json();
        return Error("bad literal");
      default: return ParseNumber();
    }
  }

  bool Literal(const char* lit) {
    size_t n = std::strlen(lit);
    if (size_t(end - p) >= n && std::memcmp(p, lit, n) == 0) {
      p += n;
      return true;
    }
    return false;
  }

  Status ParseString(std::string* out) {
    if (!Eat('"')) return Error("expected string");
    out->clear();
    while (p < end && *p != '"') {
      char c = *p++;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (p >= end) return Error("dangling escape");
      char e = *p++;
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (end - p < 4) return Error("short \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = *p++;
            code <<= 4;
            if (h >= '0' && h <= '9') code |= unsigned(h - '0');
            else if (h >= 'a' && h <= 'f') code |= unsigned(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= unsigned(h - 'A' + 10);
            else return Error("bad \\u escape");
          }
          // UTF-8 encode the BMP code point (surrogate pairs untreated —
          // the bench output never emits them).
          if (code < 0x80) {
            out->push_back(char(code));
          } else if (code < 0x800) {
            out->push_back(char(0xC0 | (code >> 6)));
            out->push_back(char(0x80 | (code & 0x3F)));
          } else {
            out->push_back(char(0xE0 | (code >> 12)));
            out->push_back(char(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(char(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: return Error("bad escape");
      }
    }
    if (!Eat('"')) return Error("unterminated string");
    return Status::Ok();
  }

  Result<Json> ParseNumber() {
    char* num_end = nullptr;
    double d = std::strtod(p, &num_end);
    if (num_end == p || num_end > end) return Error("bad number");
    p = num_end;
    return Json(d);
  }

  Result<Json> ParseArray() {
    Eat('[');
    Json arr = Json::Array();
    SkipWs();
    if (Eat(']')) return arr;
    for (;;) {
      auto v = ParseValue();
      if (!v.ok()) return v;
      arr.Push(std::move(*v));
      SkipWs();
      if (Eat(']')) return arr;
      if (!Eat(',')) return Error("expected ',' or ']'");
    }
  }

  Result<Json> ParseObject() {
    Eat('{');
    Json obj = Json::Object();
    SkipWs();
    if (Eat('}')) return obj;
    for (;;) {
      SkipWs();
      std::string key;
      Status st = ParseString(&key);
      if (!st.ok()) return st;
      SkipWs();
      if (!Eat(':')) return Error("expected ':'");
      auto v = ParseValue();
      if (!v.ok()) return v;
      obj.Set(key, std::move(*v));
      SkipWs();
      if (Eat('}')) return obj;
      if (!Eat(',')) return Error("expected ',' or '}'");
    }
  }

  const char* start;
};

}  // namespace

void Json::Push(Json v) {
  assert(type_ == Type::kArray || type_ == Type::kNull);
  type_ = Type::kArray;
  items_.push_back(std::move(v));
}

void Json::Set(const std::string& key, Json v) {
  assert(type_ == Type::kObject || type_ == Type::kNull);
  type_ = Type::kObject;
  for (auto& [k, existing] : members_) {
    if (k == key) {
      existing = std::move(v);
      return;
    }
  }
  members_.emplace_back(key, std::move(v));
}

const Json* Json::Get(const std::string& key) const {
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

void Json::DumpTo(std::string* out, int indent, int depth) const {
  auto newline = [&](int d) {
    if (indent <= 0) return;
    out->push_back('\n');
    out->append(size_t(indent * d), ' ');
  };
  switch (type_) {
    case Type::kNull: *out += "null"; break;
    case Type::kBool: *out += bool_ ? "true" : "false"; break;
    case Type::kNumber: AppendNumber(out, num_); break;
    case Type::kString: AppendEscaped(out, str_); break;
    case Type::kArray: {
      out->push_back('[');
      for (size_t i = 0; i < items_.size(); ++i) {
        if (i) out->push_back(',');
        newline(depth + 1);
        items_[i].DumpTo(out, indent, depth + 1);
      }
      if (!items_.empty()) newline(depth);
      out->push_back(']');
      break;
    }
    case Type::kObject: {
      out->push_back('{');
      for (size_t i = 0; i < members_.size(); ++i) {
        if (i) out->push_back(',');
        newline(depth + 1);
        AppendEscaped(out, members_[i].first);
        *out += indent > 0 ? ": " : ":";
        members_[i].second.DumpTo(out, indent, depth + 1);
      }
      if (!members_.empty()) newline(depth);
      out->push_back('}');
      break;
    }
  }
}

std::string Json::Dump(int indent) const {
  std::string out;
  DumpTo(&out, indent, 0);
  return out;
}

Status Json::WriteFile(const std::string& path) const {
  BufferedWriter writer;
  BB_RETURN_IF_ERROR(writer.Open(path));
  writer.Append(Dump(2));
  writer.Append('\n');
  return writer.Close();
}

Result<Json> Json::Parse(const std::string& text) {
  Parser parser;
  parser.p = text.data();
  parser.end = text.data() + text.size();
  parser.start = text.data();
  auto v = parser.ParseValue();
  if (!v.ok()) return v;
  parser.SkipWs();
  if (parser.p != parser.end) {
    return parser.Error("trailing characters after document");
  }
  return v;
}

}  // namespace bb::util
