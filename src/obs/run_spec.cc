#include "obs/run_spec.h"

#include <cmath>
#include <variant>

namespace bb::obs {

namespace {

using Crashes = std::vector<std::pair<uint64_t, double>>;
using Field = std::variant<std::string RunSpec::*, uint64_t RunSpec::*,
                           double RunSpec::*, Crashes RunSpec::*>;

/// Every field under its JSON key, in the order dumps write them.
const std::pair<const char*, Field> kFields[] = {
    {"platform", &RunSpec::platform},
    {"workload", &RunSpec::workload},
    {"servers", &RunSpec::servers},
    {"clients", &RunSpec::clients},
    {"cross_shard", &RunSpec::cross_shard},
    {"rate", &RunSpec::rate},
    {"duration", &RunSpec::duration},
    {"warmup", &RunSpec::warmup},
    {"drain", &RunSpec::drain},
    {"max_outstanding", &RunSpec::max_outstanding},
    {"seed", &RunSpec::seed},
    {"platform_seed", &RunSpec::platform_seed},
    {"driver_seed", &RunSpec::driver_seed},
    {"ycsb_records", &RunSpec::ycsb_records},
    {"smallbank_accounts", &RunSpec::smallbank_accounts},
    {"crashes", &RunSpec::crashes},
    {"partition_start", &RunSpec::partition_start},
    {"partition_end", &RunSpec::partition_end},
    {"delay", &RunSpec::delay},
    {"corrupt", &RunSpec::corrupt},
};

Status Bad(const std::string& field, const std::string& what) {
  return Status::InvalidArgument("run spec \"" + field + "\" " + what);
}

util::Json ToJsonValue(const std::string& v) { return v; }
util::Json ToJsonValue(uint64_t v) { return v; }
util::Json ToJsonValue(double v) { return v; }
util::Json ToJsonValue(const Crashes& crashes) {
  util::Json cr = util::Json::Array();
  for (const auto& [id, t] : crashes) {
    util::Json c = util::Json::Array();
    c.Push(id);
    c.Push(t);
    cr.Push(std::move(c));
  }
  return cr;
}

Status Read(const util::Json& v, const std::string& field, std::string* out) {
  if (!v.is_string()) return Bad(field, "is not a string");
  *out = v.AsString();
  return Status::Ok();
}

/// Counts and seeds: whole numbers in [0, 2^53], which a double holds
/// exactly.
Status Read(const util::Json& v, const std::string& field, uint64_t* out) {
  if (!v.is_number()) return Bad(field, "is not a number");
  double d = v.AsDouble();
  if (!(d >= 0) || d > 9007199254740992.0 || std::floor(d) != d) {
    return Bad(field, "is not a whole number in [0, 2^53]");
  }
  *out = uint64_t(d);
  return Status::Ok();
}

Status Read(const util::Json& v, const std::string& field, double* out) {
  if (!v.is_number()) return Bad(field, "is not a number");
  *out = v.AsDouble();
  return Status::Ok();
}

Status Read(const util::Json& v, const std::string& field, Crashes* out) {
  if (!v.is_array()) return Bad(field, "is not an array");
  for (const auto& c : v.items()) {
    if (!c.is_array() || c.size() != 2) {
      return Bad(field, "entry is not [id, t]");
    }
    uint64_t id = 0;
    double t = 0;
    BB_RETURN_IF_ERROR(Read(c.items()[0], field, &id));
    BB_RETURN_IF_ERROR(Read(c.items()[1], field, &t));
    if (t < 0) return Bad(field, "entry has a negative time");
    out->emplace_back(id, t);
  }
  return Status::Ok();
}

}  // namespace

util::Json RunSpec::ToJson() const {
  util::Json run = util::Json::Object();
  for (const auto& [key, field] : kFields) {
    std::visit([&](auto member) { run.Set(key, ToJsonValue(this->*member)); },
               field);
  }
  return run;
}

Result<RunSpec> RunSpec::FromJson(const util::Json& run) {
  if (!run.is_object()) {
    return Status::InvalidArgument("run spec is not an object");
  }
  // Required fields: a dump a replay cannot faithfully re-run from is a
  // validation error, not a silent default.
  const char* required[] = {"platform", "workload", "servers",       "clients",
                            "rate",     "duration", "warmup",        "drain",
                            "seed",     "platform_seed", "driver_seed"};
  for (const char* key : required) {
    if (run.Get(key) == nullptr) {
      return Status::InvalidArgument(std::string("run spec missing \"") + key +
                                     "\"");
    }
  }
  RunSpec s;
  for (const auto& [key, field] : kFields) {
    const util::Json* v = run.Get(key);
    if (v == nullptr) continue;  // optional: keeps its default
    BB_RETURN_IF_ERROR(std::visit(
        [&](auto member) { return Read(*v, key, &(s.*member)); }, field));
  }
  if (s.servers == 0) return Bad("servers", "is 0");
  if (s.partition_start >= 0 && s.partition_end < s.partition_start) {
    return Bad("partition_end", "is before \"partition_start\"");
  }
  return s;
}

}  // namespace bb::obs
