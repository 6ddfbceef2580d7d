#include "obs/profiler.h"

#include <algorithm>
#include <cassert>
#include <cinttypes>
#include <cstdio>

#include "util/bufwriter.h"

namespace bb::obs {

namespace {

constexpr char kProfileSchema[] = "blockbench-profile-v1";

/// Formats nanoseconds as seconds with microsecond precision (plenty
/// for wall-clock data, keeps the JSON readable).
double NsToSeconds(uint64_t ns) { return double(ns) * 1e-9; }

std::string FormatSeconds(double s) {
  char buf[32];
  if (s >= 1.0) {
    std::snprintf(buf, sizeof(buf), "%.3fs", s);
  } else if (s >= 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.2fms", s * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1fus", s * 1e6);
  }
  return buf;
}

std::string FormatBytes(double b) {
  char buf[32];
  if (b >= 1e9) {
    std::snprintf(buf, sizeof(buf), "%.2fGB", b / 1e9);
  } else if (b >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2fMB", b / 1e6);
  } else if (b >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.1fKB", b / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0fB", b);
  }
  return buf;
}

std::string FormatCount(double c) {
  char buf[32];
  if (c >= 1e9) {
    std::snprintf(buf, sizeof(buf), "%.2fG", c / 1e9);
  } else if (c >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2fM", c / 1e6);
  } else if (c >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.1fk", c / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f", c);
  }
  return buf;
}

/// Dotted path from the root to `idx` ("driver.run;consensus.pbft...."
/// uses ';' separators in folded output, '/' in scope rows).
std::string PathOf(const std::vector<prof::ThreadProfile::Node>& nodes,
                   int32_t idx, char sep) {
  std::vector<const char*> parts;
  for (int32_t i = idx; i >= 0; i = nodes[size_t(i)].parent) {
    parts.push_back(nodes[size_t(i)].name);
  }
  std::string out;
  for (size_t i = parts.size(); i-- > 0;) {
    out += parts[i];
    if (i != 0) out.push_back(sep);
  }
  return out;
}

struct ScopeRow {
  std::string path;
  const prof::ThreadProfile::Node* node;
};

std::vector<ScopeRow> SortedScopeRows(
    const std::vector<prof::ThreadProfile::Node>& nodes, char sep) {
  std::vector<ScopeRow> rows;
  rows.reserve(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].count == 0 && nodes[i].alloc_count == 0 &&
        nodes[i].copy_count == 0) {
      continue;  // created but never completed (open at merge)
    }
    rows.push_back(ScopeRow{PathOf(nodes, int32_t(i), sep), &nodes[i]});
  }
  std::sort(rows.begin(), rows.end(),
            [](const ScopeRow& a, const ScopeRow& b) { return a.path < b.path; });
  return rows;
}

/// Pulls "subsystems" entries out of a parsed profile doc as
/// (name, self_seconds, alloc_bytes, copy_bytes, alloc_count,
/// copy_count) rows in document order.
struct SubsystemRow {
  std::string name;
  double self_seconds = 0;
  double alloc_count = 0;
  double alloc_bytes = 0;
  double copy_count = 0;
  double copy_bytes = 0;
};

std::vector<SubsystemRow> SubsystemRows(const util::Json& profile) {
  std::vector<SubsystemRow> rows;
  const util::Json* subs = profile.Get("subsystems");
  if (subs == nullptr || !subs->is_object()) return rows;
  for (const auto& [name, v] : subs->members()) {
    SubsystemRow r;
    r.name = name;
    if (const util::Json* x = v.Get("self_seconds")) r.self_seconds = x->AsDouble();
    if (const util::Json* x = v.Get("alloc_count")) r.alloc_count = x->AsDouble();
    if (const util::Json* x = v.Get("alloc_bytes")) r.alloc_bytes = x->AsDouble();
    if (const util::Json* x = v.Get("copy_count")) r.copy_count = x->AsDouble();
    if (const util::Json* x = v.Get("copy_bytes")) r.copy_bytes = x->AsDouble();
    rows.push_back(std::move(r));
  }
  return rows;
}

double ProfileDuration(const util::Json& profile) {
  const util::Json* d = profile.Get("duration_seconds");
  return d != nullptr ? d->AsDouble() : 0;
}

double ProfileEvents(const util::Json& profile) {
  const util::Json* e = profile.Get("events");
  return e != nullptr ? e->AsDouble() : 0;
}

}  // namespace

// --- Profiler lifecycle ------------------------------------------------------

Profiler::Profiler() : start_ns_(prof::NowNs()) {}

Profiler::~Profiler() {
  assert(prof::g_thread_profile == nullptr &&
         "destroying a Profiler while a thread is still attached");
}

void Profiler::AttachCurrentThread() {
  assert(prof::g_thread_profile == nullptr &&
         "thread already attached to a profiler");
  prof::g_thread_profile = new prof::ThreadProfile();
}

void Profiler::DetachCurrentThread() {
  prof::ThreadProfile* tp = prof::g_thread_profile;
  if (tp == nullptr) return;
  prof::g_thread_profile = nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  MergeLocked(std::unique_ptr<prof::ThreadProfile>(tp));
}

void Profiler::MergeLocked(std::unique_ptr<prof::ThreadProfile> tp) {
  if (merged_ == nullptr) {
    merged_ = std::make_unique<prof::ThreadProfile>();
  }
  merged_->MergeFrom(*tp);
  if (!tp->samples().empty()) {
    ThreadSamples ts;
    ts.thread_index = threads_merged_;
    ts.samples = tp->samples();
    // Re-base sample timestamps from thread-attach onto this
    // Profiler's clock so multi-thread timelines share one x axis.
    uint64_t base =
        tp->attach_ns() > start_ns_ ? tp->attach_ns() - start_ns_ : 0;
    for (auto& s : ts.samples) s.at_ns += base;
    samples_.push_back(std::move(ts));
  }
  ++threads_merged_;
}

void Profiler::Stop() {
  std::lock_guard<std::mutex> lock(mu_);
  if (stop_ns_ == 0) stop_ns_ = prof::NowNs();
}

double Profiler::duration_seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t end = stop_ns_ != 0 ? stop_ns_ : prof::NowNs();
  return NsToSeconds(end - start_ns_);
}

double Profiler::attributed_seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (merged_ == nullptr) return 0;
  uint64_t ns = 0;
  for (const auto& n : merged_->nodes()) {
    if (n.parent < 0) ns += n.total_ns;
  }
  return NsToSeconds(ns);
}

uint64_t Profiler::subsystem_self_ns(uint8_t s) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (merged_ == nullptr || s >= prof::kNumSubsystems) return 0;
  return merged_->subsys_self_ns()[s];
}

uint64_t Profiler::total_alloc_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = 0;
  if (merged_ != nullptr) {
    for (const auto& node : merged_->nodes()) n += node.alloc_count;
  }
  return n;
}

uint64_t Profiler::total_alloc_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = 0;
  if (merged_ != nullptr) {
    for (const auto& node : merged_->nodes()) n += node.alloc_bytes;
  }
  return n;
}

uint64_t Profiler::total_copy_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = 0;
  if (merged_ != nullptr) {
    for (const auto& node : merged_->nodes()) n += node.copy_count;
  }
  return n;
}

uint64_t Profiler::total_copy_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = 0;
  if (merged_ != nullptr) {
    for (const auto& node : merged_->nodes()) n += node.copy_bytes;
  }
  return n;
}

// --- Export ------------------------------------------------------------------

util::Json Profiler::ToJson() const {
  const_cast<Profiler*>(this)->Stop();
  std::lock_guard<std::mutex> lock(mu_);

  util::Json doc = util::Json::Object();
  doc.Set("schema", kProfileSchema);
  doc.Set("duration_seconds", NsToSeconds(stop_ns_ - start_ns_));
  doc.Set("threads", uint64_t(threads_merged_));
  if (events_ > 0) doc.Set("events", events_);

  // Per-subsystem rollup: fixed enum order (deterministic), zero rows
  // omitted so quiet subsystems don't pad every profile.
  util::Json subsystems = util::Json::Object();
  uint64_t subsys_alloc_count[prof::kNumSubsystems] = {};
  uint64_t subsys_alloc_bytes[prof::kNumSubsystems] = {};
  uint64_t subsys_copy_count[prof::kNumSubsystems] = {};
  uint64_t subsys_copy_bytes[prof::kNumSubsystems] = {};
  uint64_t total_alloc_count = 0, total_alloc_bytes = 0;
  uint64_t total_copy_count = 0, total_copy_bytes = 0;
  if (merged_ != nullptr) {
    for (const auto& n : merged_->nodes()) {
      subsys_alloc_count[n.subsystem] += n.alloc_count;
      subsys_alloc_bytes[n.subsystem] += n.alloc_bytes;
      subsys_copy_count[n.subsystem] += n.copy_count;
      subsys_copy_bytes[n.subsystem] += n.copy_bytes;
      total_alloc_count += n.alloc_count;
      total_alloc_bytes += n.alloc_bytes;
      total_copy_count += n.copy_count;
      total_copy_bytes += n.copy_bytes;
    }
    for (uint8_t s = 0; s < prof::kNumSubsystems; ++s) {
      uint64_t self = merged_->subsys_self_ns()[s];
      if (self == 0 && subsys_alloc_count[s] == 0 && subsys_copy_count[s] == 0) {
        continue;
      }
      util::Json row = util::Json::Object();
      row.Set("self_seconds", NsToSeconds(self));
      if (subsys_alloc_count[s] > 0) {
        row.Set("alloc_count", subsys_alloc_count[s]);
        row.Set("alloc_bytes", subsys_alloc_bytes[s]);
      }
      if (subsys_copy_count[s] > 0) {
        row.Set("copy_count", subsys_copy_count[s]);
        row.Set("copy_bytes", subsys_copy_bytes[s]);
      }
      subsystems.Set(prof::SubsystemName(s), std::move(row));
    }
  }
  doc.Set("subsystems", std::move(subsystems));

  // Per-scope tree rows, path-sorted for deterministic key order.
  util::Json scopes = util::Json::Array();
  if (merged_ != nullptr) {
    for (const auto& row : SortedScopeRows(merged_->nodes(), '/')) {
      const auto& n = *row.node;
      util::Json s = util::Json::Object();
      s.Set("path", row.path);
      s.Set("subsystem", prof::SubsystemName(n.subsystem));
      s.Set("count", n.count);
      s.Set("total_seconds", NsToSeconds(n.total_ns));
      s.Set("self_seconds", NsToSeconds(n.self_ns));
      if (n.alloc_count > 0) {
        s.Set("alloc_count", n.alloc_count);
        s.Set("alloc_bytes", n.alloc_bytes);
      }
      if (n.copy_count > 0) {
        s.Set("copy_count", n.copy_count);
        s.Set("copy_bytes", n.copy_bytes);
      }
      scopes.Push(std::move(s));
    }
  }
  doc.Set("scopes", std::move(scopes));

  util::Json counters = util::Json::Object();
  counters.Set("alloc_count", total_alloc_count);
  counters.Set("alloc_bytes", total_alloc_bytes);
  counters.Set("copy_count", total_copy_count);
  counters.Set("copy_bytes", total_copy_bytes);
  if (events_ > 0) {
    counters.Set("allocs_per_event", double(total_alloc_count) / double(events_));
    counters.Set("copied_bytes_per_event",
                 double(total_copy_bytes) / double(events_));
  }
  doc.Set("counters", std::move(counters));

  // Counter timeline: per-thread cumulative self-seconds samples.
  util::Json timeline = util::Json::Array();
  for (const auto& ts : samples_) {
    for (const auto& s : ts.samples) {
      util::Json point = util::Json::Object();
      point.Set("thread", uint64_t(ts.thread_index));
      point.Set("at_seconds", NsToSeconds(s.at_ns));
      util::Json vals = util::Json::Object();
      for (uint8_t i = 0; i < prof::kNumSubsystems; ++i) {
        if (s.subsys_self_ns[i] == 0) continue;
        vals.Set(prof::SubsystemName(i), NsToSeconds(s.subsys_self_ns[i]));
      }
      point.Set("self_seconds", std::move(vals));
      timeline.Push(std::move(point));
    }
  }
  doc.Set("timeline", std::move(timeline));
  return doc;
}

util::Json Profiler::ToSweepJson() const {
  util::Json full = ToJson();
  util::Json doc = util::Json::Object();
  doc.Set("duration_seconds", *full.Get("duration_seconds"));
  doc.Set("threads", *full.Get("threads"));
  doc.Set("subsystems", *full.Get("subsystems"));
  doc.Set("counters", *full.Get("counters"));
  return doc;
}

std::string Profiler::DumpFolded() const {
  const_cast<Profiler*>(this)->Stop();
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  if (merged_ == nullptr) return out;
  for (const auto& row : SortedScopeRows(merged_->nodes(), ';')) {
    if (row.node->self_ns == 0) continue;
    char buf[32];
    std::snprintf(buf, sizeof(buf), " %" PRIu64 "\n",
                  row.node->self_ns / 1000);  // folded value = self µs
    out += row.path;
    out += buf;
  }
  return out;
}

Status Profiler::WriteFolded(const std::string& path) const {
  util::BufferedWriter writer;
  BB_RETURN_IF_ERROR(writer.Open(path));
  writer.Append(DumpFolded());
  return writer.Close();
}

Status Profiler::WritePerfettoCounters(const std::string& path) const {
  const_cast<Profiler*>(this)->Stop();
  std::lock_guard<std::mutex> lock(mu_);
  util::BufferedWriter writer;
  BB_RETURN_IF_ERROR(writer.Open(path));
  writer.Append("{\"traceEvents\":[\n");
  writer.Append(
      "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\","
      "\"args\":{\"name\":\"wall profiler\"}}");
  std::string line;
  for (const auto& ts : samples_) {
    for (const auto& s : ts.samples) {
      for (uint8_t i = 0; i < prof::kNumSubsystems; ++i) {
        if (s.subsys_self_ns[i] == 0) continue;
        char buf[224];
        std::snprintf(
            buf, sizeof(buf),
            ",\n{\"ph\":\"C\",\"pid\":0,\"tid\":%zu,\"id\":\"%zu\","
            "\"ts\":%.3f,\"cat\":\"prof\",\"name\":\"prof.%s\","
            "\"args\":{\"self_ms\":%.3f}}",
            ts.thread_index, ts.thread_index, double(s.at_ns) * 1e-3,
            prof::SubsystemName(i), double(s.subsys_self_ns[i]) * 1e-6);
        writer.Append(buf);
      }
    }
  }
  writer.Append("\n],\"displayTimeUnit\":\"ms\"}\n");
  return writer.Close();
}

Status Profiler::WriteJson(const std::string& path) const {
  return ToJson().WriteFile(path);
}

// --- Report rendering (bbreport prof) ----------------------------------------

std::string RenderProfileAttribution(const util::Json& profile) {
  std::string out;
  char buf[256];
  double duration = ProfileDuration(profile);
  double events = ProfileEvents(profile);
  std::vector<SubsystemRow> rows = SubsystemRows(profile);
  std::sort(rows.begin(), rows.end(),
            [](const SubsystemRow& a, const SubsystemRow& b) {
              return a.self_seconds > b.self_seconds;
            });

  std::snprintf(buf, sizeof(buf), "%-14s %10s %7s %12s %12s\n", "subsystem",
                "self", "%wall", "allocs", "copied");
  out += buf;
  double attributed = 0;
  for (const auto& r : rows) {
    if (r.name != "other") attributed += r.self_seconds;
    std::snprintf(buf, sizeof(buf), "%-14s %10s %6.1f%% %12s %12s\n",
                  r.name.c_str(), FormatSeconds(r.self_seconds).c_str(),
                  duration > 0 ? 100.0 * r.self_seconds / duration : 0.0,
                  FormatCount(r.alloc_count).c_str(),
                  FormatBytes(r.copy_bytes).c_str());
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), "%-14s %10s %6.1f%%\n", "attributed",
                FormatSeconds(attributed).c_str(),
                duration > 0 ? 100.0 * attributed / duration : 0.0);
  out += buf;
  if (const util::Json* counters = profile.Get("counters")) {
    double ac = 0, ab = 0, cc = 0, cb = 0;
    if (const util::Json* x = counters->Get("alloc_count")) ac = x->AsDouble();
    if (const util::Json* x = counters->Get("alloc_bytes")) ab = x->AsDouble();
    if (const util::Json* x = counters->Get("copy_count")) cc = x->AsDouble();
    if (const util::Json* x = counters->Get("copy_bytes")) cb = x->AsDouble();
    std::snprintf(buf, sizeof(buf),
                  "allocs: %s (%s)   copies: %s (%s)", FormatCount(ac).c_str(),
                  FormatBytes(ab).c_str(), FormatCount(cc).c_str(),
                  FormatBytes(cb).c_str());
    out += buf;
    if (events > 0) {
      std::snprintf(buf, sizeof(buf), "   %.2f allocs/event, %s copied/event",
                    ac / events, FormatBytes(cb / events).c_str());
      out += buf;
    }
    out += "\n";
  }
  return out;
}

std::string RenderProfileDiff(const util::Json& before,
                              const util::Json& after) {
  struct DiffRow {
    std::string name;
    SubsystemRow b, a;
    double delta() const { return a.self_seconds - b.self_seconds; }
  };
  std::vector<DiffRow> rows;
  auto find = [&rows](const std::string& name) -> DiffRow& {
    for (auto& r : rows) {
      if (r.name == name) return r;
    }
    rows.push_back(DiffRow{name, {}, {}});
    return rows.back();
  };
  for (const auto& r : SubsystemRows(before)) find(r.name).b = r;
  for (const auto& r : SubsystemRows(after)) find(r.name).a = r;
  // Largest absolute self-time delta first: the top rows *are* the
  // cost centers a regression or win came from.
  std::sort(rows.begin(), rows.end(), [](const DiffRow& x, const DiffRow& y) {
    double ax = x.delta() < 0 ? -x.delta() : x.delta();
    double ay = y.delta() < 0 ? -y.delta() : y.delta();
    return ax > ay;
  });

  std::string out;
  char buf[256];
  double db = ProfileDuration(before), da = ProfileDuration(after);
  std::snprintf(buf, sizeof(buf), "wall: %s -> %s (%+.1f%%)\n",
                FormatSeconds(db).c_str(), FormatSeconds(da).c_str(),
                db > 0 ? 100.0 * (da - db) / db : 0.0);
  out += buf;
  std::snprintf(buf, sizeof(buf), "%-14s %10s %10s %9s %12s %12s\n",
                "subsystem", "before", "after", "delta", "d-allocs",
                "d-copied");
  out += buf;
  for (const auto& r : rows) {
    double d = r.delta();
    double dalloc = r.a.alloc_count - r.b.alloc_count;
    double dcopy = r.a.copy_bytes - r.b.copy_bytes;
    std::string dalloc_s(dalloc < 0 ? "-" : "+");
    dalloc_s += FormatCount(dalloc < 0 ? -dalloc : dalloc);
    std::string dcopy_s(dcopy < 0 ? "-" : "+");
    dcopy_s += FormatBytes(dcopy < 0 ? -dcopy : dcopy);
    std::snprintf(buf, sizeof(buf), "%-14s %10s %10s %s%8s %12s %12s\n",
                  r.name.c_str(), FormatSeconds(r.b.self_seconds).c_str(),
                  FormatSeconds(r.a.self_seconds).c_str(), d < 0 ? "-" : "+",
                  FormatSeconds(d < 0 ? -d : d).c_str(), dalloc_s.c_str(),
                  dcopy_s.c_str());
    out += buf;
  }

  // What's left to optimize: the top remaining cost centers of the
  // *after* profile, by self wall time and — the ROADMAP's "remaining
  // copies" lens — by bytes still being copied (the message path's
  // modeled wire bytes show up here long after its time share shrank).
  std::vector<DiffRow> remaining = rows;
  std::sort(remaining.begin(), remaining.end(),
            [](const DiffRow& x, const DiffRow& y) {
              return x.a.self_seconds > y.a.self_seconds;
            });
  out += "top remaining cost centers (after):";
  for (size_t i = 0; i < remaining.size() && i < 3; ++i) {
    std::snprintf(buf, sizeof(buf), "%s %s %s (%.1f%%)", i > 0 ? "," : "",
                  remaining[i].name.c_str(),
                  FormatSeconds(remaining[i].a.self_seconds).c_str(),
                  da > 0 ? 100.0 * remaining[i].a.self_seconds / da : 0.0);
    out += buf;
  }
  out += "\n";
  std::sort(remaining.begin(), remaining.end(),
            [](const DiffRow& x, const DiffRow& y) {
              return x.a.copy_bytes > y.a.copy_bytes;
            });
  if (!remaining.empty() && remaining[0].a.copy_bytes > 0) {
    out += "top copy/alloc cost centers (after):";
    for (size_t i = 0; i < remaining.size() && i < 3; ++i) {
      if (remaining[i].a.copy_bytes <= 0 && remaining[i].a.alloc_count <= 0) {
        break;
      }
      std::snprintf(buf, sizeof(buf), "%s %s %s copied / %s allocs",
                    i > 0 ? "," : "", remaining[i].name.c_str(),
                    FormatBytes(remaining[i].a.copy_bytes).c_str(),
                    FormatCount(remaining[i].a.alloc_count).c_str());
      out += buf;
    }
    out += "\n";
  }
  return out;
}

Status ValidateProfile(const util::Json& profile) {
  if (!profile.is_object()) {
    return Status::InvalidArgument("profile: not a JSON object");
  }
  const util::Json* schema = profile.Get("schema");
  if (schema == nullptr || schema->AsString() != kProfileSchema) {
    return Status::InvalidArgument(std::string("profile: schema != ") +
                                   kProfileSchema);
  }
  if (ProfileDuration(profile) <= 0) {
    return Status::InvalidArgument("profile: duration_seconds must be > 0");
  }
  const util::Json* subs = profile.Get("subsystems");
  if (subs == nullptr || !subs->is_object()) {
    return Status::InvalidArgument("profile: missing subsystems object");
  }
  for (const auto& [name, v] : subs->members()) {
    bool known = false;
    for (uint8_t s = 0; s < prof::kNumSubsystems; ++s) {
      if (name == prof::SubsystemName(s)) known = true;
    }
    if (!known) {
      return Status::InvalidArgument("profile: unknown subsystem " + name);
    }
    if (v.Get("self_seconds") == nullptr) {
      return Status::InvalidArgument("profile: subsystem " + name +
                                     " missing self_seconds");
    }
  }
  const util::Json* scopes = profile.Get("scopes");
  if (scopes != nullptr) {
    if (!scopes->is_array()) {
      return Status::InvalidArgument("profile: scopes must be an array");
    }
    std::string prev;
    for (const auto& s : scopes->items()) {
      const util::Json* path = s.Get("path");
      if (path == nullptr || path->AsString().empty()) {
        return Status::InvalidArgument("profile: scope row missing path");
      }
      if (!prev.empty() && !(prev < path->AsString())) {
        return Status::InvalidArgument(
            "profile: scope rows not sorted by path (" + prev + " vs " +
            path->AsString() + ")");
      }
      prev = path->AsString();
      const util::Json* total = s.Get("total_seconds");
      const util::Json* self = s.Get("self_seconds");
      if (total == nullptr || self == nullptr) {
        return Status::InvalidArgument("profile: scope " + prev +
                                       " missing total/self seconds");
      }
      if (self->AsDouble() > total->AsDouble() * 1.000001 + 1e-9) {
        return Status::InvalidArgument("profile: scope " + prev +
                                       " has self > total");
      }
    }
  }
  const util::Json* counters = profile.Get("counters");
  if (counters == nullptr || !counters->is_object()) {
    return Status::InvalidArgument("profile: missing counters object");
  }
  return Status::Ok();
}

double AttributedFraction(const util::Json& profile) {
  double duration = ProfileDuration(profile);
  if (duration <= 0) return 0;
  double attributed = 0;
  for (const auto& r : SubsystemRows(profile)) {
    if (r.name != "other") attributed += r.self_seconds;
  }
  double f = attributed / duration;
  return f < 0 ? 0 : f;
}

}  // namespace bb::obs
