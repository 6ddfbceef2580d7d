#include "obs/recorder.h"

#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <set>

namespace bb::obs {

namespace {

constexpr char kSchema[] = "blockbench-blackbox-v1";

}  // namespace

int FlightRecorder::KindFromName(const std::string& name) {
  for (size_t i = 0; i < kNumRecordKinds; ++i) {
    if (name == EventKindName(Kind(i))) return int(i);
  }
  return -1;
}

void FlightRecorder::Observe(const Event& e) {
  if (size_t(e.kind) > size_t(Kind::kRefused)) return;
  const char* name = e.name != nullptr ? e.name : EventKindName(e.kind);
  Record r{e.t, e.id, e.aux, e.peer, Intern(name), e.kind};
  switch (e.kind) {
    case Kind::kDrop:
      r.aux = 1;
      break;
    case Kind::kRefused:
      r.kind = Kind::kSend;
      Push(e.node, r);
      r.kind = Kind::kDrop;
      r.aux = 0;
      break;
    default:
      break;
  }
  Push(e.node, r);
}

uint32_t FlightRecorder::Intern(const char* name) {
  auto cached = name_of_ptr_.find(name);
  if (cached != name_of_ptr_.end()) return cached->second;
  auto [it, inserted] = name_idx_.emplace(name, uint32_t(names_.size()));
  if (inserted) names_.push_back(name);
  name_of_ptr_.emplace(name, it->second);
  return it->second;
}

void FlightRecorder::Push(uint32_t node, Record r) {
  if (node >= rings_.size()) rings_.resize(node + 1);
  Ring& g = rings_[node];
  if (g.buf.size() < capacity_) {
    g.buf.push_back(r);
  } else {
    g.buf[g.total % capacity_] = r;
  }
  ++g.total;
}

const FlightRecorder::Record& FlightRecorder::At(uint32_t node,
                                                 size_t i) const {
  const Ring& g = rings_[node];
  if (g.total <= capacity_) return g.buf[i];
  return g.buf[(g.total + i) % capacity_];
}

// --- Causal slice ------------------------------------------------------------

namespace {

/// A record's address: ring index is oldest-first within the surviving
/// window, so (node, idx) is stable for one dump.
struct Pos {
  uint32_t node;
  uint32_t idx;
  bool operator<(const Pos& o) const {
    return node != o.node ? node < o.node : idx < o.idx;
  }
};

}  // namespace

util::Json FlightRecorder::SliceToJson() const {
  // Index every surviving send by Message.seq so a recv's flow edge can
  // be followed back across nodes. Built once per dump; recording never
  // pays for it.
  std::unordered_map<uint64_t, Pos> send_at;
  for (uint32_t n = 0; n < rings_.size(); ++n) {
    for (size_t i = 0; i < ring_size(n); ++i) {
      const Record& r = At(n, i);
      if (r.kind == Kind::kSend) send_at[r.id] = Pos{n, uint32_t(i)};
    }
  }

  // Seed selection: the violation site. Fork switches are the signature
  // of a safety violation (a node discarded part of its chain), so each
  // node's LAST fork switch seeds the traversal; absent any, each
  // node's last commit does (divergence shows up as conflicting commit
  // hashes); absent those too, the last record per node.
  std::vector<Pos> seeds;
  auto seed_with = [&](Kind want) {
    for (uint32_t n = 0; n < rings_.size(); ++n) {
      for (size_t i = ring_size(n); i-- > 0;) {
        if (At(n, uint32_t(i)).kind == want) {
          seeds.push_back(Pos{n, uint32_t(i)});
          break;
        }
      }
    }
  };
  seed_with(Kind::kForkSwitch);
  if (seeds.empty()) seed_with(Kind::kCommit);
  if (seeds.empty()) {
    for (uint32_t n = 0; n < rings_.size(); ++n) {
      if (ring_size(n) > 0) seeds.push_back(Pos{n, uint32_t(ring_size(n) - 1)});
    }
  }

  util::Json slice = util::Json::Object();
  if (seeds.empty()) {
    slice.Set("target", util::Json());
    slice.Set("records", util::Json::Array());
    return slice;
  }

  // The latest seed is the named target (closest to the violation).
  Pos target = seeds.front();
  for (const Pos& p : seeds) {
    if (At(p.node, p.idx).t > At(target.node, target.idx).t ||
        (At(p.node, p.idx).t == At(target.node, target.idx).t &&
         target < p)) {
      target = p;
    }
  }

  // Backward BFS: program-order predecessor on the same node plus the
  // matching send for every recv. Bounded by kMaxSliceRecords.
  std::set<Pos> visited;
  std::deque<Pos> frontier;
  std::sort(seeds.begin(), seeds.end());
  for (const Pos& p : seeds) {
    if (visited.insert(p).second) frontier.push_back(p);
  }
  while (!frontier.empty() && visited.size() < kMaxSliceRecords) {
    Pos p = frontier.front();
    frontier.pop_front();
    const Record& r = At(p.node, p.idx);
    auto visit = [&](Pos q) {
      if (visited.size() < kMaxSliceRecords && visited.insert(q).second) {
        frontier.push_back(q);
      }
    };
    if (p.idx > 0) visit(Pos{p.node, p.idx - 1});
    if (r.kind == Kind::kRecv) {
      auto it = send_at.find(r.id);
      if (it != send_at.end()) visit(it->second);
    }
  }

  // Serialize in (t, node, idx) order so the slice reads as a timeline.
  std::vector<Pos> ordered(visited.begin(), visited.end());
  std::sort(ordered.begin(), ordered.end(), [this](const Pos& a, const Pos& b) {
    double ta = At(a.node, a.idx).t, tb = At(b.node, b.idx).t;
    if (ta != tb) return ta < tb;
    return a < b;
  });

  const Record& tr = At(target.node, target.idx);
  util::Json tj = util::Json::Object();
  tj.Set("kind", EventKindName(tr.kind));
  tj.Set("node", uint64_t(target.node));
  tj.Set("t", tr.t);
  tj.Set("height", tr.id);
  slice.Set("target", std::move(tj));

  util::Json records = util::Json::Array();
  for (const Pos& p : ordered) {
    const Record& r = At(p.node, p.idx);
    util::Json j = util::Json::Object();
    j.Set("node", uint64_t(p.node));
    j.Set("i", uint64_t(p.idx));
    j.Set("t", r.t);
    j.Set("kind", EventKindName(r.kind));
    j.Set("name", names_[r.name]);
    j.Set("id", r.id);
    j.Set("aux", r.aux);
    if (r.peer != kNoPeer) j.Set("peer", uint64_t(r.peer));
    records.Push(std::move(j));
  }
  slice.Set("records", std::move(records));
  return slice;
}

// --- Export ------------------------------------------------------------------

void FlightRecorder::ExportMetrics(MetricsRegistry* reg) const {
  reg->SetGauge("recorder.ring_capacity", {}, double(capacity_));
  for (uint32_t node = 0; node < rings_.size(); ++node) {
    Labels labels{{"node", std::to_string(node)}};
    reg->SetGauge("recorder.ring_size", labels, double(ring_size(node)));
    reg->AddCounter("recorder.recorded", labels, recorded(node));
    reg->AddCounter("recorder.evicted", labels, evicted(node));
  }
}

util::Json FlightRecorder::ToJson(const RunSpec& run,
                                  const BlackboxTrigger& trigger) const {
  util::Json doc = util::Json::Object();
  doc.Set("schema", kSchema);
  doc.Set("run", run.ToJson());
  util::Json trig = util::Json::Object();
  trig.Set("kind", trigger.kind);
  trig.Set("invariant", trigger.invariant);
  trig.Set("detail", trigger.detail);
  doc.Set("trigger", std::move(trig));
  doc.Set("ring_capacity", capacity_);
  util::Json names = util::Json::Array();
  for (const std::string& n : names_) names.Push(n);
  doc.Set("names", std::move(names));
  util::Json nodes = util::Json::Array();
  for (uint32_t n = 0; n < rings_.size(); ++n) {
    util::Json node = util::Json::Object();
    node.Set("node", uint64_t(n));
    node.Set("recorded", recorded(n));
    node.Set("evicted", evicted(n));
    util::Json records = util::Json::Array();
    for (size_t i = 0; i < ring_size(n); ++i) {
      const Record& r = At(n, i);
      util::Json rec = util::Json::Array();
      rec.Push(r.t);
      rec.Push(EventKindName(r.kind));
      rec.Push(uint64_t(r.name));
      rec.Push(r.id);
      rec.Push(r.aux);
      rec.Push(r.peer == kNoPeer ? util::Json(-1)
                                 : util::Json(uint64_t(r.peer)));
      records.Push(std::move(rec));
    }
    node.Set("records", std::move(records));
    nodes.Push(std::move(node));
  }
  doc.Set("nodes", std::move(nodes));
  doc.Set("causal_slice", SliceToJson());
  return doc;
}

Status FlightRecorder::WriteJson(const std::string& path, const RunSpec& run,
                                 const BlackboxTrigger& trigger) const {
  return ToJson(run, trigger).WriteFile(path);
}

// --- Document-side helpers (bbreport blackbox, tests) ------------------------

namespace {

Status Bad(const std::string& what) { return Status::InvalidArgument(what); }

/// Record columns in the per-node "records" arrays.
enum { kColT = 0, kColKind, kColName, kColId, kColAux, kColPeer, kNumCols };

}  // namespace

Status ValidateBlackbox(const util::Json& doc) {
  if (!doc.is_object()) return Bad("document is not an object");
  const util::Json* schema = doc.Get("schema");
  if (schema == nullptr || schema->AsString() != kSchema) {
    return Bad(std::string("schema is not \"") + kSchema + "\"");
  }
  const util::Json* run = doc.Get("run");
  if (run == nullptr) return Bad("missing \"run\"");
  auto spec = RunSpec::FromJson(*run);
  if (!spec.ok()) return spec.status();
  const util::Json* trig = doc.Get("trigger");
  if (trig == nullptr || !trig->is_object() || trig->Get("kind") == nullptr) {
    return Bad("missing or malformed \"trigger\"");
  }
  const util::Json* cap = doc.Get("ring_capacity");
  if (cap == nullptr || cap->AsUint() == 0) return Bad("bad \"ring_capacity\"");
  const util::Json* names = doc.Get("names");
  if (names == nullptr || !names->is_array()) return Bad("missing \"names\"");
  for (const auto& n : names->items()) {
    if (!n.is_string()) return Bad("name table entry is not a string");
  }
  size_t num_names = names->size();
  const util::Json* nodes = doc.Get("nodes");
  if (nodes == nullptr || !nodes->is_array()) return Bad("missing \"nodes\"");
  for (const auto& node : nodes->items()) {
    if (!node.is_object()) return Bad("node entry is not an object");
    for (const char* key : {"node", "recorded", "evicted", "records"}) {
      if (node.Get(key) == nullptr) {
        return Bad(std::string("node entry missing \"") + key + "\"");
      }
    }
    const util::Json& records = *node.Get("records");
    if (!records.is_array()) return Bad("node \"records\" is not an array");
    uint64_t surviving =
        node.Get("recorded")->AsUint() - node.Get("evicted")->AsUint();
    if (surviving != records.size()) {
      return Bad("recorded - evicted does not match the ring size");
    }
    double prev_t = -1;
    for (const auto& rec : records.items()) {
      if (!rec.is_array() || rec.size() != kNumCols) {
        return Bad("record is not a 6-column array");
      }
      double t = rec.items()[kColT].AsDouble();
      if (t < prev_t) return Bad("records are not time-ordered within a node");
      prev_t = t;
      if (FlightRecorder::KindFromName(rec.items()[kColKind].AsString()) < 0) {
        return Bad("unknown record kind \"" +
                   rec.items()[kColKind].AsString() + "\"");
      }
      if (rec.items()[kColName].AsUint() >= num_names) {
        return Bad("record name index out of range");
      }
    }
  }
  const util::Json* slice = doc.Get("causal_slice");
  if (slice == nullptr || !slice->is_object() ||
      slice->Get("records") == nullptr ||
      !slice->Get("records")->is_array()) {
    return Bad("missing or malformed \"causal_slice\"");
  }
  for (const auto& rec : slice->Get("records")->items()) {
    if (!rec.is_object() || rec.Get("node") == nullptr ||
        rec.Get("t") == nullptr || rec.Get("kind") == nullptr ||
        rec.Get("name") == nullptr) {
      return Bad("causal-slice record is malformed");
    }
  }
  return Status::Ok();
}

std::string RenderBlackboxSummary(const util::Json& doc) {
  std::string out;
  char line[256];
  const util::Json* trig = doc.Get("trigger");
  std::snprintf(line, sizeof(line), "trigger: %s",
                trig->Get("kind")->AsString().c_str());
  out += line;
  if (trig->Get("invariant") != nullptr &&
      !trig->Get("invariant")->AsString().empty()) {
    out += " — " + trig->Get("invariant")->AsString();
    if (trig->Get("detail") != nullptr &&
        !trig->Get("detail")->AsString().empty()) {
      out += " (" + trig->Get("detail")->AsString() + ")";
    }
  }
  out += "\n";
  const util::Json* run = doc.Get("run");
  std::snprintf(line, sizeof(line),
                "run: %s / %s, %llu servers, %llu clients, seed %llu\n",
                run->Get("platform")->AsString().c_str(),
                run->Get("workload")->AsString().c_str(),
                (unsigned long long)run->Get("servers")->AsUint(),
                (unsigned long long)run->Get("clients")->AsUint(),
                (unsigned long long)run->Get("seed")->AsUint());
  out += line;
  std::snprintf(line, sizeof(line), "%6s %10s %10s %10s\n", "node", "recorded",
                "evicted", "surviving");
  out += line;
  for (const auto& node : doc.Get("nodes")->items()) {
    std::snprintf(line, sizeof(line), "%6llu %10llu %10llu %10zu\n",
                  (unsigned long long)node.Get("node")->AsUint(),
                  (unsigned long long)node.Get("recorded")->AsUint(),
                  (unsigned long long)node.Get("evicted")->AsUint(),
                  node.Get("records")->size());
    out += line;
  }
  const util::Json* slice = doc.Get("causal_slice");
  const util::Json* target = slice->Get("target");
  if (target != nullptr && target->is_object()) {
    std::snprintf(line, sizeof(line),
                  "causal slice: %zu records, target %s on node %llu at "
                  "t=%.6f (height %llu)\n",
                  slice->Get("records")->size(),
                  target->Get("kind")->AsString().c_str(),
                  (unsigned long long)target->Get("node")->AsUint(),
                  target->Get("t")->AsDouble(),
                  (unsigned long long)target->Get("height")->AsUint());
    out += line;
  }
  return out;
}

std::string RenderBlackboxTimeline(const util::Json& doc, size_t limit) {
  // Interleave every node's ring by (t, node, ring index); causal-slice
  // membership (matched on node + ring index) is marked with '*'.
  struct Line {
    double t;
    uint32_t node;
    uint32_t idx;
    const util::Json* rec;
  };
  std::vector<Line> lines;
  for (const auto& node : doc.Get("nodes")->items()) {
    uint32_t n = uint32_t(node.Get("node")->AsUint());
    const auto& records = node.Get("records")->items();
    for (uint32_t i = 0; i < records.size(); ++i) {
      lines.push_back(Line{records[i].items()[kColT].AsDouble(), n, i,
                           &records[i]});
    }
  }
  std::stable_sort(lines.begin(), lines.end(),
                   [](const Line& a, const Line& b) {
                     if (a.t != b.t) return a.t < b.t;
                     if (a.node != b.node) return a.node < b.node;
                     return a.idx < b.idx;
                   });
  std::set<std::pair<uint32_t, uint32_t>> in_slice;
  for (const auto& rec : doc.Get("causal_slice")->Get("records")->items()) {
    if (rec.Get("i") != nullptr) {
      in_slice.emplace(uint32_t(rec.Get("node")->AsUint()),
                       uint32_t(rec.Get("i")->AsUint()));
    }
  }
  const auto& names = doc.Get("names")->items();
  size_t start = (limit > 0 && lines.size() > limit) ? lines.size() - limit : 0;
  std::string out;
  if (start > 0) {
    out += "  ... " + std::to_string(start) + " earlier records elided ...\n";
  }
  char buf[256];
  for (size_t i = start; i < lines.size(); ++i) {
    const Line& l = lines[i];
    const auto& cols = l.rec->items();
    const std::string& name = names[cols[kColName].AsUint()].AsString();
    bool starred = in_slice.count({l.node, l.idx}) != 0;
    std::snprintf(buf, sizeof(buf), "%c %12.6f  node%-4u %-11s %-24s",
                  starred ? '*' : ' ', l.t, l.node,
                  cols[kColKind].AsString().c_str(), name.c_str());
    out += buf;
    std::snprintf(buf, sizeof(buf), " id=%llu aux=%llu",
                  (unsigned long long)cols[kColId].AsUint(),
                  (unsigned long long)cols[kColAux].AsUint());
    out += buf;
    if (cols[kColPeer].AsDouble() >= 0) {
      std::snprintf(buf, sizeof(buf), " peer=%llu",
                    (unsigned long long)cols[kColPeer].AsUint());
      out += buf;
    }
    out += "\n";
  }
  return out;
}

std::string FirstDivergence(const util::Json& doc) {
  // A node's final view of each height is its LAST commit record there
  // (fork switches re-commit the winning branch), so later records win.
  std::vector<std::pair<uint32_t, std::unordered_map<uint64_t, uint64_t>>>
      views;
  for (const auto& node : doc.Get("nodes")->items()) {
    uint32_t n = uint32_t(node.Get("node")->AsUint());
    std::unordered_map<uint64_t, uint64_t> commits;
    for (const auto& rec : node.Get("records")->items()) {
      const auto& cols = rec.items();
      if (cols[kColKind].AsString() == "commit") {
        commits[cols[kColId].AsUint()] = cols[kColAux].AsUint();
      }
    }
    if (!commits.empty()) views.emplace_back(n, std::move(commits));
  }
  std::set<uint64_t> heights;
  for (const auto& [n, commits] : views) {
    for (const auto& [h, hash] : commits) heights.insert(h);
  }
  char buf[192];
  for (uint64_t h : heights) {
    // First (node, node) pair disagreeing at the lowest height.
    for (size_t a = 0; a < views.size(); ++a) {
      auto ia = views[a].second.find(h);
      if (ia == views[a].second.end()) continue;
      for (size_t b = a + 1; b < views.size(); ++b) {
        auto ib = views[b].second.find(h);
        if (ib == views[b].second.end()) continue;
        if (ia->second != ib->second) {
          std::snprintf(buf, sizeof(buf),
                        "first divergence: height %llu — node %u committed "
                        "%#llx, node %u committed %#llx",
                        (unsigned long long)h, views[a].first,
                        (unsigned long long)ia->second, views[b].first,
                        (unsigned long long)ib->second);
          return buf;
        }
      }
    }
  }
  // Commits agree where they overlap; a recorded fork switch still
  // means some node abandoned a branch inside the window.
  uint64_t fork_switches = 0;
  for (const auto& node : doc.Get("nodes")->items()) {
    for (const auto& rec : node.Get("records")->items()) {
      if (rec.items()[kColKind].AsString() == "fork_switch") ++fork_switches;
    }
  }
  if (fork_switches > 0) {
    std::snprintf(buf, sizeof(buf),
                  "no conflicting commits in the recorded window, but %llu "
                  "fork switch(es) were recorded",
                  (unsigned long long)fork_switches);
    return buf;
  }
  return "";
}

}  // namespace bb::obs
