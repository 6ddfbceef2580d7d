#include "obs/memtrack.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <vector>

namespace bb::obs {

namespace {

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

util::Json CounterToJson(const MemTracker::Counter& c, bool peak_is_sum) {
  util::Json j = util::Json::Object();
  j.Set("current", c.current);
  j.Set(peak_is_sum ? "peak_sum" : "peak", c.peak);
  if (!peak_is_sum) j.Set("peak_at", c.peak_at);
  j.Set("allocs", c.allocs);
  j.Set("frees", c.frees);
  return j;
}

/// Peak bytes per committed transaction; null when nothing committed
/// (or the count is unknown), where 0 would read as the best value.
util::Json BytesPerTx(uint64_t peak, uint64_t committed) {
  if (committed == 0) return util::Json();
  return double(peak) / double(committed);
}

/// Reads one counter object back; field naming as in CounterToJson.
bool CounterFromJson(const util::Json& j, MemTracker::Counter* c,
                     bool peak_is_sum) {
  if (!j.is_object()) return false;
  const util::Json* cur = j.Get("current");
  const util::Json* peak = j.Get(peak_is_sum ? "peak_sum" : "peak");
  const util::Json* allocs = j.Get("allocs");
  const util::Json* frees = j.Get("frees");
  if (cur == nullptr || !cur->is_number() || peak == nullptr ||
      !peak->is_number() || allocs == nullptr || !allocs->is_number() ||
      frees == nullptr || !frees->is_number()) {
    return false;
  }
  c->current = cur->AsUint();
  c->peak = peak->AsUint();
  c->allocs = allocs->AsUint();
  c->frees = frees->AsUint();
  if (const util::Json* at = j.Get("peak_at")) c->peak_at = at->AsDouble();
  return true;
}

}  // namespace

namespace mem {

int SubsystemFromName(const std::string& name) {
  for (uint8_t s = 0; s < kNumSubsystems; ++s) {
    if (name == SubsystemName(s)) return int(s);
  }
  return -1;
}

}  // namespace mem

util::Json MemTracker::ToJson() const {
  util::Json doc = util::Json::Object();
  doc.Set("schema", "blockbench-mem-v1");
  doc.Set("committed_txs", committed_);
  doc.Set("cluster", CounterToJson(cluster_, false));
  doc.Set("bytes_per_committed_tx", BytesPerTx(cluster_.peak, committed_));

  // Aggregate per-subsystem column sums across every node (real +
  // global). "peak_sum" is the sum of per-node HWMs — an attribution
  // weight, not a concurrent HWM (that is cluster.peak).
  Counter agg[mem::kNumSubsystems];
  auto fold = [&agg](const NodeCounters& nc) {
    for (uint8_t s = 0; s < mem::kNumSubsystems; ++s) {
      agg[s].current += nc.subsys[s].current;
      agg[s].peak += nc.subsys[s].peak;
      agg[s].allocs += nc.subsys[s].allocs;
      agg[s].frees += nc.subsys[s].frees;
    }
  };
  for (const NodeCounters& nc : nodes_) fold(nc);
  fold(global_);
  util::Json subsystems = util::Json::Array();
  for (uint8_t s = 0; s < mem::kNumSubsystems; ++s) {
    const util::Json row = CounterToJson(agg[s], true);
    util::Json named = util::Json::Object();
    named.Set("subsystem", mem::SubsystemName(s));
    for (const auto& [k, v] : row.members()) named.Set(k, v);
    subsystems.Push(std::move(named));
  }
  doc.Set("subsystems", std::move(subsystems));

  // Per-node sections in node-id order, the shared "global" owner last.
  // Every node gets the full fixed-width subsystem array so the document
  // shape is independent of which subsystems happened to be touched.
  util::Json nodes = util::Json::Array();
  auto node_json = [](const util::Json& id, const NodeCounters& nc) {
    util::Json n = util::Json::Object();
    n.Set("node", id);
    n.Set("total", CounterToJson(nc.total, false));
    util::Json per = util::Json::Array();
    for (uint8_t s = 0; s < mem::kNumSubsystems; ++s) {
      util::Json row = util::Json::Object();
      row.Set("subsystem", mem::SubsystemName(s));
      const util::Json counter = CounterToJson(nc.subsys[s], false);
      for (const auto& [k, v] : counter.members()) row.Set(k, v);
      per.Push(std::move(row));
    }
    n.Set("subsystems", std::move(per));
    return n;
  };
  for (size_t i = 0; i < nodes_.size(); ++i) {
    nodes.Push(node_json(util::Json(uint64_t(i)), nodes_[i]));
  }
  nodes.Push(node_json(util::Json("global"), global_));
  doc.Set("nodes", std::move(nodes));
  return doc;
}

util::Json MemTracker::ToSweepJson() const {
  util::Json j = util::Json::Object();
  j.Set("cluster_peak", cluster_.peak);
  j.Set("cluster_peak_at", cluster_.peak_at);
  uint64_t peak_node_bytes = 0, peak_node = 0;
  util::Json per_node = util::Json::Array();
  for (size_t i = 0; i < nodes_.size(); ++i) {
    uint64_t p = nodes_[i].total.peak;
    per_node.Push(p);
    if (p > peak_node_bytes) {
      peak_node_bytes = p;
      peak_node = i;
    }
  }
  j.Set("peak_node_bytes", peak_node_bytes);
  j.Set("peak_node", peak_node);
  j.Set("global_peak", global_.total.peak);
  j.Set("per_node_peak", std::move(per_node));
  util::Json subsys = util::Json::Object();
  for (uint8_t s = 0; s < mem::kNumSubsystems; ++s) {
    uint64_t sum = global_.subsys[s].peak;
    for (const NodeCounters& nc : nodes_) sum += nc.subsys[s].peak;
    subsys.Set(mem::SubsystemName(s), sum);
  }
  j.Set("subsystem_peak_sum", std::move(subsys));
  j.Set("committed_txs", committed_);
  j.Set("bytes_per_committed_tx", BytesPerTx(cluster_.peak, committed_));
  return j;
}

Status MemTracker::WriteJson(const std::string& path) const {
  return ToJson().WriteFile(path);
}

// --- Validation --------------------------------------------------------------

namespace {

struct ParsedNode {
  std::string label;
  MemTracker::Counter total;
  MemTracker::Counter subsys[mem::kNumSubsystems];
};

Status ParseNodes(const util::Json& dump, std::vector<ParsedNode>* out) {
  const util::Json* nodes = dump.Get("nodes");
  if (nodes == nullptr || !nodes->is_array() || nodes->size() == 0) {
    return Status::InvalidArgument("mem dump: missing nodes array");
  }
  for (const util::Json& n : nodes->items()) {
    ParsedNode pn;
    const util::Json* id = n.Get("node");
    if (id == nullptr) {
      return Status::InvalidArgument("mem dump: node without id");
    }
    pn.label = id->is_string() ? id->AsString()
                               : std::to_string(id->AsUint());
    const util::Json* total = n.Get("total");
    if (total == nullptr || !CounterFromJson(*total, &pn.total, false)) {
      return Status::InvalidArgument("mem dump: node " + pn.label +
                                     ": bad total counter");
    }
    const util::Json* per = n.Get("subsystems");
    if (per == nullptr || !per->is_array() ||
        per->size() != mem::kNumSubsystems) {
      return Status::InvalidArgument(
          "mem dump: node " + pn.label +
          ": subsystem array must have exactly " +
          std::to_string(int(mem::kNumSubsystems)) + " entries");
    }
    for (size_t i = 0; i < per->size(); ++i) {
      const util::Json& row = per->items()[i];
      const util::Json* name = row.Get("subsystem");
      if (name == nullptr || !name->is_string()) {
        return Status::InvalidArgument("mem dump: node " + pn.label +
                                       ": unnamed subsystem row");
      }
      int s = mem::SubsystemFromName(name->AsString());
      if (s != int(i)) {
        return Status::InvalidArgument(
            "mem dump: node " + pn.label + ": subsystem \"" +
            name->AsString() + "\" unknown or out of taxonomy order");
      }
      if (!CounterFromJson(row, &pn.subsys[i], false)) {
        return Status::InvalidArgument("mem dump: node " + pn.label + ": " +
                                       name->AsString() + ": bad counter");
      }
    }
    out->push_back(std::move(pn));
  }
  if (out->back().label != "global") {
    return Status::InvalidArgument(
        "mem dump: last node section must be \"global\"");
  }
  for (size_t i = 0; i + 1 < out->size(); ++i) {
    if ((*out)[i].label != std::to_string(i)) {
      return Status::InvalidArgument(
          "mem dump: real node sections must be dense and in id order");
    }
  }
  return Status::Ok();
}

Status CheckCounter(const std::string& where, const MemTracker::Counter& c) {
  if (c.current > c.peak) {
    return Status::Corruption("mem dump: " + where + ": current " +
                              std::to_string(c.current) + " exceeds peak " +
                              std::to_string(c.peak));
  }
  if (c.peak > 0 && c.allocs == 0) {
    return Status::Corruption("mem dump: " + where +
                              ": nonzero peak with zero alloc events");
  }
  return Status::Ok();
}

}  // namespace

Status ValidateMemDump(const util::Json& dump) {
  const util::Json* schema = dump.Get("schema");
  if (schema == nullptr || schema->AsString() != "blockbench-mem-v1") {
    return Status::InvalidArgument(
        "mem dump: missing schema tag blockbench-mem-v1");
  }
  std::vector<ParsedNode> nodes;
  BB_RETURN_IF_ERROR(ParseNodes(dump, &nodes));

  // Per-counter invariants plus the per-node cross-check: a node's
  // total must be the exact sum of its subsystem counters (current,
  // allocs, frees), and its concurrent-HWM total must sit between the
  // largest single subsystem peak and the sum of all of them. This is
  // what makes a tampered byte count detectable rather than cosmetic.
  for (const ParsedNode& n : nodes) {
    BB_RETURN_IF_ERROR(CheckCounter("node " + n.label + " total", n.total));
    uint64_t cur = 0, allocs = 0, frees = 0, peak_sum = 0, peak_max = 0;
    for (uint8_t s = 0; s < mem::kNumSubsystems; ++s) {
      BB_RETURN_IF_ERROR(CheckCounter(
          "node " + n.label + " " + mem::SubsystemName(s), n.subsys[s]));
      cur += n.subsys[s].current;
      allocs += n.subsys[s].allocs;
      frees += n.subsys[s].frees;
      peak_sum += n.subsys[s].peak;
      peak_max = std::max(peak_max, n.subsys[s].peak);
    }
    if (cur != n.total.current || allocs != n.total.allocs ||
        frees != n.total.frees) {
      return Status::Corruption("mem dump: node " + n.label +
                                ": total does not match subsystem sums");
    }
    if (n.total.peak < peak_max || n.total.peak > peak_sum) {
      return Status::Corruption(
          "mem dump: node " + n.label +
          ": total peak outside [max subsystem peak, subsystem peak sum]");
    }
  }

  // Aggregate section must be the exact column sums over all nodes.
  const util::Json* subsystems = dump.Get("subsystems");
  if (subsystems == nullptr || !subsystems->is_array() ||
      subsystems->size() != mem::kNumSubsystems) {
    return Status::InvalidArgument(
        "mem dump: subsystems aggregate must have exactly " +
        std::to_string(int(mem::kNumSubsystems)) + " entries");
  }
  for (uint8_t s = 0; s < mem::kNumSubsystems; ++s) {
    const util::Json& row = subsystems->items()[s];
    const util::Json* name = row.Get("subsystem");
    if (name == nullptr || name->AsString() != mem::SubsystemName(s)) {
      return Status::InvalidArgument(
          "mem dump: aggregate subsystem order must follow the taxonomy");
    }
    MemTracker::Counter agg;
    if (!CounterFromJson(row, &agg, true)) {
      return Status::InvalidArgument("mem dump: aggregate " +
                                     std::string(mem::SubsystemName(s)) +
                                     ": bad counter");
    }
    MemTracker::Counter sum;
    for (const ParsedNode& n : nodes) {
      sum.current += n.subsys[s].current;
      sum.peak += n.subsys[s].peak;
      sum.allocs += n.subsys[s].allocs;
      sum.frees += n.subsys[s].frees;
    }
    if (agg.current != sum.current || agg.peak != sum.peak ||
        agg.allocs != sum.allocs || agg.frees != sum.frees) {
      return Status::Corruption("mem dump: aggregate " +
                                std::string(mem::SubsystemName(s)) +
                                " does not match node column sums");
    }
  }

  // Cluster counter: currents sum exactly; the concurrent HWM is
  // bounded by the per-node HWMs.
  const util::Json* cluster = dump.Get("cluster");
  MemTracker::Counter cl;
  if (cluster == nullptr || !CounterFromJson(*cluster, &cl, false)) {
    return Status::InvalidArgument("mem dump: missing cluster counter");
  }
  BB_RETURN_IF_ERROR(CheckCounter("cluster", cl));
  uint64_t cur = 0, allocs = 0, frees = 0, peak_sum = 0, peak_max = 0;
  for (const ParsedNode& n : nodes) {
    cur += n.total.current;
    allocs += n.total.allocs;
    frees += n.total.frees;
    peak_sum += n.total.peak;
    peak_max = std::max(peak_max, n.total.peak);
  }
  if (cur != cl.current || allocs != cl.allocs || frees != cl.frees) {
    return Status::Corruption(
        "mem dump: cluster counter does not match node totals");
  }
  if (cl.peak < peak_max || cl.peak > peak_sum) {
    return Status::Corruption(
        "mem dump: cluster peak outside [max node peak, node peak sum]");
  }
  return Status::Ok();
}

// --- Report rendering (shared by bbreport mem and bbench) --------------------

namespace {

struct SubsystemRow {
  std::string name;
  double current = 0, peak = 0, allocs = 0, frees = 0;
};

std::vector<SubsystemRow> AggregateRows(const util::Json& dump) {
  std::vector<SubsystemRow> rows;
  const util::Json* subsystems = dump.Get("subsystems");
  if (subsystems == nullptr || !subsystems->is_array()) return rows;
  for (const util::Json& row : subsystems->items()) {
    SubsystemRow r;
    if (const util::Json* x = row.Get("subsystem")) r.name = x->AsString();
    if (const util::Json* x = row.Get("current")) r.current = x->AsDouble();
    if (const util::Json* x = row.Get("peak_sum")) r.peak = x->AsDouble();
    if (const util::Json* x = row.Get("allocs")) r.allocs = x->AsDouble();
    if (const util::Json* x = row.Get("frees")) r.frees = x->AsDouble();
    rows.push_back(std::move(r));
  }
  return rows;
}

double ClusterPeak(const util::Json& dump) {
  if (const util::Json* c = dump.Get("cluster")) {
    if (const util::Json* p = c->Get("peak")) return p->AsDouble();
  }
  return 0;
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

}  // namespace

std::string RenderMemAttribution(const util::Json& dump) {
  std::string out;
  char buf[256];
  std::vector<SubsystemRow> rows = AggregateRows(dump);
  double peak_sum = 0;
  for (const auto& r : rows) peak_sum += r.peak;
  std::sort(rows.begin(), rows.end(),
            [](const SubsystemRow& a, const SubsystemRow& b) {
              return a.peak > b.peak;
            });
  std::snprintf(buf, sizeof(buf), "%-22s %10s %7s %10s %10s %10s\n",
                "subsystem", "peak", "%peak", "allocs", "frees", "resident");
  out += buf;
  for (const auto& r : rows) {
    std::snprintf(buf, sizeof(buf), "%-22s %10s %6.1f%% %10s %10s %10s\n",
                  r.name.c_str(), FormatBytes(r.peak).c_str(),
                  peak_sum > 0 ? 100.0 * r.peak / peak_sum : 0.0,
                  FormatCount(r.allocs).c_str(), FormatCount(r.frees).c_str(),
                  FormatBytes(r.current).c_str());
    out += buf;
  }
  double cluster_peak = ClusterPeak(dump);
  std::snprintf(buf, sizeof(buf), "%-22s %10s   (concurrent cluster HWM)\n",
                "cluster peak", FormatBytes(cluster_peak).c_str());
  out += buf;
  if (const util::Json* bpt = dump.Get("bytes_per_committed_tx");
      bpt != nullptr && bpt->AsDouble() > 0) {
    std::snprintf(buf, sizeof(buf), "%-22s %10s\n", "per committed tx",
                  FormatBytes(bpt->AsDouble()).c_str());
    out += buf;
  }
  return out;
}

std::string RenderMemDiff(const util::Json& before, const util::Json& after) {
  struct DiffRow {
    std::string name;
    double before = 0, after = 0;
  };
  std::vector<DiffRow> rows;
  for (const SubsystemRow& r : AggregateRows(before)) {
    rows.push_back({r.name, r.peak, 0});
  }
  for (const SubsystemRow& r : AggregateRows(after)) {
    bool found = false;
    for (DiffRow& d : rows) {
      if (d.name == r.name) {
        d.after = r.peak;
        found = true;
        break;
      }
    }
    if (!found) rows.push_back({r.name, 0, r.peak});
  }
  std::sort(rows.begin(), rows.end(), [](const DiffRow& a, const DiffRow& b) {
    return std::fabs(a.after - a.before) > std::fabs(b.after - b.before);
  });
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%-22s %12s %12s %12s %8s\n", "subsystem",
                "before", "after", "delta", "ratio");
  out += buf;
  for (const DiffRow& r : rows) {
    double delta = r.after - r.before;
    std::snprintf(buf, sizeof(buf), "%-22s %12s %12s %s%11s %7.2fx\n",
                  r.name.c_str(), FormatBytes(r.before).c_str(),
                  FormatBytes(r.after).c_str(), delta < 0 ? "-" : "+",
                  FormatBytes(std::fabs(delta)).c_str(),
                  r.before > 0 ? r.after / r.before : 0.0);
    out += buf;
  }
  double pb = ClusterPeak(before), pa = ClusterPeak(after);
  std::snprintf(buf, sizeof(buf), "%-22s %12s %12s %s%11s %7.2fx\n",
                "cluster peak", FormatBytes(pb).c_str(),
                FormatBytes(pa).c_str(), pa - pb < 0 ? "-" : "+",
                FormatBytes(std::fabs(pa - pb)).c_str(),
                pb > 0 ? pa / pb : 0.0);
  out += buf;
  return out;
}

}  // namespace bb::obs
