// MemTracker: deterministic logical-byte accounting per (node, subsystem).
//
// The obs stack measures virtual time (tracer, metrics, sampler), safety
// (auditor), wall-clock cost (profiler) and history (flight recorder) —
// but not a single byte of footprint, even though the scale campaign's
// stressor is per-node memory (PBFT's O(N^2) message traffic). The
// MemTracker closes that gap with *logical* bytes: sizes the simulated
// artifacts report about themselves (wire sizes, slot sizes, bookkeeping
// models), never malloc/RSS. Logical bytes are a pure function of the
// deterministic simulation, so dumps are byte-identical across runs and
// across sweep --jobs values and can live in golden baselines; RSS is
// not and cannot.
//
// One MemTracker serves one sim::Simulation, attached through the
// non-owning Simulation::set_memtracker pointer exactly like set_tracer:
// disabled mode costs one pointer test per hook site, and the hot path
// is inline so bb_sim / bb_storage (below bb_obs in the link graph)
// account without a link-time dependency. CI gates the ratio
// BM_SimulationEventLoopMemOff / BM_SimulationEventLoop <= 1.03.
//
// Two hook styles feed the same counters:
//  * event-style Track/Untrack where the owner sees every transition
//    (sim event slots, in-flight network messages);
//  * sync-style mem::Gauge::Set(bytes) where the owner keeps an O(1)
//    byte counter (tx pool, chain store, consensus bookkeeping, storage
//    backends, vm programs) that is re-synced at deterministic points.
//    Set() computes the delta, so peaks/alloc/free counts still work;
//    its high-water mark granularity is per-sync, not per-mutation.
//
// Every counter records current bytes, the high-water mark with the
// virtual time it was reached, and alloc/free event counts. Aggregation
// is per (node, subsystem), per node, and cluster-wide (a true
// concurrent HWM across subsystems). Export is blockbench-mem-v1 JSON;
// see docs/OBSERVABILITY.md for the taxonomy table.

#ifndef BLOCKBENCH_OBS_MEMTRACK_H_
#define BLOCKBENCH_OBS_MEMTRACK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "sim/simulation.h"
#include "util/json.h"
#include "util/status.h"

namespace bb::obs {

class MemTracker;

namespace mem {

/// The fixed subsystem taxonomy. Names are part of the
/// blockbench-mem-v1 schema; add here, in SubsystemName, and in the
/// docs/OBSERVABILITY.md table together.
enum Subsystem : uint8_t {
  kSimEvents = 0,  // event-loop slots: handles + callable slab
  kNetInflight,    // messages sent but not yet delivered/dropped
  kPoolSlots,      // live tx-pool slots (SoA wire bytes)
  kConsensus,      // per-instance consensus bookkeeping + 2PC entries
  kChainBlocks,    // blocks stored by ChainStore (attached + orphans)
  kStorageState,   // state-store backend bytes (memkv / diskkv log)
  kVm,             // deployed contract programs / chaincode
  kObsSelf,        // the obs stack's own footprint (recorder rings, ...)
  kNumSubsystems,
};

inline const char* SubsystemName(uint8_t s) {
  static constexpr const char* kNames[kNumSubsystems] = {
      "sim.events",   "net.inflight",  "pool.slots", "consensus.bookkeeping",
      "chain.blocks", "storage.state", "vm",         "obs.self"};
  return s < kNumSubsystems ? kNames[s] : "?";
}

/// -1 when the string names no subsystem (validator input).
int SubsystemFromName(const std::string& name);

/// "mem."-prefixed gauge/counter-track names (static lifetime, as the
/// Sampler requires).
inline const char* TrackName(uint8_t s) {
  static constexpr const char* kNames[kNumSubsystems] = {
      "mem.sim.events",   "mem.net.inflight",
      "mem.pool.slots",   "mem.consensus.bookkeeping",
      "mem.chain.blocks", "mem.storage.state",
      "mem.vm",           "mem.obs.self"};
  return s < kNumSubsystems ? kNames[s] : "?";
}

/// Logical sizing constants for bookkeeping models that count container
/// entries rather than wire bytes (consensus vote sets, index maps).
/// They approximate real node-based container overhead; what matters is
/// that they are fixed, documented, and identical across platforms so
/// cross-platform scaling comparisons are apples-to-apples.
inline constexpr uint64_t kSetEntryBytes = 48;  // per element in a vote set
inline constexpr uint64_t kMapEntryBytes = 40;  // per small-value map entry

}  // namespace mem

/// Deterministic logical-byte accounting for one simulation. All methods
/// are inline (hot path) except export/validation, which live in
/// memtrack.cc inside bb_obs.
class MemTracker {
 public:
  /// Owner id for cluster-shared costs (the sim event queue) — exported
  /// as node "global" and excluded from per-node peak gates.
  static constexpr uint32_t kGlobalNode = 0xffffffffu;

  struct Counter {
    uint64_t current = 0;
    uint64_t peak = 0;
    double peak_at = 0;  // virtual time the HWM was (first) reached
    uint64_t allocs = 0;
    uint64_t frees = 0;
  };

  MemTracker() = default;
  MemTracker(const MemTracker&) = delete;
  MemTracker& operator=(const MemTracker&) = delete;

  /// Binds the virtual clock used for peak_at stamps. Called by
  /// Simulation::set_memtracker; hooks before a bind stamp t=0.
  void BindSim(const sim::Simulation* sim) { sim_ = sim; }

  // --- Hot path (inline; one branch when no tracker is attached) --------

  /// `count` alloc events adding `bytes` to (node, subsystem).
  void Track(uint32_t node, mem::Subsystem s, uint64_t bytes,
             uint64_t count = 1) {
    NodeCounters& nc = CountersFor(node);
    double t = Now();
    Grow(nc.subsys[s], bytes, count, t);
    Grow(nc.total, bytes, count, t);
    Grow(cluster_, bytes, count, t);
  }

  /// `count` free events removing `bytes` from (node, subsystem).
  void Untrack(uint32_t node, mem::Subsystem s, uint64_t bytes,
               uint64_t count = 1) {
    NodeCounters& nc = CountersFor(node);
    Shrink(nc.subsys[s], bytes, count);
    Shrink(nc.total, bytes, count);
    Shrink(cluster_, bytes, count);
  }

  /// Sync-style update: sets (node, subsystem) to `bytes`, charging the
  /// delta as one alloc (growth) or one free (shrink) event. No-op when
  /// the value is unchanged.
  void Set(uint32_t node, mem::Subsystem s, uint64_t bytes) {
    NodeCounters& nc = CountersFor(node);
    uint64_t have = nc.subsys[s].current;
    if (bytes == have) return;
    if (bytes > have) {
      Track(node, s, bytes - have);
    } else {
      Untrack(node, s, have - bytes);
    }
  }

  // --- Introspection (sampler gauges, tests) ----------------------------

  uint64_t current(uint32_t node, mem::Subsystem s) const {
    const NodeCounters* nc = Find(node);
    return nc != nullptr ? nc->subsys[s].current : 0;
  }
  uint64_t peak(uint32_t node, mem::Subsystem s) const {
    const NodeCounters* nc = Find(node);
    return nc != nullptr ? nc->subsys[s].peak : 0;
  }
  Counter counter(uint32_t node, mem::Subsystem s) const {
    const NodeCounters* nc = Find(node);
    return nc != nullptr ? nc->subsys[s] : Counter{};
  }
  uint64_t node_current(uint32_t node) const {
    const NodeCounters* nc = Find(node);
    return nc != nullptr ? nc->total.current : 0;
  }
  uint64_t node_peak(uint32_t node) const {
    const NodeCounters* nc = Find(node);
    return nc != nullptr ? nc->total.peak : 0;
  }
  const Counter& cluster() const { return cluster_; }
  /// Highest real node id with any recorded activity, plus one.
  size_t num_nodes() const { return nodes_.size(); }

  /// Committed-transaction count for bytes-per-committed-tx in exports;
  /// set by the harness after the run (0 = none or unknown: the exports
  /// then write bytes_per_committed_tx as null).
  void set_committed(uint64_t committed) { committed_ = committed; }
  uint64_t committed() const { return committed_; }

  // --- Export (memtrack.cc, bb_obs) -------------------------------------

  /// The full blockbench-mem-v1 document. Deterministic member order,
  /// virtual-time data only: byte-identical across runs and --jobs.
  util::Json ToJson() const;
  /// Compact subset for embedding as "mem" in blockbench-sweep-v1 rows:
  /// per-node peak (max + per-node list), per-subsystem peaks,
  /// bytes-per-committed-tx.
  util::Json ToSweepJson() const;
  Status WriteJson(const std::string& path) const;

 private:
  struct NodeCounters {
    Counter subsys[mem::kNumSubsystems];
    Counter total;
  };

  double Now() const { return sim_ != nullptr ? sim_->Now() : 0; }

  static void Grow(Counter& c, uint64_t bytes, uint64_t count, double t) {
    c.current += bytes;
    c.allocs += count;
    if (c.current > c.peak) {
      c.peak = c.current;
      c.peak_at = t;
    }
  }

  static void Shrink(Counter& c, uint64_t bytes, uint64_t count) {
    c.current = bytes <= c.current ? c.current - bytes : 0;
    c.frees += count;
  }

  NodeCounters& CountersFor(uint32_t node) {
    if (node == kGlobalNode) return global_;
    if (node >= nodes_.size()) {
      nodes_.resize(node + 1);
      // The tracker's own table growth is footprint too (obs.self,
      // owned by the cluster): account it live so it shows up in its
      // own attribution instead of silently vanishing.
      uint64_t self = nodes_.capacity() * sizeof(NodeCounters);
      NodeCounters& g = global_;
      uint64_t have = g.subsys[mem::kObsSelf].current;
      if (self > have) {
        double t = Now();
        Grow(g.subsys[mem::kObsSelf], self - have, 1, t);
        Grow(g.total, self - have, 1, t);
        Grow(cluster_, self - have, 1, t);
      }
    }
    return nodes_[node];
  }

  const NodeCounters* Find(uint32_t node) const {
    if (node == kGlobalNode) return &global_;
    return node < nodes_.size() ? &nodes_[node] : nullptr;
  }

  const sim::Simulation* sim_ = nullptr;
  std::vector<NodeCounters> nodes_;
  NodeCounters global_;  // kGlobalNode costs (event queue, obs.self)
  Counter cluster_;      // all nodes + global: true concurrent HWM
  uint64_t committed_ = 0;
};

namespace mem {

/// A bound (tracker, node, subsystem) handle for sync-style owners.
/// Default-constructed = disabled: Set() is one branch, and the byte
/// computation should be guarded by operator bool at the call site.
class Gauge {
 public:
  Gauge() = default;
  Gauge(MemTracker* tracker, uint32_t node, Subsystem s)
      : tracker_(tracker), node_(node), subsystem_(s) {}

  explicit operator bool() const { return tracker_ != nullptr; }

  void Set(uint64_t bytes) {
    if (tracker_ != nullptr) tracker_->Set(node_, subsystem_, bytes);
  }

 private:
  MemTracker* tracker_ = nullptr;
  uint32_t node_ = 0;
  Subsystem subsystem_ = kSimEvents;
};

}  // namespace mem

/// Renders the per-subsystem attribution table for one parsed
/// blockbench-mem-v1 document (peak bytes, share of cluster peak-sum,
/// alloc/free counts, end-of-run residency).
std::string RenderMemAttribution(const util::Json& dump);

/// Renders the diff table between two mem dumps: per-subsystem peak
/// deltas sorted by absolute delta, so the top growth centers lead.
std::string RenderMemDiff(const util::Json& before, const util::Json& after);

/// Structural validation of a blockbench-mem-v1 document: schema tag,
/// taxonomy names, counter invariants (current <= peak), and the
/// cross-check that node totals equal their subsystem sums and the
/// aggregate section equals the node-wise column sums (so a tampered
/// byte count is rejected, not just a malformed shape).
Status ValidateMemDump(const util::Json& dump);

}  // namespace bb::obs

#endif  // BLOCKBENCH_OBS_MEMTRACK_H_
