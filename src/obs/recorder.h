// FlightRecorder: the black box. A per-node bounded ring of compact,
// virtual-time-stamped records — message send/recv/drop keyed by the
// deterministic Message.seq the Tracer already uses for flow arrows,
// consensus phase/view transitions, block seal/commit/fork-switch,
// timer fires, and fault-schedule edges (crash/recover/partition/heal).
//
// One FlightRecorder serves one sim::Simulation, attached through the
// non-owning Simulation::set_recorder pointer exactly like set_tracer:
// disabled mode costs one pointer test per hook site, and the recording
// methods are inline so bb_sim (below bb_obs in the link graph) can
// record without a link-time dependency.
//
// Unlike the Tracer, the recorder is bounded: each node keeps only the
// last `ring_capacity` records (evicted counts are reported), so it can
// stay armed for a multi-minute adversarial run at O(nodes) memory.
//
// On an audit violation (or on request) the rings serialize to a
// `blockbench-blackbox-v1` JSON document embedding the run's full
// configuration (RunSpec) — enough for `bbench --replay=FILE` to re-run
// it deterministically — plus a *causal slice*: a backward traversal
// from the violation site through recv->send flow edges and bounded
// program order down to the event set that produced it. All content is
// virtual-time data, so dumps are byte-identical across runs and across
// sweep --jobs values. See docs/OBSERVABILITY.md.

#ifndef BLOCKBENCH_OBS_RECORDER_H_
#define BLOCKBENCH_OBS_RECORDER_H_

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/msg_kind.h"
#include "util/json.h"
#include "util/status.h"

namespace bb::obs {

class MetricsRegistry;

/// The run configuration a blackbox dump embeds — every knob needed to
/// re-run the recorded experiment bit-for-bit through bbench --replay.
/// bbench fills it from its CLI args; the bench harness fills it from a
/// MacroConfig (the three seeds differ between the two front ends, so
/// all three are recorded explicitly).
struct RunSpec {
  std::string platform = "hyperledger";  // registry name or stack spec
  std::string workload = "ycsb";
  uint64_t servers = 8;  // per shard when the spec carries @shards=
  uint64_t clients = 8;
  double cross_shard = 0;
  double rate = 100;
  double duration = 120;
  double warmup = 10;
  double drain = 30;
  uint64_t max_outstanding = 0;
  uint64_t seed = 42;           // Simulation seed
  uint64_t platform_seed = 42;  // MakePlatform seed
  uint64_t driver_seed = 42;    // DriverConfig seed
  /// 0 = the workload's own default preload size.
  uint64_t ycsb_records = 0;
  uint64_t smallbank_accounts = 0;
  std::vector<std::pair<uint64_t, double>> crashes;  // (server, time)
  double partition_start = -1, partition_end = -1;   // < 0 = none
  double delay = 0;
  double corrupt = 0;

  util::Json ToJson() const;
  static Result<RunSpec> FromJson(const util::Json& run);
};

/// Why a dump was written: "audit_violation" carries the first violated
/// invariant, "explicit" means --blackbox / a test asked for it.
struct BlackboxTrigger {
  std::string kind = "explicit";
  std::string invariant;
  std::string detail;
};

class FlightRecorder {
 public:
  enum class Kind : uint8_t {
    kSend = 0,    // id=Message.seq, peer=to, aux=size_bytes
    kRecv,        // id=Message.seq, peer=from, aux=size_bytes
    kDrop,        // id=Message.seq, peer=other end, aux: 0=at send, 1=in flight
    kPhase,       // consensus transition; id/aux are phase-specific
    kTimer,       // a timeout fired and changed behaviour; id=view/round/...
    kSeal,        // id=height, aux=block-hash prefix
    kCommit,      // id=height, aux=block-hash prefix (canonical execution)
    kForkSwitch,  // id=new head height, aux=rewind depth
    kCrash,       // fault-schedule edges; aux=partition side for kPartition
    kRecover,
    kPartition,
    kHeal,
  };
  static constexpr size_t kNumKinds = 12;
  /// Inline so the bb_sim fault hooks (below bb_obs in the link graph)
  /// can name their records without a link-time dependency.
  static const char* KindName(Kind k) {
    static const char* const kNames[kNumKinds] = {
        "send",   "recv",        "drop",  "phase",   "timer",     "seal",
        "commit", "fork_switch", "crash", "recover", "partition", "heal",
    };
    return kNames[size_t(k)];
  }
  /// -1 when the string names no kind (validator input).
  static int KindFromName(const std::string& name);

  struct Record {
    double t = 0;
    uint64_t id = 0;
    uint64_t aux = 0;
    uint32_t peer = kNoPeer;
    uint32_t name = 0;  // index into the interned name table
    Kind kind = Kind::kPhase;
  };
  static constexpr uint32_t kNoPeer = 0xffffffffu;
  static constexpr size_t kDefaultRingCapacity = 4096;
  /// Causal-slice size cap ("minimal" is bounded, not exhaustive).
  static constexpr size_t kMaxSliceRecords = 512;

  explicit FlightRecorder(size_t ring_capacity = kDefaultRingCapacity)
      : capacity_(ring_capacity == 0 ? 1 : ring_capacity) {}

  // --- Recording (hot path when enabled; inline for bb_sim) --------------

  void MsgSend(uint32_t node, double t, uint64_t seq, uint32_t to,
               sim::MsgKind kind, uint64_t bytes) {
    Push(node, Record{t, seq, bytes, to, Intern(kind), Kind::kSend});
  }
  void MsgRecv(uint32_t node, double t, uint64_t seq, uint32_t from,
               sim::MsgKind kind, uint64_t bytes) {
    Push(node, Record{t, seq, bytes, from, Intern(kind), Kind::kRecv});
  }
  /// in_flight=false: dropped at send time (crashed end, partition, loss,
  /// full inbox); true: dropped at delivery time (state changed mid-hop).
  void MsgDrop(uint32_t node, double t, uint64_t seq, uint32_t peer,
               sim::MsgKind kind, bool in_flight) {
    Push(node,
         Record{t, seq, in_flight ? 1u : 0u, peer, Intern(kind), Kind::kDrop});
  }
  /// A consensus phase/view transition ("pbft.view_change", ...).
  void Phase(uint32_t node, double t, const char* name, uint64_t id = 0,
             uint64_t aux = 0) {
    Push(node, Record{t, id, aux, kNoPeer, Intern(name), Kind::kPhase});
  }
  /// A timer that fired AND changed behaviour (view change started,
  /// round advanced, election called, 2PC decision timed out).
  void Timer(uint32_t node, double t, const char* name, uint64_t id = 0) {
    Push(node, Record{t, id, 0, kNoPeer, Intern(name), Kind::kTimer});
  }
  void Seal(uint32_t node, double t, uint64_t height, uint64_t hash_prefix) {
    Push(node,
         Record{t, height, hash_prefix, kNoPeer, Intern("block.seal"),
                Kind::kSeal});
  }
  void Commit(uint32_t node, double t, uint64_t height, uint64_t hash_prefix) {
    Push(node,
         Record{t, height, hash_prefix, kNoPeer, Intern("block.commit"),
                Kind::kCommit});
  }
  void ForkSwitch(uint32_t node, double t, uint64_t height,
                  uint64_t rewind_depth) {
    Push(node,
         Record{t, height, rewind_depth, kNoPeer, Intern("chain.fork_switch"),
                Kind::kForkSwitch});
  }
  /// Fault-schedule edge; `kind` must be kCrash/kRecover/kPartition/kHeal.
  void Fault(Kind kind, uint32_t node, double t, uint64_t aux = 0) {
    Push(node, Record{t, 0, aux, kNoPeer, Intern(KindName(kind)), kind});
  }

  // --- Replay breakpoint --------------------------------------------------

  /// bbench --until=TIME,SEQ: the network hook requests a simulation
  /// stop as soon as message seq `seq` has been sent. 0 = no breakpoint.
  void set_break_seq(uint64_t seq) { break_seq_ = seq; }
  uint64_t break_seq() const { return break_seq_; }

  // --- Introspection ------------------------------------------------------

  size_t ring_capacity() const { return capacity_; }
  size_t num_nodes() const { return rings_.size(); }
  /// Everything ever pushed for `node` (including evicted records).
  uint64_t recorded(uint32_t node) const {
    return node < rings_.size() ? rings_[node].total : 0;
  }
  uint64_t evicted(uint32_t node) const {
    uint64_t n = recorded(node);
    return n > capacity_ ? n - capacity_ : 0;
  }
  size_t ring_size(uint32_t node) const {
    return node < rings_.size() ? rings_[node].buf.size() : 0;
  }
  /// The i-th oldest surviving record on `node`'s ring.
  const Record& At(uint32_t node, size_t i) const;
  const std::string& Name(uint32_t idx) const { return names_[idx]; }
  size_t num_names() const { return names_.size(); }

  // --- Export -------------------------------------------------------------

  /// Per-node ring occupancy and eviction gauges ("recorder.ring_size",
  /// "recorder.recorded", "recorder.evicted", labelled {node=i}), so
  /// eviction pressure is visible in any metrics snapshot without
  /// writing a blackbox dump. Ring capacity rides along unlabelled.
  void ExportMetrics(MetricsRegistry* reg) const;

  /// The blockbench-blackbox-v1 document: run spec, trigger, the full
  /// rings, and the causal slice. Deterministic member order; contains
  /// no wall-clock data, so it is byte-identical across runs and --jobs.
  util::Json ToJson(const RunSpec& run, const BlackboxTrigger& trigger) const;
  Status WriteJson(const std::string& path, const RunSpec& run,
                   const BlackboxTrigger& trigger) const;

 private:
  struct Ring {
    std::vector<Record> buf;  // wraps at capacity_; oldest = total % cap
    uint64_t total = 0;
  };

  uint32_t Intern(const std::string& name) {
    auto [it, inserted] = name_idx_.emplace(name, uint32_t(names_.size()));
    if (inserted) names_.push_back(name);
    return it->second;
  }
  uint32_t Intern(const char* name) { return Intern(std::string(name)); }
  /// A message kind's wire name, interned on first sight like any other
  /// name (so the name table keeps first-seen order) and cached per kind.
  uint32_t Intern(sim::MsgKind kind) {
    uint32_t& slot = kind_name_[size_t(kind)];
    if (slot == 0) slot = Intern(sim::MsgKindName(kind)) + 1;
    return slot - 1;
  }

  void Push(uint32_t node, Record r) {
    if (node >= rings_.size()) rings_.resize(node + 1);
    Ring& g = rings_[node];
    if (g.buf.size() < capacity_) {
      g.buf.push_back(r);
    } else {
      g.buf[g.total % capacity_] = r;
    }
    ++g.total;
  }

  util::Json SliceToJson() const;

  size_t capacity_;
  std::vector<Ring> rings_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, uint32_t> name_idx_;
  std::array<uint32_t, sim::kNumMsgKinds> kind_name_{};  // name index + 1
  uint64_t break_seq_ = 0;
};

/// Structural validation of a parsed blockbench-blackbox-v1 document
/// (schema tag, run spec completeness, ring/record shape, name-table
/// references, per-node time monotonicity, causal-slice shape).
Status ValidateBlackbox(const util::Json& doc);

/// Per-node record/eviction summary plus the trigger line.
std::string RenderBlackboxSummary(const util::Json& doc);

/// The interleaved cross-node timeline, newest records last; at most
/// `limit` lines (0 = everything). Causal-slice records are marked '*'.
std::string RenderBlackboxTimeline(const util::Json& doc, size_t limit);

/// Names the first height at which two nodes' committed views diverge
/// ("" when every commit agrees and no fork switch was recorded).
std::string FirstDivergence(const util::Json& doc);

}  // namespace bb::obs

#endif  // BLOCKBENCH_OBS_RECORDER_H_
