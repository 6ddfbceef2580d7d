// FlightRecorder: the black box. A per-node bounded ring of compact,
// virtual-time-stamped records — message send/recv/drop keyed by the
// deterministic Message.seq the Tracer already uses for flow arrows,
// consensus phase/view transitions, block seal/commit/fork-switch,
// timer fires, and fault-schedule edges (crash/recover/partition/heal).
//
// One FlightRecorder serves one sim::Simulation as a sink of its event
// stream (Simulation::set_recorder, see obs/event.h): disarmed, it costs
// one pointer test per hook site. Its record kinds are the first
// kNumRecordKinds event kinds, under the same names.
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

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/event.h"
#include "obs/run_spec.h"
#include "util/json.h"
#include "util/status.h"

namespace bb::obs {

class MetricsRegistry;

/// Why a dump was written: "audit_violation" carries the first violated
/// invariant, "explicit" means --blackbox / a test asked for it.
struct BlackboxTrigger {
  std::string kind = "explicit";
  std::string invariant;
  std::string detail;
};

class FlightRecorder final : public Sink {
 public:
  /// Record kinds: the event kinds below kNumRecordKinds, named by
  /// EventKindName.
  using Kind = EventKind;
  /// -1 when the string names no record kind (validator input).
  static int KindFromName(const std::string& name);

  struct Record {
    double t = 0;
    uint64_t id = 0;
    uint64_t aux = 0;
    uint32_t peer = kNoPeer;
    uint32_t name = 0;  // index into the interned name table
    Kind kind = Kind::kPhase;
  };
  static constexpr uint32_t kNoPeer = Event::kNoPeer;
  static constexpr size_t kDefaultRingCapacity = 4096;
  /// Causal-slice size cap ("minimal" is bounded, not exhaustive).
  static constexpr size_t kMaxSliceRecords = 512;

  explicit FlightRecorder(size_t ring_capacity = kDefaultRingCapacity)
      : capacity_(ring_capacity == 0 ? 1 : ring_capacity) {}

  /// Records every event of a record kind as is, with two exceptions: a
  /// kDrop record carries aux=1 (lost in flight), and a kRefused event
  /// becomes a send record followed by a drop record with aux=0 (lost at
  /// send). Fault edges are named by their kind.
  void Observe(const Event& e) override;
  /// The node's ring: its surviving records at sizeof(Record) each.
  uint64_t HeldBytes(uint32_t node) const override {
    return uint64_t(ring_size(node)) * sizeof(Record);
  }

  // --- Replay breakpoint --------------------------------------------------

  /// bbench --until=TIME,SEQ: the network hook requests a simulation
  /// stop as soon as message seq `seq` has been sent. 0 = no breakpoint.
  void set_break_seq(uint64_t seq) { break_seq_ = seq; }
  uint64_t BreakSeq() const override { return break_seq_; }

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

  /// Index of `name` in the name table, interned on first sight (so the
  /// table keeps first-seen order); cached per static string.
  uint32_t Intern(const char* name);
  void Push(uint32_t node, Record r);

  util::Json SliceToJson() const;

  size_t capacity_;
  std::vector<Ring> rings_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, uint32_t> name_idx_;
  std::unordered_map<const char*, uint32_t> name_of_ptr_;
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
