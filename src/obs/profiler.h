// Wall-clock profiler with subsystem attribution and allocation/copy
// accounting.
//
// The tracer/metrics stack measures *virtual* time — deterministic,
// byte-identical across runs — but the raw-speed campaign optimizes
// *wall-clock* cost, and until now nothing attributed real CPU seconds
// to subsystems. This profiler closes that gap:
//
//  * BB_PROF_SCOPE("consensus.pbft.prepare") opens a scoped timer on a
//    thread-local call-tree. Nesting is attributed exactly: a scope's
//    self time excludes its profiled children, so rollups never double
//    count.
//  * BB_PROF_ALLOC(count, bytes) / BB_PROF_COPY(bytes) charge
//    allocation and byte-copy work to the innermost open scope — the
//    message path counts each shared payload where it is allocated
//    (sim::Payload) and the modeled wire bytes each send copies, so
//    bytes-copied and allocs-per-event are first-class metrics, not
//    guesses.
//  * The first dotted segment of a scope name selects its subsystem
//    (consensus / serialize / hash / storage / vm / sim / driver); the
//    Profiler aggregator rolls self time up per subsystem and exports
//    blockbench-profile-v1 JSON, folded stacks (flamegraph.pl /
//    speedscope), and Perfetto counter tracks.
//
// Disabled-mode contract (same pattern as Simulation::set_tracer): the
// hot path reads one `constinit thread_local` pointer; when no profiler
// is attached to the thread that is a single predictable branch per
// scope. CI gates the ratio BM_SimulationEventLoopProfOff /
// BM_SimulationEventLoop < 1.03.
//
// Everything the instrumented hot paths touch lives in this header so
// that bb_sim / bb_storage / bb_vm / bb_chain (which sit *below* bb_obs
// in the link graph) can use the macros without a link-time dependency;
// only aggregation and export (class Profiler) need bb_obs.
//
// Wall-clock values are nondeterministic by nature and are never part
// of golden digests; virtual-time behaviour is unchanged whether or not
// a profiler is attached.

#ifndef BLOCKBENCH_OBS_PROFILER_H_
#define BLOCKBENCH_OBS_PROFILER_H_

#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/json.h"
#include "util/status.h"

namespace bb::obs {

class Profiler;

namespace prof {

/// Subsystem buckets for attribution rollups. Mapped from the first
/// dotted segment of the scope name — see SubsystemOf().
enum Subsystem : uint8_t {
  kConsensus = 0,
  kSerialization,
  kHashing,
  kStorage,
  kVm,
  kSimKernel,
  kDriver,
  kOther,
  kNumSubsystems,
};

inline const char* SubsystemName(uint8_t s) {
  static constexpr const char* kNames[kNumSubsystems] = {
      "consensus", "serialization", "hashing", "storage",
      "vm",        "sim-kernel",    "driver",  "other"};
  return s < kNumSubsystems ? kNames[s] : "other";
}

/// First dotted segment -> subsystem. "consensus.pbft.prepare" ->
/// kConsensus, "serialize.msg_send" -> kSerialization, "hash.merkle" ->
/// kHashing, etc. Unknown prefixes land in kOther so a typo'd scope is
/// visible in reports instead of silently dropped.
inline Subsystem SubsystemOf(const char* name) {
  const char* dot = std::strchr(name, '.');
  size_t n = dot != nullptr ? size_t(dot - name) : std::strlen(name);
  switch (n) {
    case 2:
      if (std::memcmp(name, "vm", 2) == 0) return kVm;
      break;
    case 3:
      if (std::memcmp(name, "sim", 3) == 0) return kSimKernel;
      break;
    case 4:
      if (std::memcmp(name, "hash", 4) == 0) return kHashing;
      break;
    case 6:
      if (std::memcmp(name, "driver", 6) == 0) return kDriver;
      break;
    case 7:
      if (std::memcmp(name, "storage", 7) == 0) return kStorage;
      break;
    case 9:
      if (std::memcmp(name, "consensus", 9) == 0) return kConsensus;
      if (std::memcmp(name, "serialize", 9) == 0) return kSerialization;
      break;
    default:
      break;
  }
  return kOther;
}

inline uint64_t NowNs() {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}

/// One thread's call-tree of profiled scopes. Nodes are identified by
/// (parent, name); children of a node form a singly linked sibling list
/// (trees are tiny — tens of nodes — so linear scan beats hashing).
/// Not thread-safe: exactly one thread mutates a ThreadProfile, and the
/// Profiler merges it only after the thread detaches.
class ThreadProfile {
 public:
  struct Node {
    const char* name;        // static-lifetime string (scope literal)
    int32_t parent;          // -1 for roots
    int32_t first_child = -1;
    int32_t next_sibling = -1;
    uint8_t subsystem = kOther;
    uint64_t count = 0;      // completed invocations
    uint64_t total_ns = 0;   // inclusive wall time
    uint64_t self_ns = 0;    // total minus profiled children
    uint64_t alloc_count = 0;
    uint64_t alloc_bytes = 0;
    uint64_t copy_count = 0;
    uint64_t copy_bytes = 0;
  };

  /// One cumulative per-subsystem self-ns sample, for Perfetto counter
  /// tracks ("where did the CPU go over wall time").
  struct CounterSample {
    uint64_t at_ns;  // since thread attach
    uint64_t subsys_self_ns[kNumSubsystems];
  };

  ThreadProfile() {
    nodes_.reserve(64);
    stack_.reserve(16);
    attach_ns_ = NowNs();
    last_sample_ns_ = attach_ns_;
  }

  // --- Hot path ----------------------------------------------------------

  void Enter(const char* name) {
    int32_t parent = stack_.empty() ? -1 : stack_.back().node;
    int32_t idx = FindOrAddChild(parent, name);
    stack_.push_back(Frame{idx, NowNs(), 0});
  }

  void Exit() {
    Frame f = stack_.back();
    stack_.pop_back();
    uint64_t end = NowNs();
    uint64_t dur = end - f.start_ns;
    Node& n = nodes_[size_t(f.node)];
    uint64_t self = dur > f.child_ns ? dur - f.child_ns : 0;
    n.count += 1;
    n.total_ns += dur;
    n.self_ns += self;
    subsys_self_ns_[n.subsystem] += self;
    if (!stack_.empty()) {
      stack_.back().child_ns += dur;
    } else if (end - last_sample_ns_ >= kSampleIntervalNs) {
      // Snapshot cumulative per-subsystem self time at most every
      // ~50ms of wall clock, only at stack depth 0 so samples never
      // split an open scope.
      last_sample_ns_ = end;
      CounterSample s;
      s.at_ns = end - attach_ns_;
      for (size_t i = 0; i < kNumSubsystems; ++i) {
        s.subsys_self_ns[i] = subsys_self_ns_[i];
      }
      samples_.push_back(s);
    }
  }

  void Alloc(uint64_t count, uint64_t bytes) {
    Node& n = AttributionNode();
    n.alloc_count += count;
    n.alloc_bytes += bytes;
  }

  void Copy(uint64_t bytes) {
    Node& n = AttributionNode();
    n.copy_count += 1;
    n.copy_bytes += bytes;
  }

  // --- Aggregation side --------------------------------------------------

  /// Accumulates another profile's call tree into this one, matching
  /// nodes by (parent, name). Counter samples are not merged (they are
  /// per-thread series; the Profiler keeps them tagged by thread).
  void MergeFrom(const ThreadProfile& other) {
    std::vector<int32_t> remap(other.nodes_.size(), -1);
    // Parents are always created before their children, so one forward
    // pass sees every parent already remapped.
    for (size_t i = 0; i < other.nodes_.size(); ++i) {
      const Node& src = other.nodes_[i];
      int32_t parent = src.parent < 0 ? -1 : remap[size_t(src.parent)];
      int32_t dst = FindOrAddChild(parent, src.name);
      remap[i] = dst;
      Node& d = nodes_[size_t(dst)];
      d.count += src.count;
      d.total_ns += src.total_ns;
      d.self_ns += src.self_ns;
      d.alloc_count += src.alloc_count;
      d.alloc_bytes += src.alloc_bytes;
      d.copy_count += src.copy_count;
      d.copy_bytes += src.copy_bytes;
    }
    for (size_t s = 0; s < kNumSubsystems; ++s) {
      subsys_self_ns_[s] += other.subsys_self_ns_[s];
    }
  }

  const std::vector<Node>& nodes() const { return nodes_; }
  const std::vector<CounterSample>& samples() const { return samples_; }
  const uint64_t* subsys_self_ns() const { return subsys_self_ns_; }
  size_t open_depth() const { return stack_.size(); }
  uint64_t attach_ns() const { return attach_ns_; }

 private:
  struct Frame {
    int32_t node;
    uint64_t start_ns;
    uint64_t child_ns;  // inclusive time of directly profiled children
  };

  static constexpr uint64_t kSampleIntervalNs = 50'000'000;  // 50ms

  int32_t FindOrAddChild(int32_t parent, const char* name) {
    int32_t head =
        parent < 0 ? root_head_ : nodes_[size_t(parent)].first_child;
    for (int32_t i = head; i >= 0; i = nodes_[size_t(i)].next_sibling) {
      // Scope names are string literals; within one binary the same
      // site always passes the same pointer, so pointer equality is the
      // fast path and strcmp only runs for cross-TU duplicates.
      const char* have = nodes_[size_t(i)].name;
      if (have == name || std::strcmp(have, name) == 0) return i;
    }
    Node n;
    n.name = name;
    n.parent = parent;
    n.subsystem = uint8_t(SubsystemOf(name));
    n.next_sibling = head;
    nodes_.push_back(n);
    int32_t idx = int32_t(nodes_.size()) - 1;
    if (parent < 0) {
      root_head_ = idx;
    } else {
      nodes_[size_t(parent)].first_child = idx;
    }
    return idx;
  }

  /// Alloc/copy work outside any open scope is charged to a synthetic
  /// "unattributed" root so the byte totals always balance.
  Node& AttributionNode() {
    if (!stack_.empty()) return nodes_[size_t(stack_.back().node)];
    if (unattributed_ < 0) {
      unattributed_ = FindOrAddChild(-1, "other.unattributed");
    }
    return nodes_[size_t(unattributed_)];
  }

  std::vector<Node> nodes_;
  std::vector<Frame> stack_;
  std::vector<CounterSample> samples_;
  uint64_t subsys_self_ns_[kNumSubsystems] = {};
  int32_t root_head_ = -1;
  int32_t unattributed_ = -1;
  uint64_t attach_ns_ = 0;
  uint64_t last_sample_ns_ = 0;
};

/// The per-thread attach point. constinit zero-init: no TLS guard on
/// the read path, so the disabled cost really is one load + branch.
inline constinit thread_local ThreadProfile* g_thread_profile = nullptr;

inline ThreadProfile* Current() { return g_thread_profile; }

/// RAII scope. Reads the TLS pointer once in the constructor — when no
/// profiler is attached both constructor and destructor are a single
/// predicted-not-taken branch.
class Scope {
 public:
  explicit Scope(const char* name) : tp_(g_thread_profile) {
    if (tp_ != nullptr) tp_->Enter(name);
  }
  ~Scope() {
    if (tp_ != nullptr) tp_->Exit();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  ThreadProfile* tp_;
};

inline void CountAlloc(uint64_t count, uint64_t bytes) {
  if (ThreadProfile* tp = g_thread_profile; tp != nullptr) {
    tp->Alloc(count, bytes);
  }
}

inline void CountCopy(uint64_t bytes) {
  if (ThreadProfile* tp = g_thread_profile; tp != nullptr) tp->Copy(bytes);
}

}  // namespace prof

// Scope names must be string literals (static lifetime) and follow the
// "<subsystem>.<site>" convention — docs/OBSERVABILITY.md lists the
// recognized subsystem prefixes.
#define BB_PROF_CONCAT_INNER(a, b) a##b
#define BB_PROF_CONCAT(a, b) BB_PROF_CONCAT_INNER(a, b)
#define BB_PROF_SCOPE(name) \
  ::bb::obs::prof::Scope BB_PROF_CONCAT(bb_prof_scope_, __LINE__)(name)
// Statement macros so the operands (often a SizeBytes() walk) are only
// evaluated when a profiler is attached — disabled cost is one branch.
#define BB_PROF_ALLOC(count, bytes)                                        \
  do {                                                                     \
    if (::bb::obs::prof::ThreadProfile* bb_prof_tp_ =                      \
            ::bb::obs::prof::g_thread_profile;                             \
        bb_prof_tp_ != nullptr) {                                          \
      bb_prof_tp_->Alloc(uint64_t(count), uint64_t(bytes));                \
    }                                                                      \
  } while (0)
#define BB_PROF_COPY(bytes)                                                \
  do {                                                                     \
    if (::bb::obs::prof::ThreadProfile* bb_prof_tp_ =                      \
            ::bb::obs::prof::g_thread_profile;                             \
        bb_prof_tp_ != nullptr) {                                          \
      bb_prof_tp_->Copy(uint64_t(bytes));                                  \
    }                                                                      \
  } while (0)

/// Aggregates ThreadProfiles into one profile document. One Profiler
/// serves one logical run (e.g. one sweep case, or one bbench
/// invocation); worker threads attach around their work and the merge
/// happens at detach under a mutex, so SweepRunner --jobs=N aggregates
/// correctly and key order in every export is deterministic
/// (wall-clock *values* are not, and never enter golden digests).
class Profiler {
 public:
  Profiler();
  ~Profiler();
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Attaches the calling thread: BB_PROF_SCOPE et al. start recording
  /// into a fresh ThreadProfile owned by this Profiler. Nesting
  /// attaches (same thread, any profiler) is a programming error.
  void AttachCurrentThread();
  /// Detaches and merges the thread's profile into the aggregate.
  void DetachCurrentThread();

  /// RAII attach/detach for worker-thread bodies.
  class ThreadScope {
   public:
    explicit ThreadScope(Profiler* p) : p_(p) {
      if (p_ != nullptr) p_->AttachCurrentThread();
    }
    ~ThreadScope() {
      if (p_ != nullptr) p_->DetachCurrentThread();
    }
    ThreadScope(const ThreadScope&) = delete;
    ThreadScope& operator=(const ThreadScope&) = delete;

   private:
    Profiler* p_;
  };

  /// Freezes the profile duration (wall time from construction). Called
  /// implicitly by the exporters on first use.
  void Stop();

  // --- Aggregate introspection -------------------------------------------

  size_t num_threads() const { return threads_merged_; }
  double duration_seconds() const;
  /// Inclusive wall seconds of root scopes (the attributed fraction's
  /// numerator is per-subsystem self time; this is the tree total).
  double attributed_seconds() const;
  uint64_t subsystem_self_ns(uint8_t s) const;
  uint64_t total_alloc_count() const;
  uint64_t total_alloc_bytes() const;
  uint64_t total_copy_count() const;
  uint64_t total_copy_bytes() const;

  /// Denominator for allocs-per-event / copies-per-event: the caller
  /// knows how many simulator events the run dispatched.
  void set_events(uint64_t events) { events_ = events; }

  // --- Export ------------------------------------------------------------

  /// Full profile document (schema blockbench-profile-v1): per-subsystem
  /// rollup, per-scope tree rows sorted by path, allocation/copy
  /// counters, and the Perfetto-ready counter timeline. Deterministic
  /// key order; values are wall-clock and therefore not.
  util::Json ToJson() const;
  /// Compact subset for embedding as "wall_profile" in
  /// blockbench-sweep-v1 rows (subsystem rollup + counters only).
  util::Json ToSweepJson() const;
  /// Folded-stack lines ("root;child;leaf self_us\n"), flamegraph.pl /
  /// speedscope compatible, sorted by path.
  std::string DumpFolded() const;
  Status WriteFolded(const std::string& path) const;
  /// Chrome trace_event counter tracks: one "prof.<subsystem>" counter
  /// per subsystem, values in self-milliseconds, sampled on the
  /// profiled threads' wall clocks.
  Status WritePerfettoCounters(const std::string& path) const;
  Status WriteJson(const std::string& path) const;

 private:
  /// One detached thread's counter samples, re-based onto this
  /// Profiler's clock. Cumulative series never mix across threads.
  struct ThreadSamples {
    size_t thread_index;
    std::vector<prof::ThreadProfile::CounterSample> samples;
  };

  void MergeLocked(std::unique_ptr<prof::ThreadProfile> tp);

  mutable std::mutex mu_;
  std::unique_ptr<prof::ThreadProfile> merged_;  // aggregate call tree
  std::vector<ThreadSamples> samples_;
  size_t threads_merged_ = 0;
  uint64_t events_ = 0;
  uint64_t start_ns_ = 0;
  uint64_t stop_ns_ = 0;  // 0 = still running
};

/// Renders the subsystem attribution table for one profile document
/// (parsed blockbench-profile-v1), as bbreport prof prints it.
std::string RenderProfileAttribution(const util::Json& profile);

/// Renders the profile diff table (before vs after): per-subsystem self
/// time, allocation and copy deltas, sorted by absolute self-time
/// delta so the top cost centers lead.
std::string RenderProfileDiff(const util::Json& before,
                              const util::Json& after);

/// Structural validation of a blockbench-profile-v1 document.
Status ValidateProfile(const util::Json& profile);

/// Fraction of profile duration attributed to named (non-"other")
/// subsystems, in [0,1]; 0 when the document is malformed.
double AttributedFraction(const util::Json& profile);

}  // namespace bb::obs

#endif  // BLOCKBENCH_OBS_PROFILER_H_
