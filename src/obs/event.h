// The one observation stream: every instrumented site emits one typed
// obs::Event through one pointer, Simulation::hook(), which is nullptr
// while nothing observes — the whole disabled cost is one pointer test
// per site. The Tracer and the FlightRecorder are the sinks of that
// stream; each decides in its own Observe() what it keeps of each kind,
// so no site knows either sink's API.
//
// Header-only: bb_sim (below bb_obs in the link graph) emits events and
// reads the hook without a link-time dependency; the sinks' virtual
// functions live in bb_obs. See docs/OBSERVABILITY.md for the kind ->
// sink table.

#ifndef BLOCKBENCH_OBS_EVENT_H_
#define BLOCKBENCH_OBS_EVENT_H_

#include <array>
#include <cstddef>
#include <cstdint>

// X(enumerator, name). The first twelve kinds are the flight recorder's
// record kinds, in blackbox wire order under these names; the kinds
// after them the recorder keeps no record of its own kind for.
#define BB_OBS_EVENT_KINDS(X)                                               \
  X(kSend, "send")               /* node=from id=seq peer=to aux=bytes */   \
  X(kRecv, "recv")               /* node=to id=seq peer=from aux=bytes */   \
  X(kDrop, "drop")               /* lost in flight; fields as kRecv */      \
  X(kPhase, "phase")             /* consensus/2PC; see Event::start */      \
  X(kTimer, "timer")             /* a timeout changed behaviour */          \
  X(kSeal, "seal")               /* id=height aux=tx-root prefix */         \
  X(kCommit, "commit")           /* id=height aux=block-hash prefix */      \
  X(kForkSwitch, "fork_switch")  /* id=head height aux=rewind depth */      \
  X(kCrash, "crash")             /* fault-schedule edges */                 \
  X(kRecover, "recover")                                                    \
  X(kPartition, "partition")     /* aux=side */                             \
  X(kHeal, "heal")                                                          \
  X(kRefused, "refused")         /* lost at send; fields as kSend */        \
  X(kReorg, "reorg")             /* an engine's head switched forks */      \
  X(kTxSubmit, "tx_submit")      /* lifecycle milestones: id=tx id */       \
  X(kTxAdmit, "tx_admit")                                                   \
  X(kTxPropose, "tx_propose")                                               \
  X(kTxCommit, "tx_commit")                                                 \
  X(kTxConfirm, "tx_confirm")                                               \
  X(kCounter, "counter")         /* name=gauge value=sample */

namespace bb::obs {

enum class EventKind : uint8_t {
#define BB_OBS_EVENT_ENUM(e, name) e,
  BB_OBS_EVENT_KINDS(BB_OBS_EVENT_ENUM)
#undef BB_OBS_EVENT_ENUM
};

/// The kinds below kRefused are the flight recorder's record kinds.
inline constexpr size_t kNumRecordKinds = size_t(EventKind::kRefused);

constexpr const char* EventKindName(EventKind kind) {
  constexpr const char* kNames[] = {
#define BB_OBS_EVENT_NAME(e, name) name,
      BB_OBS_EVENT_KINDS(BB_OBS_EVENT_NAME)
#undef BB_OBS_EVENT_NAME
  };
  return kNames[size_t(kind)];
}

/// Event::start for a phase that is a point in time, not a span.
inline constexpr double kInstant = -2;

struct Event {
  static constexpr uint32_t kNoPeer = 0xffffffffu;

  EventKind kind;
  uint32_t node = 0;
  double t = 0;  // virtual seconds
  uint64_t id = 0;
  uint64_t aux = 0;
  uint32_t peer = kNoPeer;
  /// Static-lifetime string; message events carry the message kind's
  /// wire name, fault edges none.
  const char* name = nullptr;
  /// kPhase: the span [start, end] when start >= 0; kInstant marks a
  /// point at t; any other negative start is a phase whose beginning
  /// this node never saw, which the tracer does not draw.
  double start = -1;
  double end = 0;
  /// One optional named number (static-lifetime key).
  const char* arg = nullptr;
  double value = 0;
};

/// A consumer of the event stream.
class Sink {
 public:
  /// Keeps what this sink wants of `e`.
  virtual void Observe(const Event& e) = 0;
  /// Bytes this sink holds for `node` (the obs.self memory gauge).
  virtual uint64_t HeldBytes(uint32_t /*node*/) const { return 0; }
  /// Message seq whose send stops the run (the replay breakpoint of
  /// bbench --until); 0 = none.
  virtual uint64_t BreakSeq() const { return 0; }

 protected:
  ~Sink() = default;
};

/// The one hook a Simulation owns: up to two attached sinks, the tracer
/// and the flight recorder, fed the same events in that order.
class Hook {
 public:
  enum Slot : size_t { kTraceSlot = 0, kRecordSlot, kNumSlots };

  void Attach(Slot slot, Sink* sink) { sinks_[slot] = sink; }
  bool empty() const {
    return sinks_[kTraceSlot] == nullptr && sinks_[kRecordSlot] == nullptr;
  }

  void Emit(const Event& e) const {
    for (Sink* s : sinks_) {
      if (s != nullptr) s->Observe(e);
    }
  }

  uint64_t HeldBytes(uint32_t node) const {
    uint64_t bytes = 0;
    for (Sink* s : sinks_) bytes += s != nullptr ? s->HeldBytes(node) : 0;
    return bytes;
  }
  /// True when sending message `seq` reaches a sink's breakpoint.
  bool BreaksAt(uint64_t seq) const {
    for (Sink* s : sinks_) {
      uint64_t at = s != nullptr ? s->BreakSeq() : 0;
      if (at != 0 && seq >= at) return true;
    }
    return false;
  }

 private:
  std::array<Sink*, kNumSlots> sinks_{};
};

}  // namespace bb::obs

#endif  // BLOCKBENCH_OBS_EVENT_H_
