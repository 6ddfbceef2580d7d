// Discrete-event simulation core: a virtual clock and an event queue.
//
// Everything distributed in blockbench-cpp (consensus, block propagation,
// client drivers) runs in virtual time on one Simulation instance, which
// makes 32-node, multi-minute experiments deterministic and laptop-fast.
//
// The event loop is the single hottest path in the whole framework (a
// 64-node PBFT run dispatches millions of events), so it avoids the two
// classic costs of the naive priority_queue<std::function> design:
//   * callables live in a small-buffer-optimized EventFn inside a slab
//     of recycled slots — no per-event heap allocation for closures up
//     to 56 bytes (a network delivery, `this` plus a Message, fits), and
//     closures are never moved by queue reordering;
//   * ordering works on 24-byte POD handles in a two-level structure: a
//     near-term binary heap plus an unsorted far-term overflow list
//     behind an adaptive horizon, tuned for the mostly-monotonic
//     schedule pattern (most events land a few milliseconds ahead of
//     Now, timers land seconds ahead).
// It also runs fewer events: ReserveSeq hands out an insertion seq
// without scheduling anything, and AtSeq fills that place later. A node
// whose handler leaves its inbox empty reserves its busy-window
// continuation this way and schedules it only if a message arrives
// before the window ends (sim/node.h), so idle continuations never run.
// Events fire in exact (time, insertion-seq) order, reserved places
// included, so every run handles the same messages in the same order as
// a kernel that scheduled each continuation.

#ifndef BLOCKBENCH_SIM_SIMULATION_H_
#define BLOCKBENCH_SIM_SIMULATION_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/event.h"
#include "util/random.h"

namespace bb::obs {
class MemTracker;
}  // namespace bb::obs

namespace bb::sim {

/// Virtual time in seconds since simulation start.
using SimTime = double;

/// A move-only type-erased void() callable with inline storage for
/// captures up to kInlineSize bytes aligned to kInlineAlign; larger or
/// more aligned callables fall back to one heap allocation. The
/// simulation's replacement for std::function. The buffer fills the
/// object to 64 bytes next to the ops pointer, which is exactly enough
/// for a network delivery (`this` plus a 48-byte Message).
class EventFn {
 public:
  static constexpr size_t kInlineSize = 56;
  static constexpr size_t kInlineAlign = alignof(void*);

  /// True when a callable of type Fn is stored inline (no allocation).
  template <typename Fn>
  static constexpr bool kStoresInline =
      sizeof(Fn) <= kInlineSize && alignof(Fn) <= kInlineAlign &&
      std::is_nothrow_move_constructible_v<Fn>;

  EventFn() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventFn> &&
                std::is_invocable_v<std::decay_t<F>&>>>
  EventFn(F&& f) {  // NOLINT: implicit wrap, like std::function
    using Fn = std::decay_t<F>;
    if constexpr (kStoresInline<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &kHeapOps<Fn>;
    }
  }

  EventFn(EventFn&& other) noexcept { MoveFrom(std::move(other)); }
  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(std::move(other));
    }
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { Reset(); }

  void operator()() { ops_->invoke(buf_); }

  explicit operator bool() const { return ops_ != nullptr; }

 private:
  struct Ops {
    void (*invoke)(void* self);
    void (*relocate)(void* from, void* to);  // move-construct + destroy src
    void (*destroy)(void* self);
  };

  template <typename Fn>
  static constexpr Ops kInlineOps = {
      [](void* self) { (*std::launder(reinterpret_cast<Fn*>(self)))(); },
      [](void* from, void* to) {
        Fn* src = std::launder(reinterpret_cast<Fn*>(from));
        ::new (to) Fn(std::move(*src));
        src->~Fn();
      },
      [](void* self) { std::launder(reinterpret_cast<Fn*>(self))->~Fn(); },
  };

  template <typename Fn>
  static constexpr Ops kHeapOps = {
      [](void* self) { (**std::launder(reinterpret_cast<Fn**>(self)))(); },
      [](void* from, void* to) { std::memcpy(to, from, sizeof(Fn*)); },
      [](void* self) { delete *std::launder(reinterpret_cast<Fn**>(self)); },
  };

  void MoveFrom(EventFn&& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(other.buf_, buf_);
      other.ops_ = nullptr;
    }
  }

  void Reset() {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  const Ops* ops_ = nullptr;
  alignas(kInlineAlign) unsigned char buf_[kInlineSize];
};
static_assert(sizeof(EventFn) == 64, "EventFn is one cache line");

/// The event loop. Events fire in (time, insertion order) order, so
/// same-time events are FIFO and runs are fully deterministic.
class Simulation {
 public:
  explicit Simulation(uint64_t seed = 1) : rng_(seed) {}
  Simulation(const Simulation&) = delete;  // hook() points into *this
  Simulation& operator=(const Simulation&) = delete;

  SimTime Now() const { return now_; }

  /// Schedules fn at absolute virtual time t (>= Now()).
  void At(SimTime t, EventFn fn);
  /// Schedules fn after a delay (>= 0) from Now().
  void After(SimTime delay, EventFn fn);

  /// Hands out the insertion seq an event scheduled now at time t would
  /// get, without scheduling one: the caller keeps the place (t, seq) in
  /// the event order and may fill it later with AtSeq. RunToCompletion
  /// advances the clock past every reserved time, as it would past the
  /// event.
  uint64_t ReserveSeq(SimTime t) {
    if (t > reserved_until_) reserved_until_ = t;
    return next_seq_++;
  }
  /// Schedules fn at a place (t, seq) from ReserveSeq that the run has
  /// not passed yet.
  void AtSeq(SimTime t, uint64_t seq, EventFn fn);
  /// The seq of the event being dispatched (or, between events, of the
  /// last one). With Now() it marks how far the run has got: an event at
  /// (t, seq) has fired iff t < Now(), or t == Now() and seq <=
  /// current_seq(). When RunUntil or RunToCompletion returns without a
  /// stop, every seq handed out so far counts as passed.
  uint64_t current_seq() const { return current_seq_; }
  /// True while (t, seq) lies ahead of the run.
  bool Ahead(SimTime t, uint64_t seq) const {
    return t > now_ || (t == now_ && seq > current_seq_);
  }

  /// Runs events until the queue is empty or Now() would exceed `end`.
  /// Events at exactly `end` are executed.
  void RunUntil(SimTime end);
  /// Runs until the event queue drains completely.
  void RunToCompletion();

  /// Drops all pending events (used between experiment phases in tests).
  void Clear();

  size_t pending_events() const { return near_.size() + far_.size(); }

  /// Total events dispatched since construction (drives events/sec
  /// reporting in the benchmark suite).
  uint64_t events_executed() const { return events_executed_; }

  /// Simulation-global RNG; fork per-component streams from it.
  Rng& rng() { return rng_; }

  /// The observation hook: every instrumented site emits its obs::Event
  /// through hook(), which is nullptr while no sink is attached — a
  /// disabled hook costs one pointer test. set_tracer / set_recorder
  /// attach (or, with nullptr, detach) the obs::Tracer and the
  /// obs::FlightRecorder; both are non-owning. Attach before
  /// constructing the platform so genesis-time events are captured too.
  void set_tracer(obs::Sink* tracer) { Attach(obs::Hook::kTraceSlot, tracer); }
  void set_recorder(obs::Sink* recorder) {
    Attach(obs::Hook::kRecordSlot, recorder);
  }
  obs::Hook* hook() const { return active_hook_; }
  /// Out-of-line (simulation.cc) so it can bind the virtual clock into
  /// the tracker for high-water-mark timestamps.
  void set_memtracker(obs::MemTracker* memtracker);
  obs::MemTracker* memtracker() const { return memtracker_; }

  /// Stops the run loop after the currently dispatching event returns —
  /// the replay-breakpoint mechanism (bbench --until=TIME,SEQ). One-shot:
  /// the next RunUntil/RunToCompletion call clears the request.
  void RequestStop() { stop_requested_ = true; }
  bool stop_requested() const { return stop_requested_; }

 private:
  /// Queue entry: everything ordering needs, nothing else — reordering
  /// the heap shuffles 24-byte PODs while the callables stay put in the
  /// slab.
  struct Handle {
    SimTime time;
    uint64_t seq;
    uint32_t slot;
  };

  static bool Earlier(const Handle& a, const Handle& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  void Attach(obs::Hook::Slot slot, obs::Sink* sink) {
    hook_.Attach(slot, sink);
    active_hook_ = hook_.empty() ? nullptr : &hook_;
  }

  uint32_t AllocSlot(EventFn fn);
  void Push(Handle h);
  /// Pops the globally earliest handle; requires pending_events() > 0.
  Handle PopEarliest();
  /// Moves every far-term event within the new horizon into the heap.
  void RefillNear();
  void HeapSiftUp(size_t i);
  void HeapSiftDown(size_t i);
  /// Runs the earliest event (advancing the clock to its timestamp).
  void Dispatch();

  /// Marks every seq handed out so far as passed at Now().
  void PassAll() { current_seq_ = next_seq_ - 1; }

  SimTime now_ = 0;
  /// Seqs start at 1 so current_seq_ = 0 means "none passed yet".
  uint64_t next_seq_ = 1;
  uint64_t current_seq_ = 0;
  /// Latest time handed to ReserveSeq.
  SimTime reserved_until_ = 0;
  uint64_t events_executed_ = 0;

  /// Near-term events, binary min-heap on (time, seq).
  std::vector<Handle> near_;
  /// Far-term events (time > horizon_), unsorted; scanned only when the
  /// heap drains.
  std::vector<Handle> far_;
  /// All heap events satisfy time <= horizon_, all far events
  /// time > horizon_; the horizon only moves forward.
  SimTime horizon_ = 0;

  /// Callable storage: slots are recycled through free_, so steady-state
  /// scheduling does not allocate at all (deque growth aside).
  std::deque<EventFn> slab_;
  std::vector<uint32_t> free_;

  Rng rng_;

  obs::Hook hook_;
  obs::Hook* active_hook_ = nullptr;  // &hook_ while a sink is attached
  obs::MemTracker* memtracker_ = nullptr;
  bool stop_requested_ = false;
};

}  // namespace bb::sim

#endif  // BLOCKBENCH_SIM_SIMULATION_H_
