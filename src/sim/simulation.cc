#include "sim/simulation.h"

#include <algorithm>
#include <cassert>

// Header-only hot paths: bb_sim stays link-independent of bb_obs.
#include "obs/memtrack.h"
#include "obs/profiler.h"

namespace bb::sim {
namespace {

// Logical cost of one scheduled event: the 24-byte ordering handle plus
// the slab slot holding the (possibly heap-spilled, but we charge the
// inline footprint) callable. Deliberately a constant: slot recycling
// means real growth is HWM-shaped, which is exactly what this measures.
constexpr uint64_t kEventSlotBytes =
    sizeof(EventFn) + 3 * sizeof(uint64_t);  // Handle is private: 24 bytes

// Near-term window restarted around the next event when the queue goes
// idle; ~10 ms covers the network-latency scale most events live on.
constexpr SimTime kIdleSpan = 0.010;

// Floor for how many far-term events one refill aims to absorb.
constexpr size_t kMinRefillBatch = 64;

}  // namespace

uint32_t Simulation::AllocSlot(EventFn fn) {
  if (!free_.empty()) {
    uint32_t slot = free_.back();
    free_.pop_back();
    slab_[slot] = std::move(fn);
    return slot;
  }
  slab_.push_back(std::move(fn));
  return uint32_t(slab_.size() - 1);
}

void Simulation::Push(Handle h) {
  if (near_.empty() && far_.empty()) {
    // Queue went idle: restart the window at this event.
    horizon_ = h.time + kIdleSpan;
    near_.push_back(h);
    return;
  }
  if (h.time <= horizon_) {
    near_.push_back(h);
    HeapSiftUp(near_.size() - 1);
  } else {
    far_.push_back(h);
  }
}

void Simulation::RefillNear() {
  assert(near_.empty() && !far_.empty());
  SimTime min_time = far_[0].time;
  SimTime max_time = far_[0].time;
  for (const Handle& h : far_) {
    if (h.time < min_time) min_time = h.time;
    if (h.time > max_time) max_time = h.time;
  }
  // Window width from the observed event density: absorb a batch
  // proportional to the far list (amortized O(1) scan work per event)
  // but never fewer than kMinRefillBatch, so skewed schedules don't
  // degenerate into one-event refills.
  size_t target = std::max(kMinRefillBatch, far_.size() / 8);
  SimTime spacing = (max_time - min_time) / SimTime(far_.size());
  horizon_ = min_time + spacing * SimTime(target);

  // Partition far_ in place: handles within the horizon move to near_.
  size_t kept = 0;
  for (size_t i = 0; i < far_.size(); ++i) {
    if (far_[i].time <= horizon_) {
      near_.push_back(far_[i]);
    } else {
      far_[kept++] = far_[i];
    }
  }
  far_.resize(kept);

  // Floyd heap construction: O(moved), cheaper than repeated sift-ups.
  for (size_t i = near_.size() / 2; i-- > 0;) HeapSiftDown(i);
}

void Simulation::HeapSiftUp(size_t i) {
  Handle h = near_[i];
  while (i > 0) {
    size_t parent = (i - 1) / 2;
    if (!Earlier(h, near_[parent])) break;
    near_[i] = near_[parent];
    i = parent;
  }
  near_[i] = h;
}

void Simulation::HeapSiftDown(size_t i) {
  Handle h = near_[i];
  const size_t n = near_.size();
  for (;;) {
    size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && Earlier(near_[child + 1], near_[child])) ++child;
    if (!Earlier(near_[child], h)) break;
    near_[i] = near_[child];
    i = child;
  }
  near_[i] = h;
}

Simulation::Handle Simulation::PopEarliest() {
  if (near_.empty()) RefillNear();
  Handle top = near_[0];
  Handle last = near_.back();
  near_.pop_back();
  if (!near_.empty()) {
    near_[0] = last;
    HeapSiftDown(0);
  }
  return top;
}

void Simulation::Dispatch() {
  BB_PROF_SCOPE("sim.dispatch");
  Handle h = PopEarliest();
  // Detach the callable before running it: the event may Clear() the
  // queue or schedule events that recycle this slot.
  EventFn fn = std::move(slab_[h.slot]);
  free_.push_back(h.slot);
  now_ = h.time;
  current_seq_ = h.seq;
  ++events_executed_;
  if (memtracker_ != nullptr) {
    memtracker_->Untrack(obs::MemTracker::kGlobalNode, obs::mem::kSimEvents,
                         kEventSlotBytes);
  }
  fn();
}

void Simulation::At(SimTime t, EventFn fn) {
  assert(t >= now_ && "cannot schedule in the past");
  Push(Handle{t, next_seq_++, AllocSlot(std::move(fn))});
  if (memtracker_ != nullptr) {
    memtracker_->Track(obs::MemTracker::kGlobalNode, obs::mem::kSimEvents,
                       kEventSlotBytes);
  }
}

void Simulation::AtSeq(SimTime t, uint64_t seq, EventFn fn) {
  assert(Ahead(t, seq) && seq < next_seq_ && "seq must be reserved, unpassed");
  Push(Handle{t, seq, AllocSlot(std::move(fn))});
  if (memtracker_ != nullptr) {
    memtracker_->Track(obs::MemTracker::kGlobalNode, obs::mem::kSimEvents,
                       kEventSlotBytes);
  }
}

void Simulation::After(SimTime delay, EventFn fn) {
  assert(delay >= 0);
  At(now_ + delay, std::move(fn));
}

void Simulation::RunUntil(SimTime end) {
  stop_requested_ = false;
  while (pending_events() > 0) {
    if (near_.empty()) RefillNear();
    // All far events lie beyond horizon_ >= every near event, so the
    // heap root is the global minimum.
    if (near_[0].time > end) break;
    Dispatch();
    if (stop_requested_) return;  // breakpoint hit: clock stays at Now()
  }
  // Every event up to `end` has fired, reserved places included.
  if (end >= now_) {
    now_ = end;
    PassAll();
  }
}

void Simulation::RunToCompletion() {
  stop_requested_ = false;
  while (pending_events() > 0) {
    Dispatch();
    if (stop_requested_) return;
  }
  if (reserved_until_ > now_) now_ = reserved_until_;
  PassAll();
}

void Simulation::Clear() {
  if (memtracker_ != nullptr && pending_events() > 0) {
    uint64_t n = pending_events();
    memtracker_->Untrack(obs::MemTracker::kGlobalNode, obs::mem::kSimEvents,
                         n * kEventSlotBytes, n);
  }
  // Destroying the slab releases every pending closure; a closure
  // calling Clear() from inside Dispatch() is safe because the running
  // callable was detached from its slot before being invoked.
  near_.clear();
  far_.clear();
  slab_.clear();
  free_.clear();
  horizon_ = now_;
  reserved_until_ = now_;
}

void Simulation::set_memtracker(obs::MemTracker* memtracker) {
  memtracker_ = memtracker;
  if (memtracker_ != nullptr) memtracker_->BindSim(this);
}

}  // namespace bb::sim
