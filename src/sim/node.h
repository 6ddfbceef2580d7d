// Node: base class for simulated processes (consensus replicas, clients).
//
// A node handles messages serially, modelling a (mostly) single-threaded
// server: each message occupies the node's CPU for a handler-declared cost,
// and arrivals queue behind it. This is what lets the framework observe
// CPU saturation, growing inboxes, and the PBFT channel-full collapse.
//
// The next handling starts in a continuation event at the end of the busy
// window. When a handler leaves the inbox empty, no continuation is
// scheduled: the node only reserves the continuation's place in the event
// order (Simulation::ReserveSeq). The first arrival that lands before that
// place schedules the continuation there (AtSeq); an arrival after it is
// handled at once. Either way the node handles what it would with a
// continuation per message, in the same order, without the idle events.

#ifndef BLOCKBENCH_SIM_NODE_H_
#define BLOCKBENCH_SIM_NODE_H_

#include <deque>

#include "sim/meters.h"
#include "sim/network.h"
#include "sim/simulation.h"

namespace bb::sim {

class Node {
 public:
  Node(NodeId id, Network* network);
  virtual ~Node() = default;

  NodeId id() const { return id_; }
  Network* network() { return network_; }
  Simulation* sim() { return network_->sim(); }
  SimTime Now() const { return network_->sim()->Now(); }

  /// Called once when the experiment starts.
  virtual void Start() {}
  /// Handles one message. Return value is the CPU seconds the handler
  /// consumed; the node is busy (and queues later messages) for that long.
  virtual double HandleMessage(const Message& msg) = 0;
  /// Called when the node is crashed / restarted by fault injection.
  virtual void OnCrash() {}
  virtual void OnRestart() {}

  /// Network delivery entry point (called by Network).
  void Deliver(Message msg);
  /// Queued messages, plus one while the CPU is busy with a handled one.
  size_t inbox_depth() const { return inbox_.size() + (Busy() ? 1 : 0); }

  /// Bounds the number of queued messages of the inbox-class kinds (the
  /// pbft_* kinds, see InInboxClass): Fabric v0.6's bounded consensus
  /// channel. Arrivals beyond the cap are dropped.
  void SetInboxClassLimit(size_t capacity) { class_capacity_ = capacity; }
  uint64_t class_dropped() const { return class_dropped_; }

  bool crashed() const { return crashed_; }
  void set_crashed(bool c);

  ResourceMeter& meter() { return meter_; }
  const ResourceMeter& meter() const { return meter_; }

  /// Runs `cost` seconds of background CPU work on this node's meter
  /// without blocking message processing (e.g. PoW mining runs on
  /// dedicated cores).
  void ChargeBackgroundCpu(double cost) { meter_.AddCpu(Now(), cost); }

 protected:
  /// Convenience wrapper.
  bool Send(NodeId to, MsgKind kind, Payload payload, uint64_t size_bytes);

 private:
  void ProcessNext();
  /// Schedules the ProcessNext continuation at the busy window's end.
  void ContinueAt(SimTime t, uint64_t seq);
  /// True inside an idle busy window: the last handler left the inbox
  /// empty and the run has not yet reached the window's end.
  bool InIdleWindow() const {
    return idle_window_ && network_->sim()->Ahead(busy_until_, busy_seq_);
  }
  bool Busy() const { return processing_ || InIdleWindow(); }

  NodeId id_;
  Network* network_;
  bool crashed_ = false;
  /// A handler is running or its continuation is scheduled.
  bool processing_ = false;
  /// The last handler left the inbox empty: the node is busy until the
  /// reserved place (busy_until_, busy_seq_), with no event scheduled.
  bool idle_window_ = false;
  SimTime busy_until_ = 0;
  uint64_t busy_seq_ = 0;
  /// Bumped on every crash; a ProcessNext continuation scheduled in an
  /// earlier epoch is a no-op, so a restart starts one fresh chain.
  uint64_t crash_epoch_ = 0;
  std::deque<Message> inbox_;
  ResourceMeter meter_;
  size_t class_capacity_ = 0;
  size_t class_queued_ = 0;
  uint64_t class_dropped_ = 0;
};

}  // namespace bb::sim

#endif  // BLOCKBENCH_SIM_NODE_H_
