// Node: base class for simulated processes (consensus replicas, clients).
//
// A node handles messages serially, modelling a (mostly) single-threaded
// server: each message occupies the node's CPU for a handler-declared cost,
// and arrivals queue behind it. This is what lets the framework observe
// CPU saturation, growing inboxes, and the PBFT channel-full collapse.

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
  size_t inbox_depth() const { return inbox_.size() + (processing_ ? 1 : 0); }

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

  NodeId id_;
  Network* network_;
  bool crashed_ = false;
  bool processing_ = false;
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
