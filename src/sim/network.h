// Simulated message-passing network between nodes.
//
// Supports the fault/attack toolbox Section 3.3 of the paper calls for:
//   - crash failure   (node stops: messages to/from it are dropped)
//   - network delay   (extra injected latency per link or globally)
//   - random response (message corruption)
//   - partitions      (traffic between partitions dropped for a duration)
// plus a bounded per-node inbox, which is what lets the PBFT model
// reproduce Hyperledger's "message channel full" collapse at scale.

#ifndef BLOCKBENCH_SIM_NETWORK_H_
#define BLOCKBENCH_SIM_NETWORK_H_

#include <concepts>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <typeinfo>
#include <utility>
#include <vector>

#include "sim/msg_kind.h"
#include "sim/simulation.h"
#include "util/random.h"

namespace bb::sim {

using NodeId = uint32_t;
constexpr NodeId kNoNode = UINT32_MAX;

/// An immutable message payload, shared by every recipient of one send
/// the way BlockPtr shares a block. Building one from a value is the
/// only payload allocation on the message path: once per Send or
/// broadcast, however many peers receive it. Receivers read it by const&
/// with the type it was built from; a read with any other type aborts
/// in every build type.
class Payload {
 public:
  Payload() = default;
  template <class T>
    requires(!std::same_as<std::remove_cvref_t<T>, Payload>)
  Payload(T&& value)  // NOLINT: implicit, so senders pass the value itself
      : box_(MakeBox<std::remove_cvref_t<T>>(std::forward<T>(value))) {}

  template <class T>
  const T& As() const {
    if (box_ == nullptr || *box_->type != typeid(T)) {
      TypeMismatch(box_ == nullptr ? nullptr : box_->type, typeid(T));
    }
    return static_cast<const Box<T>&>(*box_).value;
  }

  /// Identity of the shared payload object (null when empty).
  const void* get() const { return box_.get(); }

 private:
  struct BoxBase {
    const std::type_info* type;
  };
  template <class T>
  struct Box : BoxBase {
    template <class V>
    explicit Box(V&& v) : BoxBase{&typeid(T)}, value(std::forward<V>(v)) {}
    T value;
  };

  template <class T, class V>
  static std::shared_ptr<const BoxBase> MakeBox(V&& value) {
    CountAlloc(sizeof(Box<T>));
    return std::make_shared<const Box<T>>(std::forward<V>(value));
  }
  /// Charges the allocation to the profiler's innermost open scope.
  static void CountAlloc(uint64_t bytes);
  [[noreturn]] static void TypeMismatch(const std::type_info* sent,
                                        const std::type_info& read);

  std::shared_ptr<const BoxBase> box_;
};

/// A message in flight: a kind from the one list (sim/msg_kind.h) plus
/// the shared payload that kind carries.
struct Message {
  NodeId from = kNoNode;
  NodeId to = kNoNode;
  MsgKind kind{};
  bool corrupted = false;
  uint64_t size_bytes = 0;
  /// Unique per network send, assigned by Network::Send in dispatch
  /// order (deterministic). Links a send to its delivery — the tracer
  /// uses it as the Perfetto flow-event id.
  uint64_t seq = 0;
  Payload payload;
};

class Node;  // sim/node.h

struct NetworkConfig {
  /// One-way base propagation latency between any two nodes (seconds).
  /// Default approximates a 1G-switch LAN.
  double base_latency = 0.001;
  /// Uniform jitter added on top of base latency: U[0, jitter].
  double jitter = 0.0005;
  /// Link bandwidth in bytes/sec used to serialize large messages
  /// (blocks). 1 Gbps by default, matching the paper's testbed.
  double bandwidth_bytes_per_sec = 125e6;
  /// Maximum messages queued for a node (delivery + processing backlog)
  /// before new arrivals are dropped. 0 = unbounded.
  size_t inbox_capacity = 0;
  /// Probability any message is silently dropped.
  double drop_probability = 0;
  /// Probability a delivered message is flagged corrupted.
  double corrupt_probability = 0;
};

/// The network. Owns delivery scheduling; Nodes register themselves.
class Network {
 public:
  Network(Simulation* sim, NetworkConfig config)
      : sim_(sim), config_(config), rng_(sim->rng().Fork()) {}

  /// Registers a node; its id must equal its index order of registration.
  void Register(Node* node);
  size_t num_nodes() const { return nodes_.size(); }

  /// Sends a message; delivery is scheduled per latency model and current
  /// fault state. Returns false if the message was dropped at send time
  /// (partition, crash, random drop, inbox overflow).
  bool Send(Message msg);

  // --- Fault & attack injection -------------------------------------------
  /// Crash-stops a node. It stops receiving and its pending work is void.
  void Crash(NodeId id);
  void Restart(NodeId id);
  bool IsCrashed(NodeId id) const;

  /// Splits nodes into two groups; cross-group traffic is dropped until
  /// HealPartition(). group_a holds ids in the first partition.
  void Partition(const std::vector<NodeId>& group_a);
  void HealPartition();
  bool partitioned() const { return partitioned_; }
  /// Side a node currently sits on: 0 (group A) or 1; -1 when no
  /// partition is active. Live-sampled by the observability probes.
  int PartitionSideOf(NodeId id) const {
    return partitioned_ && id < side_.size() ? side_[id] : -1;
  }

  /// Adds `extra` seconds of one-way latency to every message.
  void InjectDelay(double extra) { injected_delay_ = extra; }
  void SetDropProbability(double p) { config_.drop_probability = p; }
  void SetCorruptProbability(double p) { config_.corrupt_probability = p; }

  // --- Introspection -------------------------------------------------------
  uint64_t messages_sent() const { return messages_sent_; }
  uint64_t messages_dropped() const { return messages_dropped_; }
  uint64_t bytes_sent() const { return bytes_sent_; }
  size_t InboxDepth(NodeId id) const;

  Simulation* sim() { return sim_; }
  Node* node(NodeId id) { return nodes_.at(id); }

 private:
  bool SameSide(NodeId a, NodeId b) const;
  void EmitFault(obs::EventKind kind, NodeId id);
  double SampleLatency(uint64_t size_bytes);

  Simulation* sim_;
  NetworkConfig config_;
  Rng rng_;
  std::vector<Node*> nodes_;
  std::vector<bool> crashed_;
  // Partition membership: 0 = group A, 1 = group B. Valid when partitioned_.
  std::vector<int> side_;
  bool partitioned_ = false;
  double injected_delay_ = 0;
  uint64_t messages_sent_ = 0;
  uint64_t messages_dropped_ = 0;
  uint64_t bytes_sent_ = 0;
};

}  // namespace bb::sim

#endif  // BLOCKBENCH_SIM_NETWORK_H_
