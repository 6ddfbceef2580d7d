#include "sim/network.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "obs/memtrack.h"
#include "obs/profiler.h"
#include "sim/node.h"

namespace bb::sim {

void Payload::CountAlloc(uint64_t bytes) { BB_PROF_ALLOC(1, bytes); }

void Payload::TypeMismatch(const std::type_info* sent,
                           const std::type_info& read) {
  std::fprintf(stderr, "sim::Payload: payload of type %s read as %s\n",
               sent == nullptr ? "(none)" : sent->name(), read.name());
  std::abort();
}

void Network::Register(Node* node) {
  assert(node->id() == nodes_.size() && "register nodes in id order");
  nodes_.push_back(node);
  crashed_.push_back(false);
  side_.push_back(0);
}

bool Network::SameSide(NodeId a, NodeId b) const {
  if (!partitioned_) return true;
  return side_[a] == side_[b];
}

double Network::SampleLatency(uint64_t size_bytes) {
  double lat = config_.base_latency + injected_delay_;
  if (config_.jitter > 0) lat += rng_.NextDouble() * config_.jitter;
  if (config_.bandwidth_bytes_per_sec > 0) {
    lat += double(size_bytes) / config_.bandwidth_bytes_per_sec;
  }
  return lat;
}

bool Network::Send(Message msg) {
  BB_PROF_SCOPE("serialize.msg_send");
  assert(msg.from < nodes_.size() && msg.to < nodes_.size());
  ++messages_sent_;
  msg.seq = messages_sent_;  // deterministic: counts every send attempt
  bytes_sent_ += msg.size_bytes;
  // The modeled wire bytes the hop copies. The payload's one allocation
  // is counted where it is built (Payload), not per send.
  BB_PROF_COPY(msg.size_bytes);
  nodes_[msg.from]->meter().AddNetBytes(sim_->Now(), msg.size_bytes);
  nodes_[msg.from]->meter().AddMessageSent(msg.kind);

  // Send-time loss: a crashed end, a partition, random loss, or the
  // receiver's full message channel (rejected, as Fabric v0.6 does).
  const bool refused =
      crashed_[msg.from] || crashed_[msg.to] || !SameSide(msg.from, msg.to) ||
      (config_.drop_probability > 0 &&
       rng_.Bernoulli(config_.drop_probability)) ||
      (config_.inbox_capacity > 0 &&
       nodes_[msg.to]->inbox_depth() >= config_.inbox_capacity);
  if (auto* hook = sim_->hook()) {
    hook->Emit({.kind = refused ? obs::EventKind::kRefused
                                : obs::EventKind::kSend,
                .node = uint32_t(msg.from), .t = sim_->Now(), .id = msg.seq,
                .aux = msg.size_bytes, .peer = uint32_t(msg.to),
                .name = MsgKindName(msg.kind)});
    // Replay breakpoint: --until=TIME,SEQ stops right after send SEQ.
    if (hook->BreaksAt(msg.seq)) sim_->RequestStop();
  }
  if (refused) {
    ++messages_dropped_;
    return false;
  }
  if (config_.corrupt_probability > 0 &&
      rng_.Bernoulli(config_.corrupt_probability)) {
    msg.corrupted = true;
  }

  double latency = SampleLatency(msg.size_bytes);
  // In-flight bytes are charged to the *receiver*: that is the node
  // whose inbound queue the scale campaign will see balloon under
  // quorum broadcast, and the attribution the mem gates reason about.
  if (auto* mt = sim_->memtracker()) {
    mt->Track(uint32_t(msg.to), obs::mem::kNetInflight, msg.size_bytes);
  }
  auto deliver = [this, m = std::move(msg)]() mutable {
    const NodeId to = m.to;
    // Every in-flight outcome (delivery or either drop) releases the
    // receiver's in-flight bytes.
    if (auto* mt = sim_->memtracker()) {
      mt->Untrack(uint32_t(to), obs::mem::kNetInflight, m.size_bytes);
    }
    // Re-check fault state at delivery time, and the channel-full check
    // at the receiver (the arrival-time inbox, not the send-time
    // snapshot, is what overflows under load).
    const bool lost = crashed_[to] || !SameSide(m.from, to) ||
                      (config_.inbox_capacity > 0 &&
                       nodes_[to]->inbox_depth() >= config_.inbox_capacity);
    if (lost) ++messages_dropped_;
    if (auto* hook = sim_->hook()) {
      hook->Emit({.kind = lost ? obs::EventKind::kDrop : obs::EventKind::kRecv,
                  .node = uint32_t(to), .t = sim_->Now(), .id = m.seq,
                  .aux = m.size_bytes, .peer = uint32_t(m.from),
                  .name = MsgKindName(m.kind)});
    }
    if (!lost) nodes_[to]->Deliver(std::move(m));
  };
  // The delivery is the one event every message schedules: it must not
  // allocate.
  static_assert(EventFn::kStoresInline<decltype(deliver)>);
  sim_->After(latency, std::move(deliver));
  return true;
}

/// Fault-schedule edges land in every sink: Perfetto traces show when
/// the fault fired, and the flight recorder keeps it in the node's
/// black-box ring for post-mortems.
void Network::EmitFault(obs::EventKind kind, NodeId id) {
  if (auto* hook = sim_->hook()) {
    const bool partition = kind == obs::EventKind::kPartition;
    const uint64_t side = partition ? uint64_t(side_[id]) : 0;
    hook->Emit({.kind = kind, .node = uint32_t(id), .t = sim_->Now(),
                .aux = side, .arg = partition ? "side" : nullptr,
                .value = double(side)});
  }
}

void Network::Crash(NodeId id) {
  assert(id < nodes_.size());
  crashed_[id] = true;
  nodes_[id]->set_crashed(true);
  EmitFault(obs::EventKind::kCrash, id);
}

void Network::Restart(NodeId id) {
  assert(id < nodes_.size());
  crashed_[id] = false;
  nodes_[id]->set_crashed(false);
  EmitFault(obs::EventKind::kRecover, id);
}

bool Network::IsCrashed(NodeId id) const { return crashed_.at(id); }

void Network::Partition(const std::vector<NodeId>& group_a) {
  for (auto& s : side_) s = 1;
  for (NodeId id : group_a) {
    assert(id < side_.size());
    side_[id] = 0;
  }
  partitioned_ = true;
  // One edge per node, tagged with the side it landed on, so each ring
  // is self-contained for the per-node timeline.
  for (NodeId id = 0; id < side_.size(); ++id) {
    EmitFault(obs::EventKind::kPartition, id);
  }
}

void Network::HealPartition() {
  partitioned_ = false;
  for (NodeId id = 0; id < side_.size(); ++id) {
    EmitFault(obs::EventKind::kHeal, id);
  }
}

size_t Network::InboxDepth(NodeId id) const {
  return nodes_.at(id)->inbox_depth();
}

}  // namespace bb::sim
