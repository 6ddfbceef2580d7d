#include "sim/network.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "obs/memtrack.h"
#include "obs/profiler.h"
#include "obs/recorder.h"
#include "obs/trace.h"
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
  if (auto* rec = sim_->recorder()) {
    rec->MsgSend(uint32_t(msg.from), sim_->Now(), msg.seq, uint32_t(msg.to),
                 msg.kind, msg.size_bytes);
    // Replay breakpoint: --until=TIME,SEQ stops right after send SEQ.
    if (rec->break_seq() != 0 && msg.seq >= rec->break_seq()) {
      sim_->RequestStop();
    }
  }

  if (crashed_[msg.from] || crashed_[msg.to] || !SameSide(msg.from, msg.to) ||
      (config_.drop_probability > 0 && rng_.Bernoulli(config_.drop_probability))) {
    ++messages_dropped_;
    if (auto* rec = sim_->recorder()) {
      rec->MsgDrop(uint32_t(msg.from), sim_->Now(), msg.seq, uint32_t(msg.to),
                   msg.kind, /*in_flight=*/false);
    }
    return false;
  }
  if (config_.inbox_capacity > 0 &&
      nodes_[msg.to]->inbox_depth() >= config_.inbox_capacity) {
    // Receiver's message channel is full: reject, as Fabric v0.6 does.
    ++messages_dropped_;
    if (auto* rec = sim_->recorder()) {
      rec->MsgDrop(uint32_t(msg.from), sim_->Now(), msg.seq, uint32_t(msg.to),
                   msg.kind, /*in_flight=*/false);
    }
    return false;
  }
  if (config_.corrupt_probability > 0 &&
      rng_.Bernoulli(config_.corrupt_probability)) {
    msg.corrupted = true;
  }

  double latency = SampleLatency(msg.size_bytes);
  NodeId to = msg.to;
  if (auto* tr = sim_->tracer()) {
    tr->FlowBegin(msg.from, "net", "net.send", sim_->Now(), msg.seq);
  }
  // In-flight bytes are charged to the *receiver*: that is the node
  // whose inbound queue the scale campaign will see balloon under
  // quorum broadcast, and the attribution the mem gates reason about.
  if (auto* mt = sim_->memtracker()) {
    mt->Track(uint32_t(to), obs::mem::kNetInflight, msg.size_bytes);
  }
  sim_->After(latency, [this, to, m = std::move(msg)]() mutable {
    // Every in-flight outcome (delivery or either drop) releases the
    // receiver's in-flight bytes.
    if (auto* mt = sim_->memtracker()) {
      mt->Untrack(uint32_t(to), obs::mem::kNetInflight, m.size_bytes);
    }
    // Re-check fault state at delivery time.
    if (crashed_[to] || !SameSide(m.from, to)) {
      ++messages_dropped_;
      if (auto* rec = sim_->recorder()) {
        rec->MsgDrop(uint32_t(to), sim_->Now(), m.seq, uint32_t(m.from),
                     m.kind, /*in_flight=*/true);
      }
      return;
    }
    // Channel-full check at the receiver (the arrival-time inbox, not
    // the send-time snapshot, is what overflows under load).
    if (config_.inbox_capacity > 0 &&
        nodes_[to]->inbox_depth() >= config_.inbox_capacity) {
      ++messages_dropped_;
      if (auto* rec = sim_->recorder()) {
        rec->MsgDrop(uint32_t(to), sim_->Now(), m.seq, uint32_t(m.from),
                     m.kind, /*in_flight=*/true);
      }
      return;
    }
    if (auto* tr = sim_->tracer()) {
      tr->FlowEnd(to, "net", "net.recv", sim_->Now(), m.seq);
    }
    if (auto* rec = sim_->recorder()) {
      rec->MsgRecv(uint32_t(to), sim_->Now(), m.seq, uint32_t(m.from), m.kind,
                   m.size_bytes);
    }
    nodes_[to]->Deliver(std::move(m));
  });
  return true;
}

void Network::Crash(NodeId id) {
  assert(id < nodes_.size());
  crashed_[id] = true;
  nodes_[id]->set_crashed(true);
  // Fault-schedule edges land in both observability sinks: Perfetto
  // traces show when the fault fired, and the flight recorder keeps it
  // in the node's black-box ring for post-mortems.
  if (auto* tr = sim_->tracer()) {
    tr->Instant(uint32_t(id), "fault", "fault.crash", sim_->Now());
  }
  if (auto* rec = sim_->recorder()) {
    rec->Fault(obs::FlightRecorder::Kind::kCrash, uint32_t(id), sim_->Now());
  }
}

void Network::Restart(NodeId id) {
  assert(id < nodes_.size());
  crashed_[id] = false;
  nodes_[id]->set_crashed(false);
  if (auto* tr = sim_->tracer()) {
    tr->Instant(uint32_t(id), "fault", "fault.recover", sim_->Now());
  }
  if (auto* rec = sim_->recorder()) {
    rec->Fault(obs::FlightRecorder::Kind::kRecover, uint32_t(id), sim_->Now());
  }
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
    if (auto* tr = sim_->tracer()) {
      tr->Instant(uint32_t(id), "fault", "fault.partition", sim_->Now(),
                  "side", double(side_[id]));
    }
    if (auto* rec = sim_->recorder()) {
      rec->Fault(obs::FlightRecorder::Kind::kPartition, uint32_t(id),
                 sim_->Now(), side_[id]);
    }
  }
}

void Network::HealPartition() {
  partitioned_ = false;
  for (NodeId id = 0; id < side_.size(); ++id) {
    if (auto* tr = sim_->tracer()) {
      tr->Instant(uint32_t(id), "fault", "fault.heal", sim_->Now());
    }
    if (auto* rec = sim_->recorder()) {
      rec->Fault(obs::FlightRecorder::Kind::kHeal, uint32_t(id), sim_->Now());
    }
  }
}

size_t Network::InboxDepth(NodeId id) const {
  return nodes_.at(id)->inbox_depth();
}

}  // namespace bb::sim
