#include "sim/node.h"

#include <cassert>
#include <utility>

#include "obs/profiler.h"

namespace bb::sim {

Node::Node(NodeId id, Network* network) : id_(id), network_(network) {
  network_->Register(this);
}

void Node::set_crashed(bool c) {
  if (crashed_ == c) return;
  crashed_ = c;
  if (c) {
    ++crash_epoch_;  // voids the in-flight handler's continuation
    inbox_.clear();
    class_queued_ = 0;
    processing_ = false;
    idle_window_ = false;
    OnCrash();
  } else {
    OnRestart();
  }
}

void Node::Deliver(Message msg) {
  if (crashed_) return;
  if (class_capacity_ > 0 && InInboxClass(msg.kind)) {
    if (class_queued_ >= class_capacity_) {
      // The class channel is full: reject, as Fabric v0.6 does.
      ++class_dropped_;
      return;
    }
    ++class_queued_;
  }
  inbox_.push_back(std::move(msg));
  if (processing_) return;
  if (InIdleWindow()) {
    // The CPU is still busy: the continuation the last handler did not
    // schedule is needed after all, at the place it reserved.
    ContinueAt(busy_until_, busy_seq_);
  } else {
    ProcessNext();
  }
}

void Node::ContinueAt(SimTime t, uint64_t seq) {
  processing_ = true;
  idle_window_ = false;
  sim()->AtSeq(t, seq, [this, epoch = crash_epoch_] {
    if (epoch == crash_epoch_) ProcessNext();
  });
}

void Node::ProcessNext() {
  if (crashed_ || inbox_.empty()) {
    processing_ = false;
    return;
  }
  processing_ = true;
  BB_PROF_SCOPE("sim.process_msg");
  Message msg = std::move(inbox_.front());
  inbox_.pop_front();
  if (class_queued_ > 0 && InInboxClass(msg.kind)) {
    --class_queued_;
  }
  meter_.AddNetBytes(Now(), msg.size_bytes);
  double cost = HandleMessage(msg);
  assert(cost >= 0);
  meter_.AddCpu(Now(), cost);
  // The node is busy for `cost`; the next message starts after, unless a
  // crash in between voids this chain. With nothing queued, only the
  // continuation's place is kept.
  const SimTime busy_until = Now() + cost;
  const uint64_t seq = sim()->ReserveSeq(busy_until);
  if (inbox_.empty()) {
    processing_ = false;
    idle_window_ = true;
    busy_until_ = busy_until;
    busy_seq_ = seq;
  } else {
    ContinueAt(busy_until, seq);
  }
}

bool Node::Send(NodeId to, MsgKind kind, Payload payload,
                uint64_t size_bytes) {
  Message m;
  m.from = id_;
  m.to = to;
  m.kind = kind;
  m.payload = std::move(payload);
  m.size_bytes = size_bytes;
  return network_->Send(std::move(m));
}

}  // namespace bb::sim
