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
    inbox_.clear();
    class_queued_ = 0;
    processing_ = false;
    OnCrash();
  } else {
    OnRestart();
  }
}

void Node::SetInboxClassLimit(std::string prefix, size_t capacity) {
  class_prefix_ = std::move(prefix);
  class_capacity_ = capacity;
}

void Node::Deliver(Message msg) {
  if (crashed_) return;
  if (class_capacity_ > 0 && !class_prefix_.empty() &&
      msg.type.compare(0, class_prefix_.size(), class_prefix_) == 0) {
    if (class_queued_ >= class_capacity_) {
      // The class channel is full: reject, as Fabric v0.6 does.
      ++class_dropped_;
      return;
    }
    ++class_queued_;
  }
  inbox_.push_back(std::move(msg));
  if (!processing_) ProcessNext();
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
  if (class_queued_ > 0 && !class_prefix_.empty() &&
      msg.type.compare(0, class_prefix_.size(), class_prefix_) == 0) {
    --class_queued_;
  }
  meter_.AddNetBytes(Now(), msg.size_bytes);
  double cost = HandleMessage(msg);
  assert(cost >= 0);
  meter_.AddCpu(Now(), cost);
  // The node is busy for `cost`; the next queued message starts after.
  sim()->After(cost, [this] { ProcessNext(); });
}

bool Node::Send(NodeId to, const std::string& type, std::any payload,
                uint64_t size_bytes) {
  Message m;
  m.from = id_;
  m.to = to;
  m.type = type;
  m.payload = std::move(payload);
  m.size_bytes = size_bytes;
  return network_->Send(std::move(m));
}

}  // namespace bb::sim
