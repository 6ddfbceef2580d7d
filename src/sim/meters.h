// Per-node resource meters: CPU busy time and network bytes, binned into
// per-second time series. These back the utilization figures (Fig 16) and
// the CPU-bound vs communication-bound analysis in the paper.

#ifndef BLOCKBENCH_SIM_METERS_H_
#define BLOCKBENCH_SIM_METERS_H_

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/msg_kind.h"
#include "util/histogram.h"

namespace bb::sim {

/// Per-kind message counts: (wire name, count), sorted by name.
using MsgCounts = std::vector<std::pair<const char*, uint64_t>>;

class ResourceMeter {
 public:
  ResourceMeter() : cpu_busy_(1.0), net_bytes_(1.0) {}

  /// Records `busy` seconds of CPU work starting at virtual time t.
  void AddCpu(double t, double busy) {
    cpu_busy_.Add(t, busy);
    total_cpu_ += busy;
  }
  /// Records bytes put on the wire at time t (sent + received combined).
  void AddNetBytes(double t, uint64_t bytes) {
    net_bytes_.Add(t, double(bytes));
    total_net_bytes_ += bytes;
  }
  /// Counts one outbound message of the given kind; backs the
  /// messages-per-consensus-phase breakdown in Fig 16 and the metrics
  /// registry.
  void AddMessageSent(MsgKind kind) {
    ++msgs_sent_by_kind_[size_t(kind)];
    ++total_msgs_sent_;
  }

  /// CPU utilization (0..1, can exceed 1 when modelling multi-core work)
  /// during second `sec`.
  double CpuUtilizationAt(size_t sec) const { return cpu_busy_.SumAt(sec); }
  /// Network rate in Mbps during second `sec`.
  double NetworkMbpsAt(size_t sec) const {
    return net_bytes_.SumAt(sec) * 8.0 / 1e6;
  }

  double total_cpu() const { return total_cpu_; }
  uint64_t total_net_bytes() const { return total_net_bytes_; }
  uint64_t total_msgs_sent() const { return total_msgs_sent_; }
  /// Outbound message counts as (wire name, count) pairs, sorted by
  /// name and without the kinds never sent, so the order is
  /// deterministic.
  MsgCounts msgs_sent_by_type() const {
    MsgCounts out;
    for (MsgKind kind : kMsgKindsByName) {
      uint64_t n = msgs_sent_by_kind_[size_t(kind)];
      if (n != 0) out.emplace_back(MsgKindName(kind), n);
    }
    return out;
  }

 private:
  TimeSeries cpu_busy_;
  TimeSeries net_bytes_;
  double total_cpu_ = 0;
  uint64_t total_net_bytes_ = 0;
  uint64_t total_msgs_sent_ = 0;
  std::array<uint64_t, kNumMsgKinds> msgs_sent_by_kind_{};
};

}  // namespace bb::sim

#endif  // BLOCKBENCH_SIM_METERS_H_
