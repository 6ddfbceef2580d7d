// StatsCollector: the framework's measurement sink. Records submissions,
// commits (with latency), client queue lengths and block arrivals, and
// produces the metrics of Section 3.3: throughput, latency, plus the
// per-second series behind the time-line figures.

#ifndef BLOCKBENCH_CORE_STATS_H_
#define BLOCKBENCH_CORE_STATS_H_

#include <cstdint>

#include "util/status.h"
#include <string>
#include <vector>

#include "util/histogram.h"

namespace bb::core {

class StatsCollector {
 public:
  explicit StatsCollector(size_t num_clients = 0);

  void SetNumClients(size_t n);

  void RecordSubmit(double t);
  void RecordReject(double t);
  void RecordCommit(double t, double latency_sec);
  /// Instantaneous queue snapshot for one client (called at poll points).
  void ObserveQueue(double t, uint32_t client, size_t outstanding,
                    size_t backlog);

  /// Cross-shard transactions are additionally tracked on their own
  /// counters and latency histogram (they also count in the totals):
  /// the 2PC prepare round makes their latency profile categorically
  /// different from single-shard commits.
  void RecordXsSubmit() { ++xs_submitted_; }
  void RecordXsCommit(double latency_sec) {
    ++xs_committed_;
    xs_latency_.Add(latency_sec);
  }
  void RecordXsAbort() { ++xs_aborted_; }

  // --- Aggregates ---------------------------------------------------------
  uint64_t total_submitted() const { return total_submitted_; }
  uint64_t total_committed() const { return total_committed_; }
  uint64_t total_rejected() const { return total_rejected_; }
  uint64_t xs_submitted() const { return xs_submitted_; }
  uint64_t xs_committed() const { return xs_committed_; }
  uint64_t xs_aborted() const { return xs_aborted_; }
  const Histogram& xs_latencies() const { return xs_latency_; }

  /// Committed tx/s within [from, to).
  double Throughput(double from, double to) const;
  /// Committed transactions with commit time < t (Fig 9's cumulative
  /// committed-transactions timeline is the per-second series).
  double CommittedInSecond(size_t sec) const;
  double SubmittedInSecond(size_t sec) const;

  const Histogram& latencies() const { return latency_; }

  /// Sum of the most recent queue observations across clients at second
  /// `sec` (outstanding only, matching the paper's queue metric).
  double QueueLengthAt(size_t sec) const;
  double BacklogAt(size_t sec) const;

  /// Writes per-second series (submitted, committed, queue, backlog) as
  /// CSV for external plotting. Returns Unavailable on I/O failure.
  Status WriteCsv(const std::string& path, double duration_sec) const;

 private:
  TimeSeries submitted_;
  TimeSeries committed_;
  Histogram latency_;
  std::vector<TimeSeries> queue_per_client_;
  std::vector<TimeSeries> backlog_per_client_;
  uint64_t total_submitted_ = 0;
  uint64_t total_committed_ = 0;
  uint64_t total_rejected_ = 0;
  Histogram xs_latency_;
  uint64_t xs_submitted_ = 0;
  uint64_t xs_committed_ = 0;
  uint64_t xs_aborted_ = 0;
};

}  // namespace bb::core

#endif  // BLOCKBENCH_CORE_STATS_H_
