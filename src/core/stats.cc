#include "core/stats.h"


#include "util/bufwriter.h"

namespace bb::core {

StatsCollector::StatsCollector(size_t num_clients)
    : submitted_(1.0), committed_(1.0) {
  SetNumClients(num_clients);
}

void StatsCollector::SetNumClients(size_t n) {
  queue_per_client_.assign(n, TimeSeries(1.0));
  backlog_per_client_.assign(n, TimeSeries(1.0));
}

void StatsCollector::RecordSubmit(double t) {
  submitted_.Add(t, 1);
  ++total_submitted_;
}

void StatsCollector::RecordReject(double t) {
  (void)t;
  ++total_rejected_;
}

void StatsCollector::RecordCommit(double t, double latency_sec) {
  committed_.Add(t, 1);
  latency_.Add(latency_sec);
  ++total_committed_;
}

void StatsCollector::ObserveQueue(double t, uint32_t client,
                                  size_t outstanding, size_t backlog) {
  if (client < queue_per_client_.size()) {
    queue_per_client_[client].Observe(t, double(outstanding));
    backlog_per_client_[client].Observe(t, double(backlog));
  }
}

double StatsCollector::Throughput(double from, double to) const {
  if (to <= from) return 0;
  double sum = 0;
  for (size_t s = size_t(from); s < size_t(to); ++s) {
    sum += committed_.SumAt(s);
  }
  return sum / (to - from);
}

double StatsCollector::CommittedInSecond(size_t sec) const {
  return committed_.SumAt(sec);
}

double StatsCollector::SubmittedInSecond(size_t sec) const {
  return submitted_.SumAt(sec);
}

double StatsCollector::QueueLengthAt(size_t sec) const {
  double sum = 0;
  for (const auto& q : queue_per_client_) sum += q.ValueAt(sec);
  return sum;
}

double StatsCollector::BacklogAt(size_t sec) const {
  double sum = 0;
  for (const auto& q : backlog_per_client_) sum += q.ValueAt(sec);
  return sum;
}

Status StatsCollector::WriteCsv(const std::string& path,
                                double duration_sec) const {
  util::BufferedWriter out;
  BB_RETURN_IF_ERROR(out.Open(path));
  out.Append("second,submitted,committed,queue,backlog\n");
  for (size_t s = 0; s < size_t(duration_sec); ++s) {
    out.Appendf("%zu,%g,%g,%g,%g\n", s, SubmittedInSecond(s),
                CommittedInSecond(s), QueueLengthAt(s), BacklogAt(s));
  }
  return out.Close();
}

}  // namespace bb::core
