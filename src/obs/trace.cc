#include "obs/trace.h"

#include <cstdio>

#include "util/bufwriter.h"

namespace bb::obs {

namespace {

constexpr const char* kTxSpanNames[Tracer::kNumTxSpans] = {
    "tx.admission",      // submit  -> admit
    "tx.pool_wait",      // admit   -> propose
    "tx.consensus",      // propose -> commit
    "tx.confirmation",   // commit  -> confirm
};

/// Seconds -> microseconds with fixed millinanosecond precision; the
/// fixed format keeps traces byte-identical across runs.
void AppendMicros(std::string* out, double seconds) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f", seconds * 1e6);
  out->append(buf);
}

void AppendArgNumber(std::string* out, double v) {
  char buf[48];
  if (v == double(int64_t(v)) && v >= -9.2e18 && v <= 9.2e18) {
    std::snprintf(buf, sizeof(buf), "%lld", (long long)int64_t(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.6g", v);
  }
  out->append(buf);
}

}  // namespace

const char* Tracer::TxSpanName(size_t leg) {
  return leg < kNumTxSpans ? kTxSpanNames[leg] : "tx.unknown";
}

void Tracer::Observe(const Event& e) {
  switch (e.kind) {
    case EventKind::kSend:
      Flow(e.node, "net.send", 's', e.t, e.id);
      break;
    case EventKind::kRecv:
      Flow(e.node, "net.recv", 'f', e.t, e.id);
      break;
    case EventKind::kPhase:
      if (e.start == kInstant) {
        Push(e.node, "consensus", e.name, 'i', e.t, 0, 0, e.arg, e.value);
      } else if (e.start >= 0) {
        Push(e.node, "consensus", e.name, 'X', e.start, e.end - e.start, 0,
             e.arg, e.value);
      }
      break;
    case EventKind::kReorg:
      Push(e.node, "consensus", e.name, 'i', e.t, 0, 0, e.arg, e.value);
      break;
    case EventKind::kCrash:
    case EventKind::kRecover:
    case EventKind::kPartition:
    case EventKind::kHeal: {
      static constexpr const char* kFaultNames[] = {
          "fault.crash", "fault.recover", "fault.partition", "fault.heal"};
      const char* name =
          kFaultNames[size_t(e.kind) - size_t(EventKind::kCrash)];
      Push(e.node, "fault", name, 'i', e.t, 0, 0, e.arg, e.value);
      break;
    }
    case EventKind::kTxSubmit:
      TxSubmit(e.id, e.t);
      break;
    case EventKind::kTxAdmit:
    case EventKind::kTxPropose:
    case EventKind::kTxCommit:
      TxMilestone(e.id,
                  TxPhase(size_t(e.kind) - size_t(EventKind::kTxSubmit)),
                  e.t);
      break;
    case EventKind::kTxConfirm: {
      TxMilestone(e.id, kConfirm, e.t);
      const TxMilestones& ms = tx_.at(e.id);
      for (size_t leg = 0; leg < kNumTxSpans; ++leg) {
        if (ms[leg] < 0 || ms[leg + 1] < 0) return;
      }
      for (size_t leg = 0; leg < kNumTxSpans; ++leg) {
        legs_[leg].Add(ms[leg + 1] - ms[leg]);
      }
      break;
    }
    case EventKind::kCounter:
      // name + id identify one counter track per node.
      Push(e.node, "sampler", e.name, 'C', e.t, 0, e.node, "value", e.value);
      break;
    default:
      break;
  }
}

void Tracer::TxSubmit(uint64_t tx_id, double t) {
  TxMilestones& ms = tx_[tx_id];
  ms.fill(-1);
  ms[kSubmit] = t;
}

void Tracer::TxMilestone(uint64_t tx_id, TxPhase phase, double t) {
  auto it = tx_.find(tx_id);
  if (it == tx_.end()) {
    // Tx never submitted through a traced client (e.g. injected
    // directly in a test); start a partial record.
    it = tx_.emplace(tx_id, TxMilestones{}).first;
    it->second.fill(-1);
  }
  TxMilestones& ms = it->second;
  if (ms[phase] >= 0) return;  // first milestone wins (gossip, replicas)
  ms[phase] = t;
  size_t leg = size_t(phase) - 1;
  if (ms[leg] >= 0) {
    // Emit the async span for the completed leg; pid/tid of async
    // events are fixed at render time, here we only log endpoints.
    Push(0, "tx", TxSpanName(leg), 'b', ms[leg], 0, tx_id, nullptr, 0);
    Push(0, "tx", TxSpanName(leg), 'e', t, 0, tx_id, nullptr, 0);
  }
}

const Tracer::TxMilestones* Tracer::FindTx(uint64_t tx_id) const {
  auto it = tx_.find(tx_id);
  return it != tx_.end() ? &it->second : nullptr;
}

void Tracer::RenderEvent(const Record& e, std::string* out) {
  out->append("{\"ph\":\"");
  out->push_back(e.ph);
  out->push_back('"');
  if (e.ph == 'b' || e.ph == 'e') {
    // Async tx-lifecycle events live in their own process so Perfetto
    // groups them apart from the per-node tracks.
    out->append(",\"pid\":1,\"tid\":0");
    char buf[32];
    std::snprintf(buf, sizeof(buf), ",\"id\":\"0x%llx\"",
                  (unsigned long long)e.id);
    out->append(buf);
  } else {
    char buf[32];
    std::snprintf(buf, sizeof(buf), ",\"pid\":0,\"tid\":%u", e.tid);
    out->append(buf);
    if (e.ph == 'C') {
      // name + id identify one counter track: per-node series of the
      // same gauge stay separate ("pool.depth" id 0, 1, ...).
      std::snprintf(buf, sizeof(buf), ",\"id\":\"%llu\"",
                    (unsigned long long)e.id);
      out->append(buf);
    } else if (e.ph == 's' || e.ph == 'f') {
      // Flow arrows: the id (message seq) pairs a start with its finish;
      // bp:"e" binds the finish to the enclosing anchor span.
      std::snprintf(buf, sizeof(buf), ",\"id\":\"0x%llx\"",
                    (unsigned long long)e.id);
      out->append(buf);
      if (e.ph == 'f') out->append(",\"bp\":\"e\"");
    }
  }
  out->append(",\"ts\":");
  AppendMicros(out, e.ts);
  if (e.ph == 'X') {
    out->append(",\"dur\":");
    AppendMicros(out, e.dur);
  }
  if (e.ph == 'i') out->append(",\"s\":\"t\"");
  out->append(",\"cat\":\"");
  out->append(e.cat);
  out->append("\",\"name\":\"");
  out->append(e.name);
  out->push_back('"');
  if (e.arg_key != nullptr) {
    out->append(",\"args\":{\"");
    out->append(e.arg_key);
    out->append("\":");
    AppendArgNumber(out, e.arg_val);
    out->push_back('}');
  }
  out->push_back('}');
}

void Tracer::RenderTo(
    const std::function<void(const std::string&)>& sink) const {
  std::string line;
  line.reserve(256);

  sink("{\"traceEvents\":[\n");
  // Metadata: name the two processes and each node track.
  sink("{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\","
       "\"args\":{\"name\":\"cluster\"}},\n");
  sink("{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
       "\"args\":{\"name\":\"transactions\"}},\n");
  for (uint32_t tid = 0; tid <= max_tid_; ++tid) {
    line.clear();
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "{\"ph\":\"M\",\"pid\":0,\"tid\":%u,\"name\":"
                  "\"thread_name\",\"args\":{\"name\":\"node %u\"}}",
                  tid, tid);
    line.append(buf);
    if (tid < max_tid_ || !events_.empty()) line.push_back(',');
    line.push_back('\n');
    sink(line);
  }
  for (size_t i = 0; i < events_.size(); ++i) {
    line.clear();
    RenderEvent(events_[i], &line);
    if (i + 1 < events_.size()) line.push_back(',');
    line.push_back('\n');
    sink(line);
  }
  sink("],\"displayTimeUnit\":\"ms\"}\n");
}

std::string Tracer::DumpChromeTrace() const {
  std::string out;
  out.reserve(events_.size() * 128 + 256);
  RenderTo([&out](const std::string& chunk) { out.append(chunk); });
  return out;
}

Status Tracer::WriteChromeTrace(const std::string& path) const {
  util::BufferedWriter writer;
  BB_RETURN_IF_ERROR(writer.Open(path));
  RenderTo([&writer](const std::string& chunk) { writer.Append(chunk); });
  return writer.Close();
}

}  // namespace bb::obs
