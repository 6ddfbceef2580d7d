// Tracer: a span/event recorder keyed on virtual simulation time.
//
// One Tracer serves one sim::Simulation as a sink of its event stream
// (Simulation::set_tracer, see obs/event.h): disabled tracing costs one
// pointer test per hook site. All timestamps are virtual seconds, and
// events are stored in dispatch order, so a trace is byte-identical
// across runs and across sweep --jobs values (each run owns its
// simulation and tracer).
//
// What it keeps of the stream (Observe):
//  * spans/instants on a (node, category, name) axis — consensus phases
//    ("pbft.prepare", "pow.mine", ...), fault edges, message flow
//    arrows and sampled counters;
//  * transaction lifecycle milestones (submit -> admit -> propose ->
//    commit -> confirm) recorded first-wins per tx id; each adjacent
//    milestone pair becomes an async span ("tx.admission",
//    "tx.pool_wait", "tx.consensus", "tx.confirmation") whose durations
//    telescope to exactly the client-measured commit latency. A
//    confirmed tx with every milestone adds its four legs to the
//    per-leg latency histograms behind bbench's breakdown table.
//
// Serialization targets the Chrome trace_event JSON format, loadable in
// Perfetto (ui.perfetto.dev) and chrome://tracing. See
// docs/OBSERVABILITY.md.

#ifndef BLOCKBENCH_OBS_TRACE_H_
#define BLOCKBENCH_OBS_TRACE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/event.h"
#include "util/histogram.h"
#include "util/status.h"

namespace bb::obs {

class Tracer final : public Sink {
 public:
  /// Transaction lifecycle milestones, in causal order (the kTxSubmit ..
  /// kTxConfirm event kinds).
  enum TxPhase : uint8_t {
    kSubmit = 0,   // client hands the tx to its server
    kAdmit,        // a server pool accepts it (direct or via gossip)
    kPropose,      // a proposer packs it into a block
    kCommit,       // first canonical execution commits it
    kConfirm,      // the submitting client observes the commit
  };
  static constexpr size_t kNumTxPhases = 5;
  /// Span between milestone `leg` and `leg + 1` (4 legs total).
  static constexpr size_t kNumTxSpans = kNumTxPhases - 1;
  static const char* TxSpanName(size_t leg);

  /// Milestone timestamps for one tx; entries are -1 until recorded.
  using TxMilestones = std::array<double, kNumTxPhases>;

  void Observe(const Event& e) override;

  /// Milestone record for a tx, nullptr if never seen.
  const TxMilestones* FindTx(uint64_t tx_id) const;
  /// Durations of lifecycle leg `leg` over every confirmed tx whose
  /// milestones were all observed.
  const Histogram& leg_latency(size_t leg) const { return legs_.at(leg); }
  uint64_t complete_txs() const { return uint64_t(legs_[0].count()); }

  // --- Introspection / export --------------------------------------------

  size_t num_events() const { return events_.size(); }
  size_t num_tx() const { return tx_.size(); }

  /// Whole trace as a Chrome trace_event JSON document (for tests and
  /// golden digests).
  std::string DumpChromeTrace() const;
  /// Streams the trace to `path` through a BufferedWriter.
  Status WriteChromeTrace(const std::string& path) const;

 private:
  struct Record {
    const char* cat;      // static-lifetime strings only
    const char* name;
    const char* arg_key;  // optional single numeric arg
    double ts;            // virtual seconds
    double dur;           // seconds, 'X' only
    double arg_val;
    uint64_t id;          // async pair id ('b'/'e'), counter ('C'), flow ('s'/'f')
    uint32_t tid;
    char ph;              // 'X', 'i', 'b', 'e', 'C', 's', 'f'
  };

  void Push(uint32_t tid, const char* cat, const char* name, char ph,
            double ts, double dur, uint64_t id, const char* arg_key,
            double arg_val) {
    if (tid > max_tid_) max_tid_ = tid;
    events_.push_back(
        Record{cat, name, arg_key, ts, dur, arg_val, id, tid, ph});
  }
  /// Flow arrow start/end linking a message send to its delivery across
  /// node tracks ('s'/'f' pairs share the message seq as id; Perfetto
  /// renders them as arrows), each with a zero-duration anchor span on
  /// the node track for the arrow to bind to. A send whose message is
  /// dropped in flight leaves an unmatched 's' — bbreport trace treats
  /// that as legal (the arrow just never lands).
  void Flow(uint32_t node, const char* name, char ph, double t, uint64_t id) {
    Push(node, "net", name, 'X', t, 0, 0, nullptr, 0);
    Push(node, "net", name, ph, t, 0, id, nullptr, 0);
  }
  /// Starts (or restarts, on client retry after a rejection) the
  /// lifecycle record for `tx_id`: later milestones are cleared.
  void TxSubmit(uint64_t tx_id, double t);
  /// Records milestone `phase` at time t, first writer wins; emits the
  /// async span from the previous milestone once both ends are known.
  void TxMilestone(uint64_t tx_id, TxPhase phase, double t);

  void RenderTo(const std::function<void(const std::string&)>& sink) const;
  static void RenderEvent(const Record& e, std::string* out);

  std::vector<Record> events_;
  std::unordered_map<uint64_t, TxMilestones> tx_;
  std::array<Histogram, kNumTxSpans> legs_;
  uint32_t max_tid_ = 0;
};

}  // namespace bb::obs

#endif  // BLOCKBENCH_OBS_TRACE_H_
