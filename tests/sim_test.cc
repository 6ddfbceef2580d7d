// Simulator tests: virtual clock ordering, network delivery/latency,
// fault injection (crash, partition, drops, corruption), bounded inboxes,
// serial message processing under CPU cost, and resource meters.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "obs/event.h"
#include "sim/network.h"
#include "sim/node.h"
#include "sim/simulation.h"

namespace bb::sim {
namespace {

TEST(SimulationTest, EventsFireInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.At(3.0, [&] { order.push_back(3); });
  sim.At(1.0, [&] { order.push_back(1); });
  sim.At(2.0, [&] { order.push_back(2); });
  sim.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.Now(), 3.0);
}

TEST(SimulationTest, SameTimeIsFifo) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.At(1.0, [&order, i] { order.push_back(i); });
  }
  sim.RunToCompletion();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[size_t(i)], i);
}

TEST(SimulationTest, RunUntilStopsAtBoundary) {
  Simulation sim;
  int fired = 0;
  sim.At(1.0, [&] { ++fired; });
  sim.At(5.0, [&] { ++fired; });
  sim.RunUntil(2.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.Now(), 2.0);
  sim.RunUntil(10.0);
  EXPECT_EQ(fired, 2);
}

TEST(SimulationTest, EventsCanScheduleEvents) {
  Simulation sim;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 5) sim.After(1.0, tick);
  };
  sim.After(1.0, tick);
  sim.RunToCompletion();
  EXPECT_EQ(count, 5);
  EXPECT_DOUBLE_EQ(sim.Now(), 5.0);
}

TEST(SimulationTest, FifoAcrossNearAndFarSchedules) {
  // Mixed horizon pattern: bursts of same-time events interleaved with
  // timers far in the future, so the two-level queue must merge its
  // near-term heap and far-term overflow without breaking (time, seq)
  // order.
  Simulation sim;
  std::vector<std::pair<double, int>> order;
  int n = 0;
  for (int round = 0; round < 50; ++round) {
    double t = 0.001 * round;
    for (int i = 0; i < 4; ++i) {
      sim.At(t, [&order, t, id = n++] { order.emplace_back(t, id); });
    }
    double far = 5.0 + 0.1 * round;
    sim.At(far, [&order, far, id = n++] { order.emplace_back(far, id); });
  }
  sim.RunToCompletion();
  ASSERT_EQ(order.size(), size_t(n));
  for (size_t i = 1; i < order.size(); ++i) {
    EXPECT_LE(order[i - 1].first, order[i].first);
    if (order[i - 1].first == order[i].first) {
      EXPECT_LT(order[i - 1].second, order[i].second);  // FIFO tie-break
    }
  }
  EXPECT_EQ(sim.events_executed(), uint64_t(n));
}

TEST(SimulationTest, ClearInsideEventDropsEverythingPending) {
  Simulation sim;
  std::vector<int> order;
  sim.At(1.0, [&] {
    order.push_back(1);
    sim.Clear();  // from inside Dispatch(): later events must vanish
  });
  sim.At(2.0, [&] { order.push_back(2); });
  sim.At(10.0, [&] { order.push_back(10); });  // far-term at clear time
  sim.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_DOUBLE_EQ(sim.Now(), 1.0);
}

TEST(SimulationTest, FifoPreservedAfterClearAndReschedule) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) sim.At(1.0, [&order, i] { order.push_back(i); });
  sim.Clear();
  // Recycled slots must not leak old callables or scramble the order.
  for (int i = 100; i < 108; ++i) {
    sim.At(1.0, [&order, i] { order.push_back(i); });
  }
  sim.RunToCompletion();
  EXPECT_EQ(order,
            (std::vector<int>{100, 101, 102, 103, 104, 105, 106, 107}));
}

TEST(SimulationTest, RunUntilBoundaryEventsAreFifo) {
  Simulation sim;
  std::vector<int> order;
  // All at exactly the RunUntil boundary: each must fire, in order.
  for (int i = 0; i < 6; ++i) sim.At(2.0, [&order, i] { order.push_back(i); });
  sim.At(2.0 + 1e-9, [&order] { order.push_back(99); });
  sim.RunUntil(2.0);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.RunToCompletion();
  EXPECT_EQ(order.back(), 99);
}

TEST(SimulationTest, LargeCallablesSurviveQueueReordering) {
  // Captures bigger than EventFn's inline buffer take the heap path;
  // verify they run correctly when scheduled out of order.
  Simulation sim;
  std::vector<std::string> order;
  std::array<char, 128> big;
  big.fill('x');
  sim.At(2.0, [&order, big] { order.push_back(std::string(1, big[0])); });
  sim.At(1.0, [&order] { order.push_back("small"); });
  sim.RunToCompletion();
  EXPECT_EQ(order, (std::vector<std::string>{"small", "x"}));
}

// A node that counts messages and can charge CPU per message.
class EchoNode : public Node {
 public:
  EchoNode(NodeId id, Network* net, double cost = 0)
      : Node(id, net), cost_(cost) {}

  double HandleMessage(const Message& msg) override {
    ++received_;
    last_kind_ = msg.kind;
    last_corrupted_ = msg.corrupted;
    receive_times_.push_back(Now());
    return cost_;
  }

  int received_ = 0;
  MsgKind last_kind_{};
  bool last_corrupted_ = false;
  std::vector<double> receive_times_;

 private:
  double cost_;
};

struct TestNet {
  Simulation sim;
  Network net;
  EchoNode a, b, c;

  explicit TestNet(NetworkConfig cfg = {}, double cost = 0)
      : sim(1), net(&sim, cfg), a(0, &net, cost), b(1, &net, cost),
        c(2, &net, cost) {}
};

Message Msg(NodeId from, NodeId to, uint64_t bytes = 100) {
  Message m;
  m.from = from;
  m.to = to;
  m.kind = MsgKind::kClientTx;  // any kind outside the inbox class
  m.size_bytes = bytes;
  return m;
}

TEST(NetworkTest, DeliversWithLatency) {
  NetworkConfig cfg;
  cfg.base_latency = 0.01;
  cfg.jitter = 0;
  cfg.bandwidth_bytes_per_sec = 0;
  TestNet t(cfg);
  ASSERT_TRUE(t.net.Send(Msg(0, 1)));
  t.sim.RunToCompletion();
  EXPECT_EQ(t.b.received_, 1);
  EXPECT_DOUBLE_EQ(t.b.receive_times_[0], 0.01);
}

TEST(NetworkTest, BandwidthDelaysLargeMessages) {
  NetworkConfig cfg;
  cfg.base_latency = 0.001;
  cfg.jitter = 0;
  cfg.bandwidth_bytes_per_sec = 1e6;  // 1 MB/s
  TestNet t(cfg);
  t.net.Send(Msg(0, 1, 1'000'000));  // 1 MB -> +1 s
  t.sim.RunToCompletion();
  ASSERT_EQ(t.b.received_, 1);
  EXPECT_NEAR(t.b.receive_times_[0], 1.001, 1e-9);
}

TEST(NetworkTest, CrashedNodeGetsNothing) {
  TestNet t;
  t.net.Crash(1);
  EXPECT_FALSE(t.net.Send(Msg(0, 1)));
  t.sim.RunToCompletion();
  EXPECT_EQ(t.b.received_, 0);
  EXPECT_TRUE(t.net.IsCrashed(1));
  EXPECT_EQ(t.net.messages_dropped(), 1u);
}

TEST(NetworkTest, CrashedSenderCannotSend) {
  TestNet t;
  t.net.Crash(0);
  EXPECT_FALSE(t.net.Send(Msg(0, 1)));
  t.sim.RunToCompletion();
  EXPECT_EQ(t.b.received_, 0);
}

TEST(NetworkTest, RestartResumesDelivery) {
  TestNet t;
  t.net.Crash(1);
  t.net.Send(Msg(0, 1));
  t.net.Restart(1);
  t.net.Send(Msg(0, 1));
  t.sim.RunToCompletion();
  EXPECT_EQ(t.b.received_, 1);
}

TEST(NetworkTest, PartitionBlocksCrossTraffic) {
  TestNet t;
  t.net.Partition({0});  // {0} vs {1, 2}
  EXPECT_FALSE(t.net.Send(Msg(0, 1)));
  EXPECT_TRUE(t.net.Send(Msg(1, 2)));
  t.sim.RunToCompletion();
  EXPECT_EQ(t.b.received_, 0);
  EXPECT_EQ(t.c.received_, 1);
  t.net.HealPartition();
  EXPECT_TRUE(t.net.Send(Msg(0, 1)));
  t.sim.RunToCompletion();
  EXPECT_EQ(t.b.received_, 1);
}

TEST(NetworkTest, PartitionDropsInFlightMessages) {
  NetworkConfig cfg;
  cfg.base_latency = 1.0;
  cfg.jitter = 0;
  TestNet t(cfg);
  t.net.Send(Msg(0, 1));  // will arrive at t=1
  t.sim.RunUntil(0.5);
  t.net.Partition({0});
  t.sim.RunToCompletion();
  EXPECT_EQ(t.b.received_, 0);  // dropped at delivery time
}

TEST(NetworkTest, DropProbabilityOneDropsEverything) {
  NetworkConfig cfg;
  cfg.drop_probability = 1.0;
  TestNet t(cfg);
  for (int i = 0; i < 20; ++i) t.net.Send(Msg(0, 1));
  t.sim.RunToCompletion();
  EXPECT_EQ(t.b.received_, 0);
  EXPECT_EQ(t.net.messages_dropped(), 20u);
}

TEST(NetworkTest, CorruptionFlagsMessages) {
  NetworkConfig cfg;
  cfg.corrupt_probability = 1.0;
  TestNet t(cfg);
  t.net.Send(Msg(0, 1));
  t.sim.RunToCompletion();
  ASSERT_EQ(t.b.received_, 1);
  EXPECT_TRUE(t.b.last_corrupted_);
}

TEST(NetworkTest, InjectedDelayAddsLatency) {
  NetworkConfig cfg;
  cfg.base_latency = 0.001;
  cfg.jitter = 0;
  cfg.bandwidth_bytes_per_sec = 0;
  TestNet t(cfg);
  t.net.InjectDelay(0.5);
  t.net.Send(Msg(0, 1));
  t.sim.RunToCompletion();
  ASSERT_EQ(t.b.received_, 1);
  EXPECT_NEAR(t.b.receive_times_[0], 0.501, 1e-9);
}

TEST(NetworkTest, BoundedInboxRejectsOverflow) {
  NetworkConfig cfg;
  cfg.base_latency = 0.001;
  cfg.jitter = 0;
  cfg.inbox_capacity = 4;
  // Receiver takes 1 s per message, so the inbox fills up.
  TestNet t(cfg, /*cost=*/1.0);
  for (int i = 0; i < 20; ++i) t.net.Send(Msg(0, 1));
  t.sim.RunToCompletion();
  // Some were dropped for channel-full; the receiver processed only what
  // fit through the bounded channel.
  EXPECT_LT(t.b.received_, 20);
  EXPECT_GT(t.net.messages_dropped(), 0u);
}

TEST(NodeTest, SerialProcessingUnderCpuCost) {
  NetworkConfig cfg;
  cfg.base_latency = 0.001;
  cfg.jitter = 0;
  TestNet t(cfg, /*cost=*/0.1);
  t.net.Send(Msg(0, 1));
  t.net.Send(Msg(0, 1));
  t.net.Send(Msg(0, 1));
  t.sim.RunToCompletion();
  ASSERT_EQ(t.b.received_, 3);
  // Second message processed only after the first's 0.1 s of CPU.
  EXPECT_NEAR(t.b.receive_times_[1] - t.b.receive_times_[0], 0.1, 1e-6);
  EXPECT_NEAR(t.b.receive_times_[2] - t.b.receive_times_[1], 0.1, 1e-6);
}

TEST(NodeTest, MeterAccumulatesCpuAndBytes) {
  NetworkConfig cfg;
  cfg.base_latency = 0.001;
  cfg.jitter = 0;
  TestNet t(cfg, /*cost=*/0.25);
  t.net.Send(Msg(0, 1, 5000));
  t.sim.RunToCompletion();
  EXPECT_DOUBLE_EQ(t.b.meter().total_cpu(), 0.25);
  EXPECT_EQ(t.b.meter().total_net_bytes(), 5000u);
  EXPECT_EQ(t.a.meter().total_net_bytes(), 5000u);  // sender side
  EXPECT_GT(t.b.meter().CpuUtilizationAt(0), 0.0);
}


TEST(NodeTest, ClassLimitBoundsOnlyMatchingMessages) {
  NetworkConfig cfg;
  cfg.base_latency = 0.001;
  cfg.jitter = 0;
  TestNet t(cfg, /*cost=*/1.0);  // slow consumer: messages queue up
  t.b.SetInboxClassLimit(3);
  // 10 consensus-class messages: only ~3 fit in the bounded channel
  // (plus the one being processed).
  for (int i = 0; i < 10; ++i) {
    Message m = Msg(0, 1);
    m.kind = MsgKind::kPbftCommit;
    t.net.Send(std::move(m));
  }
  // 10 ordinary messages are NOT subject to the class bound.
  for (int i = 0; i < 10; ++i) t.net.Send(Msg(0, 1));
  t.sim.RunToCompletion();
  EXPECT_GT(t.b.class_dropped(), 0u);
  int pbft_seen = 0, other_seen = t.b.received_;
  // received_ counts both; infer: total delivered = received_;
  // all 10 ordinary ones must have arrived.
  EXPECT_GE(other_seen, 10);
  EXPECT_LT(other_seen, 20);
  (void)pbft_seen;
}

TEST(NodeTest, CrashClearsInbox) {
  NetworkConfig cfg;
  cfg.base_latency = 0.001;
  cfg.jitter = 0;
  TestNet t(cfg, /*cost=*/1.0);
  for (int i = 0; i < 5; ++i) t.net.Send(Msg(0, 1));
  t.sim.RunUntil(0.5);  // first message being processed, rest queued
  int before = t.b.received_;
  t.net.Crash(1);
  t.sim.RunToCompletion();
  EXPECT_EQ(t.b.received_, before);  // queued messages voided
}

TEST(NodeTest, RestartDuringBusyWindowKeepsProcessingSerial) {
  // A handler continuation scheduled before a crash must not run after
  // the restart, or the node would process two messages at once.
  NetworkConfig cfg;
  cfg.base_latency = 0.001;
  cfg.jitter = 0;
  cfg.bandwidth_bytes_per_sec = 0;
  TestNet t(cfg, /*cost=*/1.0);
  t.net.Send(Msg(0, 1));  // arrives 0.001, CPU busy until 1.001
  t.sim.At(0.1, [&t] { t.net.Crash(1); });
  t.sim.At(0.2, [&t] { t.net.Restart(1); });
  t.sim.At(0.5, [&t] {
    t.net.Send(Msg(0, 1));  // both arrive 0.501
    t.net.Send(Msg(0, 1));
  });
  t.sim.RunToCompletion();
  ASSERT_EQ(t.b.received_, 3);
  EXPECT_NEAR(t.b.receive_times_[1], 0.501, 1e-9);
  // The third message waits for the second's full second of CPU.
  EXPECT_NEAR(t.b.receive_times_[2], 1.501, 1e-9);
}

TEST(NodeTest, MeterCountsPerKindSortedByName) {
  TestNet t;
  for (int i = 0; i < 2; ++i) {
    Message m = Msg(0, 1);
    m.kind = MsgKind::kPbftPrepare;
    t.net.Send(std::move(m));
  }
  t.net.Send(Msg(0, 1));  // kClientTx
  t.sim.RunToCompletion();
  EXPECT_EQ(t.a.meter().total_msgs_sent(), 3u);
  MsgCounts expect = {{"client_tx", 1}, {"pbft_prepare", 2}};
  ASSERT_EQ(t.a.meter().msgs_sent_by_type().size(), expect.size());
  for (size_t i = 0; i < expect.size(); ++i) {
    EXPECT_STREQ(t.a.meter().msgs_sent_by_type()[i].first, expect[i].first);
    EXPECT_EQ(t.a.meter().msgs_sent_by_type()[i].second, expect[i].second);
  }
  EXPECT_TRUE(t.b.meter().msgs_sent_by_type().empty());
}

// Every kind's wire name, pinned to the string the message carried before
// kinds were an enum: metrics labels, the Fig 16 breakdown and blackbox
// dumps print these.
TEST(MsgKindTest, WireNamesArePinnedUniqueAndClassIsPbft) {
  const std::vector<std::pair<MsgKind, std::string>> kWire = {
      {MsgKind::kPbftPrePrepare, "pbft_preprepare"},
      {MsgKind::kPbftPrepare, "pbft_prepare"},
      {MsgKind::kPbftCommit, "pbft_commit"},
      {MsgKind::kPbftViewChange, "pbft_viewchange"},
      {MsgKind::kPbftNewView, "pbft_newview"},
      {MsgKind::kPbftStatus, "pbft_status"},
      {MsgKind::kPbftFetchReq, "pbft_fetchreq"},
      {MsgKind::kPbftBlocks, "pbft_blocks"},
      {MsgKind::kRaftRequestVote, "raft_requestvote"},
      {MsgKind::kRaftVote, "raft_vote"},
      {MsgKind::kRaftAppend, "raft_append"},
      {MsgKind::kRaftAppendReply, "raft_appendreply"},
      {MsgKind::kTmProposal, "tm_proposal"},
      {MsgKind::kTmPrevote, "tm_prevote"},
      {MsgKind::kTmPrecommit, "tm_precommit"},
      {MsgKind::kPowBlock, "pow_block"},
      {MsgKind::kPoaBlock, "poa_block"},
      {MsgKind::kSyncFetchReq, "sync_fetchreq"},
      {MsgKind::kSyncBlocks, "sync_blocks"},
      {MsgKind::kClientTx, "client_tx"},
      {MsgKind::kClientTxReject, "client_tx_reject"},
      {MsgKind::kGossipTx, "gossip_tx"},
      {MsgKind::kRpcGetBlocks, "rpc_getblocks"},
      {MsgKind::kRpcBlocks, "rpc_blocks"},
      {MsgKind::kRpcGetBlock, "rpc_getblock"},
      {MsgKind::kRpcBlock, "rpc_block"},
      {MsgKind::kRpcGetBalance, "rpc_getbalance"},
      {MsgKind::kRpcBalance, "rpc_balance"},
      {MsgKind::kRpcQuery, "rpc_query"},
      {MsgKind::kRpcResult, "rpc_result"},
      {MsgKind::kXsClientTx, "xs_client_tx"},
      {MsgKind::kXsSealed, "xs_sealed"},
      {MsgKind::kHsTxn, "hs_txn"},
      {MsgKind::kHsPrepare, "hs_prepare"},
      {MsgKind::kHsPrepared, "hs_prepared"},
      {MsgKind::kHsVoteAbort, "hs_vote_abort"},
      {MsgKind::kHsCommit, "hs_commit"},
      {MsgKind::kHsAbort, "hs_abort"},
      {MsgKind::kHsAck, "hs_ack"},
      {MsgKind::kHsDone, "hs_done"},
      {MsgKind::kHsAborted, "hs_aborted"},
  };
  ASSERT_EQ(kWire.size(), kNumMsgKinds) << "a kind without a pinned name";
  std::set<size_t> kinds;
  std::set<std::string> names;
  for (const auto& [kind, name] : kWire) {
    kinds.insert(size_t(kind));
    names.insert(MsgKindName(kind));
    EXPECT_EQ(MsgKindName(kind), name);
    // The bounded inbox class is exactly the PBFT kinds.
    EXPECT_EQ(InInboxClass(kind), name.starts_with("pbft_")) << name;
  }
  EXPECT_EQ(kinds.size(), kNumMsgKinds);
  EXPECT_EQ(names.size(), kNumMsgKinds) << "wire names must be unique";
  for (size_t i = 1; i < kNumMsgKinds; ++i) {
    EXPECT_LT(std::string(MsgKindName(kMsgKindsByName[i - 1])),
              std::string(MsgKindName(kMsgKindsByName[i])));
  }
}

// --- Kernel event order -------------------------------------------------
//
// A node's busy window (the CPU seconds its last handler returned) ends
// at a point in the (time, seq) order; whether an arrival at exactly that
// time is queued behind the window or handled at once depends on which
// side of that point its delivery event falls. The tests below pin the
// observable order so kernel changes can be checked against it.

// Times and latencies are whole ticks of 1/1024 s, exact in a double, so
// arrivals, crashes and probes land exactly on busy-window ends.
constexpr double kTick = 1.0 / 1024;

// One observation: a handled message (what = network seq) or an
// inbox_depth probe (what = kProbeTag | depth).
struct Observation {
  double t;
  NodeId node;
  uint64_t what;
};
constexpr uint64_t kProbeTag = uint64_t{1} << 63;

uint64_t DigestOf(const std::vector<Observation>& log) {
  uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a over the raw fields
  auto mix = [&h](const void* p, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      h ^= static_cast<const unsigned char*>(p)[i];
      h *= 0x100000001b3ULL;
    }
  };
  for (const Observation& o : log) {
    mix(&o.t, sizeof o.t);
    mix(&o.node, sizeof o.node);
    mix(&o.what, sizeof o.what);
  }
  return h;
}

// A node whose handler cost (0 to 3 ticks) and fan-out (0 to 2 sends of
// 0 to 4 ticks of latency) come from a seeded stream.
class ScriptedNode : public Node {
 public:
  ScriptedNode(NodeId id, Network* net, Rng* rng, size_t cluster,
               std::vector<Observation>* log, int* send_budget)
      : Node(id, net), rng_(rng), cluster_(cluster), log_(log),
        send_budget_(send_budget) {}

  double HandleMessage(const Message& msg) override {
    log_->push_back({Now(), id(), msg.seq});
    const double cost = double(rng_->Uniform(4)) * kTick;
    busy_until_ = Now() + cost;
    for (uint64_t n = rng_->Uniform(3); n > 0 && *send_budget_ > 0; --n) {
      --*send_budget_;
      SendRandom(this, rng_, cluster_);
    }
    return cost;
  }

  // Latency is size_bytes ticks (bandwidth 1024 B/s, no base latency).
  static void SendRandom(Node* from, Rng* rng, size_t cluster) {
    Message m;
    m.from = from->id();
    m.to = NodeId(rng->Uniform(cluster));
    m.kind = rng->Bernoulli(0.5) ? MsgKind::kPbftPrepare : MsgKind::kClientTx;
    m.size_bytes = rng->Uniform(5);
    from->network()->Send(std::move(m));
  }

  double busy_until_ = -1;

 private:
  Rng* rng_;
  size_t cluster_;
  std::vector<Observation>* log_;
  int* send_budget_;
};

// Counts deliveries that land exactly at the receiver's busy-window end
// with an empty inbox, split by whether the window was still open.
struct TieCounter : obs::Sink {
  std::vector<std::unique_ptr<ScriptedNode>>* nodes = nullptr;
  int open = 0, closed = 0;
  void Observe(const obs::Event& e) override {
    if (e.kind != obs::EventKind::kRecv) return;
    const ScriptedNode& n = *(*nodes)[e.node];
    if (n.crashed() || e.t != n.busy_until_) return;
    const size_t depth = n.inbox_depth();
    if (depth == 1) ++open;
    if (depth == 0) ++closed;
  }
};

struct ScenarioResult {
  std::vector<Observation> log;
  int ties_open = 0, ties_closed = 0, crashes_in_window = 0;
};

ScenarioResult RunScenario(uint64_t seed) {
  constexpr size_t kNodes = 5;
  constexpr int kHorizonTicks = 256;
  ScenarioResult r;
  Rng rng(seed);
  NetworkConfig cfg;
  cfg.base_latency = 0;
  cfg.jitter = 0;
  cfg.bandwidth_bytes_per_sec = 1024;
  cfg.inbox_capacity = 3;  // refusals read inbox_depth at send and arrival
  Simulation sim(seed);
  Network net(&sim, cfg);
  int send_budget = 600;
  std::vector<std::unique_ptr<ScriptedNode>> nodes;
  for (size_t i = 0; i < kNodes; ++i) {
    nodes.push_back(std::make_unique<ScriptedNode>(
        NodeId(i), &net, &rng, kNodes, &r.log, &send_budget));
    nodes.back()->SetInboxClassLimit(2);
  }
  TieCounter ties;
  ties.nodes = &nodes;
  sim.set_tracer(&ties);
  auto at_tick = [&](uint64_t tick, EventFn fn) {
    sim.At(double(tick) * kTick, std::move(fn));
  };
  // Client traffic, crashes with restarts 0-8 ticks later, and depth
  // probes, all on the tick grid.
  for (int i = 0; i < 120; ++i) {
    const NodeId from = NodeId(rng.Uniform(kNodes));
    at_tick(rng.Uniform(kHorizonTicks), [&, from] {
      if (!net.IsCrashed(from)) {
        ScriptedNode::SendRandom(nodes[from].get(), &rng, kNodes);
      }
    });
  }
  for (int i = 0; i < 12; ++i) {
    const NodeId id = NodeId(rng.Uniform(kNodes));
    const uint64_t down = rng.Uniform(kHorizonTicks);
    const uint64_t up = down + rng.Uniform(9);
    at_tick(down, [&, id] {
      if (net.IsCrashed(id)) return;
      if (sim.Now() < nodes[id]->busy_until_) ++r.crashes_in_window;
      net.Crash(id);
    });
    at_tick(up, [&, id] {
      if (net.IsCrashed(id)) net.Restart(id);
    });
  }
  for (int i = 0; i < 200; ++i) {
    const NodeId id = NodeId(rng.Uniform(kNodes));
    at_tick(rng.Uniform(kHorizonTicks), [&, id] {
      r.log.push_back({sim.Now(), id, kProbeTag | net.InboxDepth(id)});
    });
  }
  sim.RunUntil(double(kHorizonTicks) * kTick);
  sim.RunToCompletion();
  sim.set_tracer(nullptr);
  r.ties_open = ties.open;
  r.ties_closed = ties.closed;
  return r;
}

// Randomized pin of the kernel's observable order: which message each
// node handles when, and what inbox_depth() reads, across zero-cost
// handlers, arrivals on both sides of busy-window ends, bounded inboxes
// and crashes/restarts inside windows. The digest must not move when the
// kernel changes how it schedules.
TEST(KernelOrderTest, RandomizedHandlingOrderIsPinned) {
  std::vector<Observation> all;
  int ties_open = 0, ties_closed = 0, crashes_in_window = 0;
  size_t handled = 0;
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    ScenarioResult r = RunScenario(seed);
    ties_open += r.ties_open;
    ties_closed += r.ties_closed;
    crashes_in_window += r.crashes_in_window;
    for (const Observation& o : r.log) handled += (o.what & kProbeTag) == 0;
    all.insert(all.end(), r.log.begin(), r.log.end());
  }
  // The scenarios must exercise what the pin is for.
  EXPECT_GT(handled, 5000u);
  EXPECT_GT(ties_open, 20);
  EXPECT_GT(ties_closed, 20);
  EXPECT_GT(crashes_in_window, 10);
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(DigestOf(all)));
  EXPECT_STREQ(hex, "8bac039ba1e34ec1");
}

// inbox_depth() at a busy-window end: a probe scheduled before the
// handler returned falls inside the window, one scheduled after it does
// not, even at the same virtual time.
TEST(KernelOrderTest, InboxDepthAtBusyUntilTie) {
  NetworkConfig cfg;
  cfg.base_latency = 0.5;
  cfg.jitter = 0;
  cfg.bandwidth_bytes_per_sec = 0;
  TestNet t(cfg, /*cost=*/0.25);
  std::vector<std::pair<double, size_t>> depth;
  auto probe = [&] { depth.emplace_back(t.sim.Now(), t.b.inbox_depth()); };
  t.net.Send(Msg(0, 1));             // arrives 0.5, busy until 0.75
  t.sim.At(0.75, probe);             // before the handler: inside
  t.sim.At(0.6, [&] {
    probe();                         // mid-window
    t.sim.At(0.75, probe);           // after the handler: outside
  });
  t.sim.At(0.76, probe);
  t.sim.RunToCompletion();
  ASSERT_EQ(t.b.received_, 1);
  EXPECT_EQ(depth, (std::vector<std::pair<double, size_t>>{
                       {0.6, 1}, {0.75, 1}, {0.75, 0}, {0.76, 0}}));
}

// The same tie decides a bounded inbox: with room for one message, an
// arrival ordered before the window's end is refused and one ordered
// after it is handled at once.
TEST(KernelOrderTest, ArrivalAtBusyUntilTieUsesWindowOrder) {
  NetworkConfig cfg;
  cfg.base_latency = 0;
  cfg.jitter = 0;
  cfg.bandwidth_bytes_per_sec = 4;  // latency = size_bytes / 4 s
  cfg.inbox_capacity = 1;
  TestNet t(cfg, /*cost=*/0.25);
  t.net.Send(Msg(0, 1, 2));                           // arrives 0.5
  t.sim.At(0.25, [&] { t.net.Send(Msg(0, 1, 1)); });  // 0.75, before end
  t.sim.At(0.6, [&] {
    // Sent at 0.75 once the window has ended, with no latency.
    t.sim.At(0.75, [&] { t.net.Send(Msg(2, 1, 0)); });
  });
  t.sim.RunToCompletion();
  EXPECT_EQ(t.b.receive_times_, (std::vector<double>{0.5, 0.75}));
  EXPECT_EQ(t.net.messages_dropped(), 1u);
  EXPECT_EQ(t.b.inbox_depth(), 0u);
}

// A crash inside a busy window closes it: the restarted node handles an
// arrival at once, before the old window would have ended.
TEST(KernelOrderTest, CrashClosesBusyWindow) {
  NetworkConfig cfg;
  cfg.base_latency = 0.5;
  cfg.jitter = 0;
  cfg.bandwidth_bytes_per_sec = 0;
  TestNet t(cfg, /*cost=*/1.0);
  t.net.Send(Msg(0, 1));  // arrives 0.5, busy until 1.5
  t.sim.At(0.6, [&] {
    EXPECT_EQ(t.b.inbox_depth(), 1u);
    t.net.Crash(1);
    EXPECT_EQ(t.b.inbox_depth(), 0u);
    t.net.Restart(1);
    EXPECT_EQ(t.b.inbox_depth(), 0u);
    t.net.Send(Msg(0, 1));  // arrives 1.1, inside the voided window
  });
  t.sim.RunToCompletion();
  EXPECT_EQ(t.b.receive_times_, (std::vector<double>{0.5, 1.1}));
}

TEST(PayloadDeathTest, ReadWithWrongTypeAborts) {
  Payload p = uint64_t{7};
  EXPECT_EQ(p.As<uint64_t>(), 7u);
  EXPECT_DEATH(p.As<int64_t>(), "read as");
  EXPECT_DEATH(Payload().As<uint64_t>(), "read as");
}

}  // namespace
}  // namespace bb::sim
