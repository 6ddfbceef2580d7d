// Consensus-engine tests against a scripted host: PoW fork choice and
// difficulty schedule, PoA slot assignment, PBFT phase/quorum logic and
// view changes — behaviours the end-to-end tests exercise only
// indirectly.

#include <gtest/gtest.h>

#include "consensus/pbft.h"
#include "core/driver.h"
#include "consensus/poa.h"
#include "consensus/pow.h"
#include "platform/platform.h"
#include "workloads/ycsb.h"

namespace bb::consensus {
namespace {

// A minimal ConsensusHost for white-box engine tests: records outgoing
// traffic, commits blocks into a real ChainStore, serves a scripted
// transaction supply.
class MockHost : public ConsensusHost {
 public:
  MockHost(sim::Simulation* sim, sim::NodeId id, size_t n)
      : sim_(sim), id_(id), n_(n), chain_((chain::Block())) {}

  sim::NodeId node_id() const override { return id_; }
  size_t num_nodes() const override { return n_; }
  sim::Simulation* host_sim() override { return sim_; }
  double HostNow() const override { return sim_->Now(); }

  void HostBroadcast(sim::MsgKind kind, sim::Payload payload,
                     uint64_t size_bytes) override {
    (void)size_bytes;
    broadcasts.push_back({kind, std::move(payload)});
  }
  bool HostSend(sim::NodeId to, sim::MsgKind kind, sim::Payload payload,
                uint64_t size_bytes) override {
    (void)size_bytes;
    sends.push_back({to, kind, std::move(payload)});
    return true;
  }

  std::optional<chain::Block> BuildBlock(const Hash256& parent,
                                         uint64_t parent_height,
                                         bool allow_empty,
                                         double* build_cpu) override {
    *build_cpu += 0.001;
    if (pending_supply == 0 && !allow_empty) return std::nullopt;
    chain::Block b;
    b.header.parent = parent;
    b.header.height = parent_height + 1;
    b.header.proposer = id_;
    b.header.timestamp = sim_->Now();
    size_t take = std::min<uint64_t>(pending_supply, 100);
    for (size_t i = 0; i < take; ++i) {
      chain::Transaction tx;
      tx.id = next_tx_id++;
      tx.Seal();
      b.txs.push_back(chain::Share(std::move(tx)));
    }
    pending_supply -= take;
    b.SealTxRoot();
    return b;
  }

  bool CommitBlock(chain::BlockPtr block, double* cpu) override {
    *cpu += 0.0005;
    auto r = chain_.AddBlock(std::move(block));
    return r.attached;
  }

  const chain::ChainStore& chain_store() const override { return chain_; }
  size_t pending_txs() const override { return pending_supply; }
  void RequeueTxs(const std::vector<chain::TxPtr>& txs) override {
    requeued += txs.size();
    pending_supply += txs.size();
  }
  void ChargeBackground(double) override {}

  chain::ChainStore& chain() { return chain_; }

  struct Broadcast {
    sim::MsgKind kind;
    sim::Payload payload;
  };
  struct Sent {
    sim::NodeId to;
    sim::MsgKind kind;
    sim::Payload payload;
  };
  std::vector<Broadcast> broadcasts;
  std::vector<Sent> sends;
  uint64_t pending_supply = 0;
  uint64_t requeued = 0;
  uint64_t next_tx_id = 1;

 private:
  sim::Simulation* sim_;
  sim::NodeId id_;
  size_t n_;
  chain::ChainStore chain_;
};

// --- PoW -----------------------------------------------------------------------

TEST(PowTest, DifficultyScheduleGrowsSuperlinearly) {
  sim::Simulation sim;
  PowConfig cfg;
  cfg.base_block_interval = 2.5;
  cfg.reference_nodes = 8;
  cfg.difficulty_growth = 0.9;

  MockHost h8(&sim, 0, 8), h32(&sim, 0, 32);
  ProofOfWork p8(cfg, 1), p32(cfg, 1);
  p8.Start(&h8);
  p32.Start(&h32);
  // At the reference size, per-node mean = N * base.
  EXPECT_NEAR(p8.PerNodeMeanInterval(), 8 * 2.5, 1e-9);
  // Beyond it, the network interval itself grows: per-node mean exceeds
  // the proportional 32 * 2.5.
  EXPECT_GT(p32.PerNodeMeanInterval(), 32 * 2.5 * 1.5);
}

TEST(PowTest, MinesAndBroadcastsBlocks) {
  sim::Simulation sim;
  MockHost host(&sim, 0, 1);
  host.pending_supply = 50;
  PowConfig cfg;
  cfg.base_block_interval = 1.0;
  cfg.reference_nodes = 1;
  ProofOfWork pow(cfg, 7);
  pow.Start(&host);
  sim.RunUntil(30);
  EXPECT_GT(pow.blocks_mined(), 5u);
  EXPECT_GT(host.chain_store().head_height(), 5u);
  size_t block_broadcasts = 0;
  for (const auto& b : host.broadcasts) {
    if (b.kind == sim::MsgKind::kPowBlock) ++block_broadcasts;
  }
  EXPECT_EQ(block_broadcasts, pow.blocks_mined());
}

TEST(PowTest, RestartsRaceOnReceivedHead) {
  sim::Simulation sim;
  MockHost host(&sim, 0, 2);
  PowConfig cfg;
  cfg.base_block_interval = 1000;  // effectively never mine locally
  cfg.reference_nodes = 2;
  ProofOfWork pow(cfg, 7);
  pow.Start(&host);

  // A peer's block arrives.
  chain::Block b;
  b.header.parent = host.chain_store().head();
  b.header.height = 1;
  b.header.weight = 1000;
  b.SealTxRoot();
  sim::Message msg;
  msg.from = 1;
  msg.to = 0;
  msg.kind = sim::MsgKind::kPowBlock;
  msg.payload = chain::Seal(std::move(b));
  double cpu = 0;
  EXPECT_TRUE(pow.HandleMessage(msg, &cpu));
  EXPECT_EQ(host.chain_store().head_height(), 1u);
  EXPECT_GT(cpu, 0);
}

TEST(PowTest, CorruptedBlockRejected) {
  sim::Simulation sim;
  MockHost host(&sim, 0, 2);
  ProofOfWork pow(PowConfig{}, 7);
  pow.Start(&host);
  sim::Message msg;
  msg.from = 1;
  msg.to = 0;
  msg.kind = sim::MsgKind::kPowBlock;
  msg.corrupted = true;
  msg.payload = chain::Seal(chain::Block{});
  double cpu = 0;
  EXPECT_TRUE(pow.HandleMessage(msg, &cpu));
  EXPECT_EQ(host.chain_store().head_height(), 0u);
}

// --- PoA -----------------------------------------------------------------------

TEST(PoaTest, SealsOnlyInOwnSlots) {
  sim::Simulation sim;
  MockHost host(&sim, 2, 4);  // authority 2 of 4
  host.pending_supply = 1000;
  PoaConfig cfg;
  cfg.step_duration = 1.0;
  ProofOfAuthority poa(cfg);
  poa.Start(&host);
  sim.RunUntil(20.5);
  // Steps 2, 6, 10, 14, 18 belong to authority 2 -> 5 blocks.
  EXPECT_EQ(poa.blocks_sealed(), 5u);
}

TEST(PoaTest, CrashStopsSealing) {
  sim::Simulation sim;
  MockHost host(&sim, 0, 2);
  host.pending_supply = 1000;
  PoaConfig cfg;
  cfg.step_duration = 1.0;
  ProofOfAuthority poa(cfg);
  poa.Start(&host);
  sim.RunUntil(6.5);
  uint64_t before = poa.blocks_sealed();
  EXPECT_GT(before, 0u);
  poa.OnCrash();
  sim.RunUntil(20);
  EXPECT_EQ(poa.blocks_sealed(), before);
}

// --- PBFT ----------------------------------------------------------------------

chain::BlockPtr MakeChild(const chain::ChainStore& cs, uint64_t height) {
  chain::Block b;
  b.header.parent = cs.head();
  b.header.height = height;
  b.SealTxRoot();
  return chain::Seal(std::move(b));
}

TEST(PbftTest, QuorumMatchesFabricCertificates) {
  sim::Simulation sim;
  for (auto [n, f, q] : {std::tuple<size_t, size_t, size_t>{4, 1, 3},
                         {7, 2, 5},
                         {12, 3, 9},
                         {16, 5, 11},
                         {32, 10, 22}}) {
    MockHost host(&sim, 0, n);
    Pbft pbft((PbftConfig()));
    pbft.Start(&host);
    EXPECT_EQ(pbft.MaxFaults(), f) << "N=" << n;
    EXPECT_EQ(pbft.Quorum(), q) << "N=" << n;
  }
}

TEST(PbftTest, LeaderProposesWhenBatchReady) {
  sim::Simulation sim;
  MockHost host(&sim, 0, 4);  // node 0 = view-0 leader
  PbftConfig cfg;
  cfg.batch_size = 50;
  Pbft pbft(cfg);
  pbft.Start(&host);
  host.pending_supply = 100;
  pbft.OnNewTransactions();
  bool proposed = false;
  for (const auto& b : host.broadcasts) {
    if (b.kind == sim::MsgKind::kPbftPrePrepare) proposed = true;
  }
  EXPECT_TRUE(proposed);
  EXPECT_GT(pbft.blocks_proposed(), 0u);
}

TEST(PbftTest, SmallBatchWaitsForTimeout) {
  sim::Simulation sim;
  MockHost host(&sim, 0, 4);
  PbftConfig cfg;
  cfg.batch_size = 500;
  cfg.batch_timeout = 1.0;
  Pbft pbft(cfg);
  pbft.Start(&host);
  host.pending_supply = 3;  // far below the batch size
  pbft.OnNewTransactions();
  EXPECT_EQ(pbft.blocks_proposed(), 0u) << "must wait for the batch timeout";
  sim.RunUntil(1.5);  // batch poll fires after the timeout
  EXPECT_GT(pbft.blocks_proposed(), 0u);
}

TEST(PbftTest, ReplicaPreparesThenCommitsThenExecutes) {
  sim::Simulation sim;
  MockHost host(&sim, 1, 4);  // replica (leader is node 0)
  Pbft pbft((PbftConfig()));
  pbft.Start(&host);

  chain::BlockPtr ptr = MakeChild(host.chain_store(), 1);
  Hash256 digest = ptr->HashOf();

  double cpu = 0;
  sim::Message pp;
  pp.from = 0;
  pp.to = 1;
  pp.kind = sim::MsgKind::kPbftPrePrepare;
  pp.payload = Pbft::PrePrepareMsg{0, 1, ptr};
  EXPECT_TRUE(pbft.HandleMessage(pp, &cpu));
  // Replica must have broadcast its PREPARE.
  ASSERT_FALSE(host.broadcasts.empty());
  EXPECT_EQ(host.broadcasts.back().kind, sim::MsgKind::kPbftPrepare);

  // Prepares from peers 2 and 3 complete the 2f+1... N-f quorum of 3
  // (self + leader's implicit + one more).
  for (sim::NodeId from : {2u, 3u}) {
    sim::Message prep;
    prep.from = from;
    prep.to = 1;
    prep.kind = sim::MsgKind::kPbftPrepare;
    prep.payload = Pbft::PhaseMsg{0, 1, digest};
    pbft.HandleMessage(prep, &cpu);
  }
  bool sent_commit = false;
  for (const auto& bc : host.broadcasts) {
    if (bc.kind == sim::MsgKind::kPbftCommit) sent_commit = true;
  }
  EXPECT_TRUE(sent_commit);

  // Commits from two peers (+own) reach quorum -> execute.
  for (sim::NodeId from : {0u, 2u}) {
    sim::Message com;
    com.from = from;
    com.to = 1;
    com.kind = sim::MsgKind::kPbftCommit;
    com.payload = Pbft::PhaseMsg{0, 1, digest};
    pbft.HandleMessage(com, &cpu);
  }
  EXPECT_EQ(host.chain_store().head_height(), 1u);
}

TEST(PbftTest, RejectsPrePrepareFromNonLeader) {
  sim::Simulation sim;
  MockHost host(&sim, 1, 4);
  Pbft pbft((PbftConfig()));
  pbft.Start(&host);
  chain::BlockPtr b = MakeChild(host.chain_store(), 1);
  sim::Message pp;
  pp.from = 2;  // not the view-0 leader
  pp.to = 1;
  pp.kind = sim::MsgKind::kPbftPrePrepare;
  pp.payload = Pbft::PrePrepareMsg{0, 1, b};
  double cpu = 0;
  pbft.HandleMessage(pp, &cpu);
  for (const auto& bc : host.broadcasts) {
    EXPECT_NE(bc.kind, sim::MsgKind::kPbftPrepare)
        << "no PREPARE for a bogus leader";
  }
}

TEST(PbftTest, ViewChangeQuorumElectsNewLeader) {
  sim::Simulation sim;
  MockHost host(&sim, 1, 4);  // node 1 is the leader of view 1
  Pbft pbft((PbftConfig()));
  pbft.Start(&host);
  double cpu = 0;
  for (sim::NodeId from : {0u, 2u, 3u}) {
    sim::Message vc;
    vc.from = from;
    vc.to = 1;
    vc.kind = sim::MsgKind::kPbftViewChange;
    vc.payload = Pbft::ViewChangeMsg{1, 0};
    pbft.HandleMessage(vc, &cpu);
  }
  EXPECT_EQ(pbft.view(), 1u);
  EXPECT_TRUE(pbft.IsLeader());
  bool sent_newview = false;
  for (const auto& bc : host.broadcasts) {
    if (bc.kind == sim::MsgKind::kPbftNewView) sent_newview = true;
  }
  EXPECT_TRUE(sent_newview);
}

TEST(PbftTest, ProgressTimeoutStartsViewChange) {
  sim::Simulation sim;
  MockHost host(&sim, 1, 4);
  PbftConfig cfg;
  cfg.view_timeout = 2.0;
  Pbft pbft(cfg);
  pbft.Start(&host);
  host.pending_supply = 10;  // work exists but the leader is silent
  sim.RunUntil(10);
  EXPECT_GT(pbft.view_changes_started(), 0u);
  bool sent_vc = false;
  for (const auto& bc : host.broadcasts) {
    if (bc.kind == sim::MsgKind::kPbftViewChange) sent_vc = true;
  }
  EXPECT_TRUE(sent_vc);
}

TEST(PbftTest, NoViewChangeWhenIdle) {
  sim::Simulation sim;
  MockHost host(&sim, 1, 4);
  PbftConfig cfg;
  cfg.view_timeout = 2.0;
  Pbft pbft(cfg);
  pbft.Start(&host);
  sim.RunUntil(20);  // no pending work at all
  EXPECT_EQ(pbft.view_changes_started(), 0u);
}

TEST(PbftTest, DiscardedProposalsRequeueTransactions) {
  sim::Simulation sim;
  MockHost host(&sim, 0, 4);
  Pbft pbft((PbftConfig()));
  pbft.Start(&host);
  host.pending_supply = 600;
  pbft.OnNewTransactions();
  ASSERT_GT(pbft.blocks_proposed(), 0u);
  // A view change kills the in-flight proposal; its txs must return.
  double cpu = 0;
  for (sim::NodeId from : {1u, 2u, 3u}) {
    sim::Message vc;
    vc.from = from;
    vc.to = 0;
    vc.kind = sim::MsgKind::kPbftViewChange;
    vc.payload = Pbft::ViewChangeMsg{1, 0};
    pbft.HandleMessage(vc, &cpu);
  }
  EXPECT_GT(host.requeued, 0u);
}

TEST(PbftTest, StatusTriggersFetchWhenBehind) {
  sim::Simulation sim;
  MockHost host(&sim, 1, 4);
  Pbft pbft((PbftConfig()));
  pbft.Start(&host);
  sim::Message st;
  st.from = 2;
  st.to = 1;
  st.kind = sim::MsgKind::kPbftStatus;
  st.payload = Pbft::StatusMsg{5, 0};  // peer is 5 blocks ahead
  double cpu = 0;
  pbft.HandleMessage(st, &cpu);
  ASSERT_FALSE(host.sends.empty());
  EXPECT_EQ(host.sends.back().kind, sim::MsgKind::kPbftFetchReq);
  EXPECT_EQ(host.sends.back().to, 2u);
}

}  // namespace
}  // namespace bb::consensus

// --- Tendermint -----------------------------------------------------------------

#include "consensus/tendermint.h"

namespace bb::consensus {
namespace {

TEST(TendermintTest, ProposerRotatesAcrossRounds) {
  sim::Simulation sim;
  MockHost host(&sim, 0, 8);
  Tendermint tm((TendermintConfig()));
  tm.Start(&host);
  // Over many rounds of one height, every validator gets slots, and
  // consecutive rounds rarely repeat the proposer.
  std::set<sim::NodeId> seen;
  int repeats = 0;
  sim::NodeId prev = tm.ProposerOf(5, 0);
  for (uint64_t r = 1; r < 200; ++r) {
    sim::NodeId p = tm.ProposerOf(5, r);
    seen.insert(p);
    if (p == prev) ++repeats;
    prev = p;
  }
  EXPECT_EQ(seen.size(), 8u);
  EXPECT_LT(repeats, 60);
}

TEST(TendermintTest, StakeWeightsProposerFrequency) {
  sim::Simulation sim;
  MockHost host(&sim, 0, 4);
  TendermintConfig cfg;
  cfg.stake = {10.0, 1.0, 1.0, 1.0};  // validator 0 holds most stake
  Tendermint tm(cfg);
  tm.Start(&host);
  int counts[4] = {0, 0, 0, 0};
  for (uint64_t h = 1; h <= 2000; ++h) counts[tm.ProposerOf(h, 0)]++;
  EXPECT_GT(counts[0], counts[1] * 4);
  EXPECT_GT(counts[0], counts[2] * 4);
  EXPECT_GT(counts[0], counts[3] * 4);
}

TEST(TendermintTest, FullPhaseFlowCommits) {
  sim::Simulation sim;
  MockHost host(&sim, 1, 4);
  Tendermint tm((TendermintConfig()));
  tm.Start(&host);

  // Find the proposer of (height 1, round 0); craft its proposal.
  sim::NodeId proposer = tm.ProposerOf(1, 0);
  ASSERT_NE(proposer, 1u) << "test assumes node 1 is a replica here";
  chain::Block b;
  b.header.parent = host.chain_store().head();
  b.header.height = 1;
  b.header.proposer = proposer;
  b.SealTxRoot();
  auto ptr = chain::Seal(std::move(b));
  Hash256 digest = ptr->HashOf();

  double cpu = 0;
  sim::Message prop;
  prop.from = proposer;
  prop.to = 1;
  prop.kind = sim::MsgKind::kTmProposal;
  prop.payload = Tendermint::ProposalMsg{1, 0, ptr};
  EXPECT_TRUE(tm.HandleMessage(prop, &cpu));
  bool prevoted = false;
  for (const auto& bc : host.broadcasts) {
    if (bc.kind == sim::MsgKind::kTmPrevote) prevoted = true;
  }
  EXPECT_TRUE(prevoted);

  // Prevotes from two peers -> quorum 3 incl. self -> precommit.
  for (sim::NodeId from : {0u, 2u}) {
    sim::Message pv;
    pv.from = from;
    pv.to = 1;
    pv.kind = sim::MsgKind::kTmPrevote;
    pv.payload = Tendermint::VoteMsg{1, 0, digest};
    tm.HandleMessage(pv, &cpu);
  }
  bool precommitted = false;
  for (const auto& bc : host.broadcasts) {
    if (bc.kind == sim::MsgKind::kTmPrecommit) precommitted = true;
  }
  EXPECT_TRUE(precommitted);

  for (sim::NodeId from : {0u, 2u}) {
    sim::Message pc;
    pc.from = from;
    pc.to = 1;
    pc.kind = sim::MsgKind::kTmPrecommit;
    pc.payload = Tendermint::VoteMsg{1, 0, digest};
    tm.HandleMessage(pc, &cpu);
  }
  EXPECT_EQ(host.chain_store().head_height(), 1u);
  EXPECT_EQ(tm.round(), 0u);  // reset for the next height
}

TEST(TendermintTest, RejectsProposalFromWrongProposer) {
  sim::Simulation sim;
  MockHost host(&sim, 1, 4);
  Tendermint tm((TendermintConfig()));
  tm.Start(&host);
  sim::NodeId proposer = tm.ProposerOf(1, 0);
  sim::NodeId wrong = (proposer + 1) % 4;
  chain::Block b;
  b.header.parent = host.chain_store().head();
  b.header.height = 1;
  b.header.proposer = wrong;
  b.SealTxRoot();
  sim::Message prop;
  prop.from = wrong;
  prop.to = 1;
  prop.kind = sim::MsgKind::kTmProposal;
  prop.payload = Tendermint::ProposalMsg{1, 0, chain::Seal(std::move(b))};
  double cpu = 0;
  tm.HandleMessage(prop, &cpu);
  for (const auto& bc : host.broadcasts) {
    EXPECT_NE(bc.kind, sim::MsgKind::kTmPrevote);
  }
}

TEST(TendermintTest, RoundAdvancesOnTimeout) {
  sim::Simulation sim;
  MockHost host(&sim, 1, 4);
  TendermintConfig cfg;
  cfg.round_timeout = 1.0;
  cfg.round_timeout_delta = 0.0;
  Tendermint tm(cfg);
  tm.Start(&host);
  host.pending_supply = 10;  // work exists, proposer silent
  sim.RunUntil(5);
  EXPECT_GT(tm.rounds_failed(), 0u);
  EXPECT_GT(tm.round(), 0u);
}

TEST(TendermintE2E, CommitsOnPlatform) {
  sim::Simulation psim(1);
  platform::Platform p(&psim, platform::ErisDbOptions(), 4);
  workloads::YcsbConfig yc;
  yc.record_count = 200;
  workloads::YcsbWorkload wl(yc);
  ASSERT_TRUE(wl.Setup(&p).ok());
  core::DriverConfig dc;
  dc.num_clients = 2;
  dc.request_rate = 20;
  dc.duration = 40;
  dc.drain = 15;
  core::Driver d(&p, &wl, dc);
  d.Run();
  EXPECT_GT(d.stats().total_committed(), 200u);
  // BFT finality: no forks.
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(p.node(i).chain().orphaned_blocks(), 0u);
  }
}

TEST(TendermintE2E, SurvivesProposerCrashes) {
  sim::Simulation psim(1);
  platform::Platform p(&psim, platform::ErisDbOptions(), 7);  // f = 2
  workloads::YcsbConfig yc;
  yc.record_count = 200;
  workloads::YcsbWorkload wl(yc);
  ASSERT_TRUE(wl.Setup(&p).ok());
  core::DriverConfig dc;
  dc.num_clients = 2;
  dc.request_rate = 20;
  dc.duration = 90;
  dc.drain = 10;
  core::Driver d(&p, &wl, dc);
  psim.At(30, [&] {
    p.network().Crash(5);
    p.network().Crash(6);
  });
  d.Run();
  uint64_t late = 0;
  for (size_t s = 45; s < 90; ++s) {
    late += uint64_t(d.stats().CommittedInSecond(s));
  }
  EXPECT_GT(late, 100u) << "rounds must route past crashed proposers";
}

}  // namespace
}  // namespace bb::consensus

// --- Raft (crash-fault model; the paper's Section 2 contrast) ----------------------

#include "consensus/raft.h"

namespace bb::consensus {
namespace {

TEST(RaftE2E, ElectsLeaderAndCommits) {
  sim::Simulation psim(1);
  platform::Platform p(&psim, platform::CordaOptions(), 5);
  workloads::YcsbConfig yc;
  yc.record_count = 200;
  workloads::YcsbWorkload wl(yc);
  ASSERT_TRUE(wl.Setup(&p).ok());
  core::DriverConfig dc;
  dc.num_clients = 2;
  dc.request_rate = 20;
  dc.duration = 40;
  dc.drain = 15;
  core::Driver d(&p, &wl, dc);
  d.Run();
  EXPECT_GT(d.stats().total_committed(), 300u);
  // Exactly one leader at the end.
  int leaders = 0;
  for (size_t i = 0; i < 5; ++i) {
    auto& raft = dynamic_cast<Raft&>(p.node(i).engine());
    if (raft.role() == Raft::Role::kLeader) ++leaders;
  }
  EXPECT_EQ(leaders, 1);
  // Replicated identically.
  uint64_t h0 = p.node(0).chain().head_height();
  EXPECT_GT(h0, 5u);
  for (size_t i = 1; i < 5; ++i) {
    EXPECT_GE(p.node(i).chain().head_height() + 2, h0);
  }
}

TEST(RaftE2E, LeaderCrashTriggersReElection) {
  sim::Simulation psim(2);
  platform::Platform p(&psim, platform::CordaOptions(), 5);
  workloads::YcsbConfig yc;
  yc.record_count = 200;
  workloads::YcsbWorkload wl(yc);
  ASSERT_TRUE(wl.Setup(&p).ok());
  core::DriverConfig dc;
  dc.num_clients = 2;
  dc.request_rate = 20;
  dc.duration = 100;
  dc.drain = 10;
  core::Driver d(&p, &wl, dc);
  // Find and kill whichever node is leader at t=40.
  psim.At(40, [&p] {
    for (size_t i = 0; i < 5; ++i) {
      auto& raft = dynamic_cast<Raft&>(p.node(i).engine());
      if (raft.role() == Raft::Role::kLeader) {
        p.network().Crash(sim::NodeId(i));
        return;
      }
    }
  });
  d.Run();
  uint64_t late = 0;
  for (size_t s = 55; s < 100; ++s) {
    late += uint64_t(d.stats().CommittedInSecond(s));
  }
  EXPECT_GT(late, 100u) << "a new leader must take over and commit";
}

TEST(RaftE2E, MinorityPartitionCannotCommit) {
  sim::Simulation psim(3);
  platform::Platform p(&psim, platform::CordaOptions(), 5);
  workloads::YcsbConfig yc;
  yc.record_count = 200;
  workloads::YcsbWorkload wl(yc);
  ASSERT_TRUE(wl.Setup(&p).ok());
  core::DriverConfig dc;
  dc.num_clients = 2;
  dc.request_rate = 20;
  dc.duration = 100;
  dc.drain = 20;
  core::Driver d(&p, &wl, dc);
  // Isolate servers 3 and 4 (a minority holding no client connections):
  // the majority side keeps committing; after healing, everyone
  // converges. Note Partition() groups CLIENTS too, so the isolated
  // group must exclude the client-facing servers.
  psim.At(30, [&p, &d] {
    std::vector<sim::NodeId> majority = {0, 1, 2};
    for (size_t c = 0; c < d.num_clients(); ++c) {
      majority.push_back(sim::NodeId(5 + c));
    }
    p.network().Partition(majority);
  });
  psim.At(70, [&p] { p.network().HealPartition(); });
  d.Run();
  uint64_t during = 0;
  for (size_t s = 40; s < 70; ++s) {
    during += uint64_t(d.stats().CommittedInSecond(s));
  }
  EXPECT_GT(during, 50u) << "the majority partition must keep going";
  // Convergence after heal.
  uint64_t h_major = p.node(2).chain().head_height();
  EXPECT_GE(p.node(4).chain().head_height() + 3, h_major);
}

}  // namespace
}  // namespace bb::consensus

// --- Raft white-box ------------------------------------------------------------------

namespace bb::consensus {
namespace {

TEST(RaftTest, FollowerGrantsVoteOncePerTerm) {
  sim::Simulation sim;
  MockHost host(&sim, 0, 5);
  Raft raft((RaftConfig()), 1);
  raft.Start(&host);
  double cpu = 0;
  sim::Message rv;
  rv.from = 1;
  rv.to = 0;
  rv.kind = sim::MsgKind::kRaftRequestVote;
  rv.payload = Raft::RequestVoteMsg{5, 0};
  raft.HandleMessage(rv, &cpu);
  ASSERT_FALSE(host.sends.empty());
  EXPECT_EQ(host.sends.back().kind, sim::MsgKind::kRaftVote);
  size_t sends_before = host.sends.size();
  // A second candidate in the same term gets nothing.
  sim::Message rv2 = rv;
  rv2.from = 2;
  rv2.payload = Raft::RequestVoteMsg{5, 0};
  raft.HandleMessage(rv2, &cpu);
  EXPECT_EQ(host.sends.size(), sends_before);
}

TEST(RaftTest, VoteDeniedToStaleLog) {
  sim::Simulation sim;
  MockHost host(&sim, 0, 5);
  Raft raft((RaftConfig()), 1);
  raft.Start(&host);
  // Give the follower a longer committed log.
  for (uint64_t h = 1; h <= 3; ++h) {
    chain::Block b;
    b.header.parent = host.chain_store().head();
    b.header.height = h;
    b.SealTxRoot();
    double c = 0;
    host.CommitBlock(chain::Seal(std::move(b)), &c);
  }
  double cpu = 0;
  sim::Message rv;
  rv.from = 1;
  rv.to = 0;
  rv.kind = sim::MsgKind::kRaftRequestVote;
  rv.payload = Raft::RequestVoteMsg{4, 1};  // candidate log shorter
  raft.HandleMessage(rv, &cpu);
  for (const auto& snd : host.sends) {
    EXPECT_NE(snd.kind, sim::MsgKind::kRaftVote);
  }
}

TEST(RaftTest, CandidateBecomesLeaderOnMajority) {
  sim::Simulation sim;
  MockHost host(&sim, 0, 5);
  RaftConfig cfg;
  cfg.election_timeout_min = 0.5;
  cfg.election_timeout_max = 0.6;
  Raft raft(cfg, 3);
  raft.Start(&host);
  sim.RunUntil(1.0);  // election fires
  EXPECT_EQ(raft.role(), Raft::Role::kCandidate);
  double cpu = 0;
  for (sim::NodeId from : {1u, 2u}) {
    sim::Message v;
    v.from = from;
    v.to = 0;
    v.kind = sim::MsgKind::kRaftVote;
    v.payload = Raft::VoteGrantedMsg{raft.term()};
    raft.HandleMessage(v, &cpu);
  }
  EXPECT_EQ(raft.role(), Raft::Role::kLeader);
  bool heartbeat = false;
  for (const auto& bc : host.broadcasts) {
    if (bc.kind == sim::MsgKind::kRaftAppend) heartbeat = true;
  }
  EXPECT_TRUE(heartbeat);
}

TEST(RaftTest, HigherTermDemotesLeader) {
  sim::Simulation sim;
  MockHost host(&sim, 0, 3);
  RaftConfig cfg;
  cfg.election_timeout_min = 0.3;
  cfg.election_timeout_max = 0.4;
  Raft raft(cfg, 5);
  raft.Start(&host);
  sim.RunUntil(0.5);
  double cpu = 0;
  sim::Message v;
  v.from = 1;
  v.to = 0;
  v.kind = sim::MsgKind::kRaftVote;
  v.payload = Raft::VoteGrantedMsg{raft.term()};
  raft.HandleMessage(v, &cpu);
  ASSERT_EQ(raft.role(), Raft::Role::kLeader);
  // An AppendEntries from a newer-term leader demotes us.
  sim::Message ae;
  ae.from = 2;
  ae.to = 0;
  ae.kind = sim::MsgKind::kRaftAppend;
  ae.payload = Raft::AppendEntriesMsg{raft.term() + 3, 0, Hash256::Zero(),
                                      nullptr, 0};
  raft.HandleMessage(ae, &cpu);
  EXPECT_EQ(raft.role(), Raft::Role::kFollower);
}

TEST(RaftTest, AppendRejectsInconsistentPrev) {
  sim::Simulation sim;
  MockHost host(&sim, 1, 3);
  Raft raft((RaftConfig()), 7);
  raft.Start(&host);
  chain::Block b;
  b.header.parent = Sha256::Digest("not-our-genesis");
  b.header.height = 1;
  b.SealTxRoot();
  double cpu = 0;
  sim::Message ae;
  ae.from = 0;
  ae.to = 1;
  ae.kind = sim::MsgKind::kRaftAppend;
  ae.payload = Raft::AppendEntriesMsg{
      1, 0, Sha256::Digest("wrong-prev"),
      chain::Seal(std::move(b)), 0};
  raft.HandleMessage(ae, &cpu);
  ASSERT_FALSE(host.sends.empty());
  EXPECT_EQ(host.sends.back().kind, sim::MsgKind::kRaftAppendReply);
  auto reply = host.sends.back().payload.As<Raft::AppendReplyMsg>();
  EXPECT_FALSE(reply.success);
  EXPECT_EQ(host.chain_store().head_height(), 0u);
}

}  // namespace
}  // namespace bb::consensus
