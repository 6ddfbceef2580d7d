#include "workloads/analytics.h"

#include <algorithm>

#include "platform/platform.h"
#include "workloads/contracts.h"

namespace bb::workloads {

using sim::MsgKind;

namespace {
std::string AccountName(uint64_t n) { return "acct" + std::to_string(n); }
}  // namespace

std::string AnalyticsHotAccount() { return AccountName(0); }

Status SetupAnalyticsChain(platform::Platform* platform,
                           const AnalyticsConfig& config) {
  RegisterAllChaincodes();
  bool native = platform->options().stack.exec_engine ==
                platform::ExecEngineKind::kNative;
  if (native) {
    BB_RETURN_IF_ERROR(
        platform->DeployChaincode("analytics", kVersionKvChaincode));
  } else {
    // Accounts start at balance zero on both engines so Q1/Q2 results
    // are comparable across platforms (the chaincode's implicit first
    // version also starts at 0).
    for (uint64_t a = 0; a < config.num_accounts; ++a) {
      BB_RETURN_IF_ERROR(
          platform->PreloadState("__bal", AccountName(a), "0"));
    }
  }
  BB_RETURN_IF_ERROR(platform->FinalizeGenesis());

  Rng rng(config.seed);
  uint64_t next_id = 1;
  for (uint64_t b = 0; b < config.num_blocks; ++b) {
    std::vector<chain::TxPtr> txs;
    for (uint64_t t = 0; t < config.txs_per_block; ++t) {
      uint64_t from = rng.Uniform(config.num_accounts);
      uint64_t to = rng.Bernoulli(config.hot_account_fraction)
                        ? 0
                        : rng.Uniform(config.num_accounts);
      int64_t value = int64_t(rng.Range(1, uint64_t(config.max_transfer)));
      chain::Transaction tx;
      tx.id = next_id++;
      tx.sender = AccountName(from);
      if (native) {
        tx.contract = "analytics";
        tx.function = "sendValue";
        tx.args = {vm::Value(AccountName(from)), vm::Value(AccountName(to)),
                   vm::Value(value)};
      } else {
        tx.contract = AccountName(to);
        tx.value = value;
      }
      tx.Seal();
      txs.push_back(chain::Share(std::move(tx)));
    }
    BB_RETURN_IF_ERROR(platform->PreloadBlock(txs));
  }
  return Status::Ok();
}

AnalyticsClient::AnalyticsClient(sim::NodeId id, sim::Network* network,
                                 sim::NodeId server, AnalyticsConfig config)
    : sim::Node(id, network), server_(server), config_(config) {}

void AnalyticsClient::StartQ1(uint64_t from_block, uint64_t to_block) {
  mode_ = Mode::kQ1;
  cursor_ = from_block + 1;
  end_ = to_block;
  result_ = 0;
  result_valid_ = true;
  done_ = false;
  rpcs_issued_ = 0;
  start_time_ = Now();
  SendNextQ1();
}

void AnalyticsClient::SendNextQ1() {
  if (cursor_ > end_) {
    Finish();
    return;
  }
  ++rpcs_issued_;
  Send(server_, MsgKind::kRpcGetBlock,
       platform::RpcGetBlock{next_req_++, cursor_}, 60);
}

void AnalyticsClient::StartQ2(const std::string& account, uint64_t from_block,
                              uint64_t to_block, bool use_chaincode) {
  account_ = account;
  cursor_ = from_block + 1;
  end_ = to_block;
  result_ = 0;
  result_valid_ = false;
  done_ = false;
  rpcs_issued_ = 0;
  inflight_ = 0;
  start_time_ = Now();
  if (use_chaincode) {
    mode_ = Mode::kQ2Chaincode;
    ++rpcs_issued_;
    Send(server_, MsgKind::kRpcQuery,
         platform::RpcQuery{next_req_++, "analytics", "maxBalanceInRange",
                            {vm::Value(account),
                             vm::Value(int64_t(from_block + 1)),
                             vm::Value(int64_t(to_block))}},
         140);
  } else {
    mode_ = Mode::kQ2Balance;
    PumpQ2();
  }
}

void AnalyticsClient::PumpQ2() {
  while (inflight_ < std::max<size_t>(1, config_.q2_pipeline) &&
         cursor_ <= end_) {
    ++rpcs_issued_;
    ++inflight_;
    Send(server_, MsgKind::kRpcGetBalance,
         platform::RpcGetBalance{next_req_++, account_, cursor_}, 80);
    ++cursor_;
  }
  if (inflight_ == 0 && cursor_ > end_) Finish();
}

void AnalyticsClient::Finish() {
  done_ = true;
  finish_time_ = Now();
  mode_ = Mode::kIdle;
}

double AnalyticsClient::HandleMessage(const sim::Message& msg) {
  if (mode_ == Mode::kQ1 && msg.kind == MsgKind::kRpcBlock) {
    const auto& m = msg.payload.As<platform::RpcBlock>();
    if (m.block != nullptr) {
      for (const auto& tx : m.block->txs) {
        result_ += tx->value;
        // Hyperledger transfers carry the value as sendValue's 3rd arg.
        if (tx->function == "sendValue" && tx->args.size() == 3 &&
            tx->args[2].is_int()) {
          result_ += tx->args[2].AsInt();
        }
      }
    }
    ++cursor_;
    SendNextQ1();
    return 0;
  }
  if (mode_ == Mode::kQ2Balance && msg.kind == MsgKind::kRpcBalance) {
    const auto& m = msg.payload.As<platform::RpcBalance>();
    if (m.ok && (!result_valid_ || m.balance > result_)) {
      result_ = m.balance;
      result_valid_ = true;
    }
    --inflight_;
    PumpQ2();
    return 0;
  }
  if (mode_ == Mode::kQ2Chaincode && msg.kind == MsgKind::kRpcResult) {
    const auto& m = msg.payload.As<platform::RpcResult>();
    if (m.ok && m.value.is_int()) {
      result_ = m.value.AsInt();
      result_valid_ = true;
    }
    Finish();
    return 0;
  }
  return 0;
}

double RunAnalyticsQuery(sim::Simulation* sim, AnalyticsClient* client,
                         double max_wait) {
  double deadline = sim->Now() + max_wait;
  while (!client->done() && sim->Now() < deadline) {
    sim->RunUntil(sim->Now() + 0.05);
  }
  return client->latency();
}

}  // namespace bb::workloads
