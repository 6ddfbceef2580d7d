// Execution-layer tests: assembler diagnostics, interpreter semantics
// (arithmetic, control flow, storage journaling, gas, memory limits),
// the native runtime, and differential tests proving each Table-1
// contract's EVM build and chaincode build compute identical state.

#include <gtest/gtest.h>

#include <limits>

#include "util/random.h"
#include "vm/assembler.h"
#include "vm/interpreter.h"
#include "vm/native.h"
#include "workloads/contracts.h"

namespace bb::vm {
namespace {

Program MustAssemble(const std::string& src) {
  auto p = Assemble(src);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  return *p;
}

ExecReceipt Exec(const Program& p, const std::string& fn, Args args,
                MapHost* host, VmOptions opts = {}) {
  Interpreter interp(opts);
  TxContext ctx;
  ctx.sender = "tester";
  ctx.function = fn;
  ctx.args = std::move(args);
  return interp.Execute(p, ctx, host);
}

// --- Assembler ----------------------------------------------------------------

TEST(AssemblerTest, EmptyFunctionTable) {
  auto p = Assemble("PUSH 1\nRETURN\n");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->functions.count("main"), 1u);
}

TEST(AssemblerTest, FunctionsAndLabels) {
  auto p = Assemble(R"(
.func f
  PUSH 1
  RETURN
.func g
loop:
  JUMP loop
)");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->functions.at("f"), 0u);
  EXPECT_EQ(p->functions.at("g"), 2u);
  EXPECT_EQ(p->code[2].imm, 2);  // loop points at itself
}

TEST(AssemblerTest, StringInterning) {
  auto p = Assemble("PUSHS \"x\"\nPUSHS \"x\"\nPUSHS \"y\"\nSTOP\n");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->string_pool.size(), 2u);
}

TEST(AssemblerTest, EscapesInStrings) {
  auto p = Assemble("PUSHS \"a\\\"b\\n\"\nRETURN\n");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->string_pool[0], "a\"b\n");
}

TEST(AssemblerTest, CommentsIgnoredOutsideStrings) {
  auto p = Assemble("PUSHS \"has;semi\"  ; trailing comment\nRETURN\n");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->string_pool[0], "has;semi");
}

TEST(AssemblerTest, ErrorsCarryLineNumbers) {
  auto p = Assemble("PUSH 1\nBOGUS\n");
  ASSERT_FALSE(p.ok());
  EXPECT_NE(p.status().message().find("line 2"), std::string::npos);
}

TEST(AssemblerTest, UndefinedLabelRejected) {
  EXPECT_FALSE(Assemble("JUMP nowhere\n").ok());
}

TEST(AssemblerTest, DuplicateLabelRejected) {
  EXPECT_FALSE(Assemble("a:\nPUSH 1\na:\nSTOP\n").ok());
}

TEST(AssemblerTest, SwapDepthValidated) {
  EXPECT_FALSE(Assemble("SWAP 0\n").ok());
}

// --- Interpreter basics -----------------------------------------------------------

TEST(InterpreterTest, Arithmetic) {
  Program p = MustAssemble("PUSH 7\nPUSH 3\nSUB\nPUSH 5\nMUL\nRETURN\n");
  MapHost host;
  auto r = Exec(p, "main", {}, &host);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.return_value.AsInt(), 20);
}

TEST(InterpreterTest, ArithmeticWrapsAtInt64Boundaries) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  struct Case {
    const char* op;
    int64_t a, b, want;
  };
  const Case cases[] = {
      {"ADD", kMax, 1, kMin},  {"ADD", kMin, -1, kMax},
      {"SUB", kMin, 1, kMax},  {"SUB", kMax, -1, kMin},
      {"MUL", kMax, 2, -2},    {"MUL", kMin, -1, kMin},
      {"DIV", kMin, -1, kMin}, {"MOD", kMin, -1, 0},
      {"DIV", 7, -1, -7},      {"MOD", -7, 2, -1},
  };
  MapHost host;
  for (const Case& c : cases) {
    Program p = MustAssemble(std::string("ARG 0\nARG 1\n") + c.op +
                             "\nRETURN\n");
    auto r = Exec(p, "main", {Value(c.a), Value(c.b)}, &host);
    ASSERT_TRUE(r.status.ok()) << c.op << ": " << r.status.ToString();
    EXPECT_EQ(r.return_value.AsInt(), c.want) << c.a << " " << c.op << " " << c.b;
  }
  Program neg = MustAssemble("ARG 0\nNEG\nRETURN\n");
  EXPECT_EQ(Exec(neg, "main", {Value(kMin)}, &host).return_value.AsInt(), kMin);
}

TEST(InterpreterTest, DivisionByZeroReverts) {
  Program p = MustAssemble("PUSH 1\nPUSH 0\nDIV\nRETURN\n");
  MapHost host;
  EXPECT_TRUE(Exec(p, "main", {}, &host).status.IsReverted());
}

TEST(InterpreterTest, ComparisonAndBranching) {
  Program p = MustAssemble(R"(
  ARG 0
  ARG 1
  LT
  JUMPI less
  PUSH 0
  RETURN
less:
  PUSH 1
  RETURN
)");
  MapHost host;
  EXPECT_EQ(Exec(p, "main", {Value(2), Value(5)}, &host).return_value.AsInt(), 1);
  EXPECT_EQ(Exec(p, "main", {Value(5), Value(2)}, &host).return_value.AsInt(), 0);
  EXPECT_EQ(Exec(p, "main", {Value(5), Value(5)}, &host).return_value.AsInt(), 0);
}

TEST(InterpreterTest, MemoryLoadStore) {
  Program p = MustAssemble(R"(
  PUSH 3        ; addr
  PUSH 99       ; value
  MSTORE
  PUSH 3
  MLOAD
  RETURN
)");
  MapHost host;
  auto r = Exec(p, "main", {}, &host);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.return_value.AsInt(), 99);
}

TEST(InterpreterTest, MemoryOutOfBoundsLoadReverts) {
  Program p = MustAssemble("PUSH 5\nMLOAD\nRETURN\n");
  MapHost host;
  EXPECT_TRUE(Exec(p, "main", {}, &host).status.IsReverted());
}

TEST(InterpreterTest, StorageRoundTrip) {
  Program p = MustAssemble(R"(
.func put
  PUSHS "key"
  ARG 0
  SSTORE
  STOP
.func get
  PUSHS "key"
  SLOAD
  RETURN
)");
  MapHost host;
  ASSERT_TRUE(Exec(p, "put", {Value(1234)}, &host).status.ok());
  auto r = Exec(p, "get", {}, &host);
  EXPECT_EQ(r.return_value.AsInt(), 1234);
}

TEST(InterpreterTest, MissingStorageReadsAsZero) {
  Program p = MustAssemble("PUSHS \"nope\"\nSLOAD\nRETURN\n");
  MapHost host;
  EXPECT_EQ(Exec(p, "main", {}, &host).return_value.AsInt(), 0);
}

TEST(InterpreterTest, RevertRollsBackWrites) {
  Program p = MustAssemble(R"(
  PUSHS "key"
  PUSH 42
  SSTORE
  PUSHS "boom"
  REVERT
)");
  MapHost host;
  auto r = Exec(p, "main", {}, &host);
  EXPECT_TRUE(r.status.IsReverted());
  EXPECT_EQ(r.status.message(), "boom");
  EXPECT_TRUE(host.state().empty());
}

TEST(InterpreterTest, WritesVisibleWithinExecution) {
  Program p = MustAssemble(R"(
  PUSHS "k"
  PUSH 7
  SSTORE
  PUSHS "k"
  SLOAD
  RETURN
)");
  MapHost host;
  EXPECT_EQ(Exec(p, "main", {}, &host).return_value.AsInt(), 7);
}

TEST(InterpreterTest, OutOfGasHalts) {
  Program p = MustAssemble("loop:\nJUMP loop\n");
  MapHost host;
  VmOptions opts;
  opts.gas_limit = 1000;
  auto r = Exec(p, "main", {}, &host, opts);
  EXPECT_TRUE(r.status.IsOutOfGas());
  EXPECT_LE(r.gas_used, 1001u);
}

TEST(InterpreterTest, OutOfGasRollsBackWrites) {
  Program p = MustAssemble(R"(
  PUSHS "k"
  PUSH 1
  SSTORE
loop:
  JUMP loop
)");
  MapHost host;
  VmOptions opts;
  opts.gas_limit = 5000;
  EXPECT_TRUE(Exec(p, "main", {}, &host, opts).status.IsOutOfGas());
  EXPECT_TRUE(host.state().empty());
}

TEST(InterpreterTest, MemoryLimitTriggersOom) {
  Program p = MustAssemble(R"(
  PUSH 0
main_loop:
  DUP 0
  PUSH 1
  MSTORE
  PUSH 1
  ADD
  JUMP main_loop
)");
  MapHost host;
  VmOptions opts;
  opts.memory_word_limit = 1000;
  auto r = Exec(p, "main", {}, &host, opts);
  EXPECT_TRUE(r.status.IsOutOfMemory());
}

TEST(InterpreterTest, PeakMemoryAccountsWordOverhead) {
  Program p = MustAssemble(R"(
  PUSH 99
  PUSH 0
  MSTORE    ; oops wrong order? addr=99 value=0
  STOP
)");
  // The program stores value 0 at address 99, growing memory to 100
  // words.
  MapHost host;
  VmOptions opts;
  opts.word_overhead_bytes = 50;
  auto r = Exec(p, "main", {}, &host, opts);
  ASSERT_TRUE(r.status.ok());
  EXPECT_GE(r.peak_memory_bytes, 100u * 50u);
}

TEST(InterpreterTest, StringOps) {
  Program p = MustAssemble(R"(
  PUSHS "abc"
  PUSH 42
  TOSTR
  CONCAT
  RETURN
)");
  MapHost host;
  EXPECT_EQ(Exec(p, "main", {}, &host).return_value.AsStr(), "abc42");
}

TEST(InterpreterTest, CallerAndValue) {
  Program p = MustAssemble("CALLER\nRETURN\n");
  MapHost host;
  EXPECT_EQ(Exec(p, "main", {}, &host).return_value.AsStr(), "tester");
}

TEST(InterpreterTest, SendBuffersTransfers) {
  Program p = MustAssemble(R"(
  PUSHS "alice"
  PUSH 100
  SEND
  STOP
)");
  MapHost host;
  ASSERT_TRUE(Exec(p, "main", {}, &host).status.ok());
  ASSERT_EQ(host.transfers().size(), 1u);
  EXPECT_EQ(host.transfers()[0].first, "alice");
  EXPECT_EQ(host.transfers()[0].second, 100);
}

TEST(InterpreterTest, UnknownFunctionRejected) {
  Program p = MustAssemble("STOP\n");
  MapHost host;
  EXPECT_FALSE(Exec(p, "nonexistent", {}, &host).status.ok());
}

TEST(InterpreterTest, StackUnderflowReverts) {
  Program p = MustAssemble("ADD\nSTOP\n");
  MapHost host;
  EXPECT_TRUE(Exec(p, "main", {}, &host).status.IsReverted());
}

TEST(InterpreterTest, TypeErrorsRevert) {
  Program p = MustAssemble("PUSHS \"a\"\nPUSH 1\nADD\nSTOP\n");
  MapHost host;
  EXPECT_TRUE(Exec(p, "main", {}, &host).status.IsReverted());
}

TEST(InterpreterTest, DispatchOverheadSlowsExecution) {
  // Same program, higher dispatch_overhead => more real time. We only
  // check it still computes correctly.
  Program p = MustAssemble("PUSH 2\nPUSH 3\nMUL\nRETURN\n");
  MapHost host;
  VmOptions slow;
  slow.dispatch_overhead = 100;
  EXPECT_EQ(Exec(p, "main", {}, &host, slow).return_value.AsInt(), 6);
}

// --- CPUHeavy quicksort (the heaviest contract) -------------------------------------

class CpuHeavySortTest : public testing::TestWithParam<int64_t> {};

TEST_P(CpuHeavySortTest, SortsDescendingInput) {
  Program p = MustAssemble(workloads::CpuHeavyCasm());
  MapHost host;
  auto r = Exec(p, "sort", {Value(GetParam())}, &host);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  // Array was n..1; after sorting mem[0] == 1.
  EXPECT_EQ(r.return_value.AsInt(), 1);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CpuHeavySortTest,
                         testing::Values(1, 2, 3, 10, 100, 1000));

TEST(CpuHeavyNativeTest, MatchesVmResult) {
  workloads::RegisterAllChaincodes();
  auto cc = ChaincodeRegistry::Instance().Create(workloads::kCpuHeavyChaincode);
  ASSERT_TRUE(cc.ok());
  NativeRuntime rt;
  MapHost host;
  TxContext ctx;
  ctx.function = "sort";
  ctx.args = {Value(1000)};
  auto r = rt.Execute(cc->get(), ctx, &host);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.return_value.AsInt(), 1);
}

// --- Native runtime ------------------------------------------------------------------

TEST(NativeRuntimeTest, JournalsWritesOnFailure) {
  workloads::RegisterAllChaincodes();
  auto cc = ChaincodeRegistry::Instance().Create(workloads::kSmallbankChaincode);
  ASSERT_TRUE(cc.ok());
  NativeRuntime rt;
  MapHost host;
  // sendPayment from an empty account must revert and write nothing.
  TxContext ctx;
  ctx.function = "sendPayment";
  ctx.args = {Value("a"), Value("b"), Value(10)};
  auto r = rt.Execute(cc->get(), ctx, &host);
  EXPECT_TRUE(r.status.IsReverted());
  EXPECT_TRUE(host.state().empty());
}

TEST(ChaincodeRegistryTest, UnknownNameIsNotFound) {
  EXPECT_FALSE(ChaincodeRegistry::Instance().Create("no_such_cc").ok());
}

// --- Differential: EVM contract vs native chaincode ----------------------------------

struct Call {
  std::string sender;
  std::string function;
  Args args;
  int64_t value = 0;
};

// Runs the same call sequence through both builds and asserts identical
// final state and identical per-call success/failure.
void RunDifferential(const std::string& casm, const std::string& chaincode,
                     const std::vector<Call>& calls) {
  workloads::RegisterAllChaincodes();
  auto program = Assemble(casm);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  auto cc = ChaincodeRegistry::Instance().Create(chaincode);
  ASSERT_TRUE(cc.ok());

  Interpreter interp;
  NativeRuntime rt;
  MapHost evm_host, native_host;

  for (size_t i = 0; i < calls.size(); ++i) {
    TxContext ctx;
    ctx.sender = calls[i].sender;
    ctx.function = calls[i].function;
    ctx.args = calls[i].args;
    ctx.value = calls[i].value;
    auto evm_r = interp.Execute(*program, ctx, &evm_host);
    auto nat_r = rt.Execute(cc->get(), ctx, &native_host);
    EXPECT_EQ(evm_r.status.ok(), nat_r.status.ok())
        << "call " << i << " (" << calls[i].function
        << "): evm=" << evm_r.status.ToString()
        << " native=" << nat_r.status.ToString();
    if (evm_r.status.ok() && nat_r.status.ok() &&
        !evm_r.return_value.is_str()) {
      EXPECT_EQ(evm_r.return_value, nat_r.return_value) << "call " << i;
    }
  }
  EXPECT_EQ(evm_host.state(), native_host.state());
  EXPECT_EQ(evm_host.transfers(), native_host.transfers());
}

TEST(DifferentialTest, KvStore) {
  RunDifferential(workloads::KvStoreCasm(), workloads::kKvStoreChaincode,
                  {
                      {"u", "write", {Value("k1"), Value("hello")}},
                      {"u", "write", {Value("k2"), Value(77)}},
                      {"u", "read", {Value("k1")}},
                      {"u", "readmodifywrite", {Value("k1"), Value("bye")}},
                      {"u", "remove", {Value("k2")}},
                      {"u", "read", {Value("k2")}},
                  });
}

TEST(DifferentialTest, SmallbankAllProcedures) {
  std::vector<Call> calls = {
      {"u", "depositChecking", {Value("a"), Value(100)}},
      {"u", "transactSavings", {Value("a"), Value(50)}},
      {"u", "getBalance", {Value("a")}},
      {"u", "sendPayment", {Value("a"), Value("b"), Value(30)}},
      {"u", "writeCheck", {Value("b"), Value(10)}},
      {"u", "amalgamate", {Value("a"), Value("b")}},
      {"u", "getBalance", {Value("b")}},
      // Failures must match too.
      {"u", "sendPayment", {Value("empty"), Value("b"), Value(1)}},
      {"u", "transactSavings", {Value("empty"), Value(-5)}},
  };
  RunDifferential(workloads::SmallbankCasm(), workloads::kSmallbankChaincode,
                  calls);
}

TEST(DifferentialTest, SmallbankRandomized) {
  Rng rng(1234);
  std::vector<Call> calls;
  const char* fns[] = {"depositChecking", "transactSavings", "sendPayment",
                       "writeCheck", "amalgamate", "getBalance"};
  for (int i = 0; i < 300; ++i) {
    std::string a = "acct" + std::to_string(rng.Uniform(5));
    std::string b = "acct" + std::to_string(rng.Uniform(5));
    int64_t v = int64_t(rng.Range(1, 200));
    const char* fn = fns[rng.Uniform(6)];
    Call c{"u", fn, {}, 0};
    if (std::string(fn) == "sendPayment") {
      c.args = {Value(a), Value(b), Value(v)};
    } else if (std::string(fn) == "amalgamate") {
      c.args = {Value(a), Value(b)};
    } else if (std::string(fn) == "getBalance") {
      c.args = {Value(a)};
    } else {
      c.args = {Value(a), Value(v)};
    }
    calls.push_back(std::move(c));
  }
  RunDifferential(workloads::SmallbankCasm(), workloads::kSmallbankChaincode,
                  calls);
}

TEST(DifferentialTest, EtherId) {
  std::vector<Call> calls = {
      {"alice", "register", {Value("mysite"), Value(100)}},
      {"bob", "register", {Value("mysite"), Value(50)}},  // taken -> revert
      {"alice", "setPrice", {Value("mysite"), Value(200)}},
      {"bob", "setPrice", {Value("mysite"), Value(1)}},  // not owner
      {"alice", "ownerOf", {Value("mysite")}},
  };
  RunDifferential(workloads::EtherIdCasm(), workloads::kEtherIdChaincode,
                  calls);
}

TEST(DifferentialTest, EtherIdBuyFlow) {
  // Preload balances identically through the contract surface: KVStore
  // can't do it, so run the buy flow where both parties registered and
  // funded via writeCheck-like primitives is impossible; instead fund by
  // registering and buying with zero price.
  std::vector<Call> calls = {
      {"alice", "register", {Value("freebie"), Value(0)}},
      {"bob", "buy", {Value("freebie")}},  // price 0: always affordable
      {"bob", "ownerOf", {Value("freebie")}},
      {"alice", "buy", {Value("freebie")}},  // buys back at 0
  };
  RunDifferential(workloads::EtherIdCasm(), workloads::kEtherIdChaincode,
                  calls);
}

TEST(DifferentialTest, Doubler) {
  std::vector<Call> calls;
  Rng rng(77);
  for (int i = 0; i < 50; ++i) {
    calls.push_back({"p" + std::to_string(i % 7), "enter", {},
                     int64_t(rng.Range(10, 500))});
  }
  calls.push_back({"q", "participants", {}});
  RunDifferential(workloads::DoublerCasm(), workloads::kDoublerChaincode,
                  calls);
}

TEST(DifferentialTest, WavesPresale) {
  std::vector<Call> calls = {
      {"alice", "addSale", {Value("s1"), Value(500)}},
      {"bob", "addSale", {Value("s2"), Value(300)}},
      {"alice", "addSale", {Value("s1"), Value(10)}},  // exists -> revert
      {"alice", "transferSale", {Value("s1"), Value("carol")}},
      {"bob", "transferSale", {Value("s1"), Value("dave")}},  // not owner
      {"x", "getSale", {Value("s2")}},
      {"x", "totalSold", {}},
  };
  RunDifferential(workloads::WavesPresaleCasm(),
                  workloads::kWavesPresaleChaincode, calls);
}

TEST(DifferentialTest, DoNothing) {
  RunDifferential(workloads::DoNothingCasm(), workloads::kDoNothingChaincode,
                  {{"u", "nop", {}}});
}

TEST(DifferentialTest, IoHeavy) {
  RunDifferential(workloads::IoHeavyCasm(), workloads::kIoHeavyChaincode,
                  {
                      {"u", "writes", {Value(0), Value(50)}},
                      {"u", "reads", {Value(0), Value(50)}},
                      {"u", "writes", {Value(25), Value(50)}},
                  });
}


// --- Gas regression goldens --------------------------------------------------------
// Gas is part of each contract's observable behaviour (it sets Ethereum's
// block packing and execution-time model); pin the exact values so
// accidental contract or fee-schedule changes are caught.

TEST(GasGoldenTest, ContractGasValuesStable) {
  // Fresh state per call (missing keys read as int 0).
  auto gas_of = [](const std::string& casm, const std::string& fn,
                   Args args, MapHost* host = nullptr) {
    MapHost fresh;
    if (host == nullptr) host = &fresh;
    auto p = Assemble(casm);
    EXPECT_TRUE(p.ok());
    TxContext ctx;
    ctx.sender = "golden";
    ctx.function = fn;
    ctx.args = std::move(args);
    return Interpreter().Execute(*p, ctx, host).gas_used;
  };
  EXPECT_EQ(gas_of(workloads::DoNothingCasm(), "nop", {}), 1u);
  EXPECT_EQ(gas_of(workloads::KvStoreCasm(), "read", {Value("user1")}), 53u);
  EXPECT_EQ(gas_of(workloads::KvStoreCasm(), "write",
                   {Value("user1"), Value(std::string(100, 'v'))}),
            304u);
  EXPECT_EQ(gas_of(workloads::SmallbankCasm(), "getBalance",
                   {Value("acct1")}),
            128u);
  // sendPayment against a funded account (fund first in the same state).
  MapHost bank;
  EXPECT_EQ(gas_of(workloads::SmallbankCasm(), "depositChecking",
                   {Value("acct1"), Value(100)}, &bank),
            268u);
  EXPECT_EQ(gas_of(workloads::SmallbankCasm(), "sendPayment",
                   {Value("acct1"), Value("acct2"), Value(5)}, &bank),
            543u);
  EXPECT_EQ(gas_of(workloads::SmallbankCasm(), "amalgamate",
                   {Value("acct1"), Value("acct2")}),
            804u);
}

TEST(GasGoldenTest, IntrinsicGasAddsUpFront) {
  VmOptions opts;
  opts.gas.tx_intrinsic = 800;
  auto p = Assemble(workloads::DoNothingCasm());
  ASSERT_TRUE(p.ok());
  MapHost host;
  TxContext ctx;
  ctx.function = "nop";
  auto r = Interpreter(opts).Execute(*p, ctx, &host);
  EXPECT_EQ(r.gas_used, 801u);
}

// --- Value ------------------------------------------------------------------------

TEST(ValueTest, SerializeRoundTrip) {
  for (const Value& v :
       {Value(0), Value(-123), Value(INT64_MAX), Value("hello"), Value(""),
        Value("i-weird"), Value("s")}) {
    auto back = Value::Deserialize(v.Serialize());
    ASSERT_TRUE(back.ok());
    EXPECT_TRUE(v == *back);
  }
}

TEST(ValueTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(Value::Deserialize("").ok());
  EXPECT_FALSE(Value::Deserialize("x123").ok());
  EXPECT_FALSE(Value::Deserialize("i12x").ok());
}

TEST(ValueTest, Truthiness) {
  EXPECT_FALSE(Value(0).Truthy());
  EXPECT_TRUE(Value(1).Truthy());
  EXPECT_TRUE(Value(-1).Truthy());
  EXPECT_FALSE(Value("").Truthy());
  EXPECT_TRUE(Value("x").Truthy());
}

}  // namespace
}  // namespace bb::vm
