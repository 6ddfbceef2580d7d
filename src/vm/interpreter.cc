#include "vm/interpreter.h"

// GCC 12 emits spurious -Wmaybe-uninitialized for std::variant moves under
// optimization (GCC PR105593 and friends); every flagged site is a Value
// temporary that is fully initialized.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#include <unordered_map>
#include <vector>

namespace bb::vm {

namespace {

// Buffers storage effects during execution; flushed on success only.
class WriteCache {
 public:
  explicit WriteCache(HostInterface* host) : host_(host) {}

  Status Get(const std::string& key, std::string* value) {
    auto it = cache_.find(key);
    if (it != cache_.end()) {
      if (!it->second.present) return Status::NotFound();
      *value = it->second.value;
      return Status::Ok();
    }
    return host_->GetState(key, value);
  }

  void Put(const std::string& key, std::string value) {
    cache_[key] = {true, std::move(value)};
  }

  void Delete(const std::string& key) { cache_[key] = {false, {}}; }

  bool Exists(const std::string& key) {
    auto it = cache_.find(key);
    if (it != cache_.end()) return it->second.present;
    std::string tmp;
    return host_->GetState(key, &tmp).ok();
  }

  void Transfer(std::string to, int64_t amount) {
    transfers_.emplace_back(std::move(to), amount);
  }

  Status Flush() {
    for (auto& [key, e] : cache_) {
      if (e.present) {
        BB_RETURN_IF_ERROR(host_->PutState(key, e.value));
      } else {
        Status s = host_->DeleteState(key);
        if (!s.ok() && !s.IsNotFound()) return s;
      }
    }
    for (auto& [to, amount] : transfers_) {
      BB_RETURN_IF_ERROR(host_->Transfer(to, amount));
    }
    return Status::Ok();
  }

  size_t num_writes() const { return cache_.size(); }

 private:
  struct Entry {
    bool present;
    std::string value;
  };
  HostInterface* host_;
  std::unordered_map<std::string, Entry> cache_;
  std::vector<std::pair<std::string, int64_t>> transfers_;
};

}  // namespace

ExecReceipt Interpreter::Execute(const Program& program, const TxContext& ctx,
                                 HostInterface* host) {
  ExecReceipt r;
  auto fn = program.functions.find(ctx.function);
  if (fn == program.functions.end()) {
    r.status = Status::InvalidArgument("no such function: " + ctx.function);
    return r;
  }

  std::vector<Value> stack;
  std::vector<Value> memory;
  WriteCache writes(host);
  uint64_t gas = options_.gas.tx_intrinsic;
  uint64_t heap_bytes = 0;   // string payload currently held by stack+memory
  uint64_t peak_words = 0;
  uint64_t peak_heap = 0;
  size_t pc = fn->second;
  // Defeats optimization of the dispatch-overhead spin loop.
  volatile uint32_t spin_sink = 0;

  auto fail = [&](Status s) {
    r.status = std::move(s);
    r.gas_used = gas;
    r.peak_memory_bytes =
        peak_words * options_.word_overhead_bytes + peak_heap;
    return r;
  };

  auto push = [&](Value v) {
    heap_bytes += v.HeapBytes();
    stack.push_back(std::move(v));
  };
  auto pop = [&](Value* out) -> bool {
    if (stack.empty()) return false;
    *out = std::move(stack.back());
    stack.pop_back();
    heap_bytes -= out->HeapBytes();
    return true;
  };

  const GasSchedule& g = options_.gas;

  while (pc < program.code.size()) {
    const Instruction& ins = program.code[pc];
    ++r.ops_executed;
    gas += g.base;
    if (gas > options_.gas_limit) return fail(Status::OutOfGas());
    if (options_.max_ops != 0 && r.ops_executed > options_.max_ops) {
      return fail(Status::Internal("max_ops exceeded (infinite loop?)"));
    }
    if (options_.dispatch_overhead > 0) {
      uint32_t acc = spin_sink;
      for (uint32_t i = 0; i < options_.dispatch_overhead; ++i) {
        acc = acc * 1664525u + 1013904223u;
      }
      spin_sink = acc;
    }

    uint64_t words = stack.size() + memory.size();
    if (words > peak_words) peak_words = words;
    if (heap_bytes > peak_heap) peak_heap = heap_bytes;

    size_t next_pc = pc + 1;
    Value a, b;

    switch (ins.op) {
      case Op::kPushInt:
        push(Value(ins.imm));
        break;
      case Op::kPushStr: {
        if (ins.imm < 0 || size_t(ins.imm) >= program.string_pool.size()) {
          return fail(Status::Corruption("bad string pool index"));
        }
        const std::string& s = program.string_pool[size_t(ins.imm)];
        gas += g.per_str_byte * s.size();
        push(Value(s));
        break;
      }
      case Op::kPop:
        if (!pop(&a)) return fail(Status::Reverted("stack underflow"));
        break;
      case Op::kDup: {
        if (size_t(ins.imm) >= stack.size()) {
          return fail(Status::Reverted("DUP past stack bottom"));
        }
        push(stack[stack.size() - 1 - size_t(ins.imm)]);
        break;
      }
      case Op::kSwap: {
        size_t depth = size_t(ins.imm);
        if (depth >= stack.size()) {
          return fail(Status::Reverted("SWAP past stack bottom"));
        }
        std::swap(stack[stack.size() - 1], stack[stack.size() - 1 - depth]);
        break;
      }

      case Op::kAdd: case Op::kSub: case Op::kMul: case Op::kDiv:
      case Op::kMod: {
        if (!pop(&b) || !pop(&a)) {
          return fail(Status::Reverted("stack underflow"));
        }
        if (!a.is_int() || !b.is_int()) {
          return fail(Status::Reverted("arithmetic on non-int"));
        }
        // Two's-complement wrap-around: add/sub/mul go through uint64_t,
        // and INT64_MIN / -1 (the one quotient that does not fit) wraps to
        // INT64_MIN with remainder 0, instead of overflowing.
        int64_t x = a.AsInt(), y = b.AsInt(), out = 0;
        uint64_t ux = uint64_t(x), uy = uint64_t(y);
        switch (ins.op) {
          case Op::kAdd: out = int64_t(ux + uy); break;
          case Op::kSub: out = int64_t(ux - uy); break;
          case Op::kMul: out = int64_t(ux * uy); break;
          case Op::kDiv:
            if (y == 0) return fail(Status::Reverted("division by zero"));
            out = y == -1 ? int64_t(0 - ux) : x / y;
            break;
          case Op::kMod:
            if (y == 0) return fail(Status::Reverted("mod by zero"));
            out = y == -1 ? 0 : x % y;
            break;
          default: break;
        }
        push(Value(out));
        break;
      }
      case Op::kNeg:
        if (!pop(&a)) return fail(Status::Reverted("stack underflow"));
        if (!a.is_int()) return fail(Status::Reverted("NEG on non-int"));
        push(Value(int64_t(0 - uint64_t(a.AsInt()))));
        break;

      case Op::kLt: case Op::kGt: case Op::kLe: case Op::kGe:
      case Op::kEq: case Op::kNe: {
        if (!pop(&b) || !pop(&a)) {
          return fail(Status::Reverted("stack underflow"));
        }
        bool out = false;
        if (ins.op == Op::kEq) {
          out = a == b;
        } else if (ins.op == Op::kNe) {
          out = !(a == b);
        } else {
          if (a.is_int() != b.is_int()) {
            return fail(Status::Reverted("ordered compare across types"));
          }
          int cmp;
          if (a.is_int()) {
            cmp = a.AsInt() < b.AsInt() ? -1 : (a.AsInt() > b.AsInt() ? 1 : 0);
          } else {
            cmp = a.AsStr().compare(b.AsStr());
            cmp = cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
          }
          switch (ins.op) {
            case Op::kLt: out = cmp < 0; break;
            case Op::kGt: out = cmp > 0; break;
            case Op::kLe: out = cmp <= 0; break;
            case Op::kGe: out = cmp >= 0; break;
            default: break;
          }
        }
        push(Value(int64_t(out ? 1 : 0)));
        break;
      }
      case Op::kNot:
        if (!pop(&a)) return fail(Status::Reverted("stack underflow"));
        push(Value(int64_t(a.Truthy() ? 0 : 1)));
        break;
      case Op::kAnd: case Op::kOr: {
        if (!pop(&b) || !pop(&a)) {
          return fail(Status::Reverted("stack underflow"));
        }
        bool out = ins.op == Op::kAnd ? (a.Truthy() && b.Truthy())
                                      : (a.Truthy() || b.Truthy());
        push(Value(int64_t(out ? 1 : 0)));
        break;
      }

      case Op::kJump:
        next_pc = size_t(ins.imm);
        break;
      case Op::kJumpI:
        if (!pop(&a)) return fail(Status::Reverted("stack underflow"));
        if (a.Truthy()) next_pc = size_t(ins.imm);
        break;

      case Op::kMLoad: {
        if (!pop(&a)) return fail(Status::Reverted("stack underflow"));
        if (!a.is_int() || a.AsInt() < 0 ||
            size_t(a.AsInt()) >= memory.size()) {
          return fail(Status::Reverted("MLOAD out of bounds"));
        }
        push(memory[size_t(a.AsInt())]);
        break;
      }
      case Op::kMStore: {
        // Stack order: ... addr value MSTORE  → b=value, a=addr.
        if (!pop(&b) || !pop(&a)) {
          return fail(Status::Reverted("stack underflow"));
        }
        if (!a.is_int() || a.AsInt() < 0) {
          return fail(Status::Reverted("MSTORE bad address"));
        }
        size_t addr = size_t(a.AsInt());
        if (addr >= memory.size()) {
          uint64_t growth = addr + 1 - memory.size();
          gas += g.memory_word * growth;
          if (gas > options_.gas_limit) return fail(Status::OutOfGas());
          if (options_.memory_word_limit != 0 &&
              addr + 1 + stack.size() > options_.memory_word_limit) {
            return fail(Status::OutOfMemory("VM memory limit"));
          }
          memory.resize(addr + 1);
        }
        heap_bytes -= memory[addr].HeapBytes();
        heap_bytes += b.HeapBytes();
        memory[addr] = std::move(b);
        break;
      }
      case Op::kMSize:
        push(Value(int64_t(memory.size())));
        break;

      case Op::kSLoad: {
        if (!pop(&a)) return fail(Status::Reverted("stack underflow"));
        if (!a.is_str()) return fail(Status::Reverted("SLOAD key not str"));
        gas += g.sload;
        if (gas > options_.gas_limit) return fail(Status::OutOfGas());
        ++r.storage_reads;
        std::string raw;
        Status s = writes.Get(a.AsStr(), &raw);
        if (s.IsNotFound()) {
          push(Value(int64_t{0}));
        } else if (!s.ok()) {
          return fail(s);
        } else {
          auto v = Value::Deserialize(raw);
          if (!v.ok()) return fail(v.status());
          gas += g.per_str_byte * raw.size();
          push(std::move(*v));
        }
        break;
      }
      case Op::kSStore: {
        if (!pop(&b) || !pop(&a)) {
          return fail(Status::Reverted("stack underflow"));
        }
        // Stack order: ... key value SSTORE → b=value, a=key.
        if (!a.is_str()) return fail(Status::Reverted("SSTORE key not str"));
        gas += g.sstore + g.per_str_byte * b.HeapBytes();
        if (gas > options_.gas_limit) return fail(Status::OutOfGas());
        ++r.storage_writes;
        writes.Put(a.AsStr(), b.Serialize());
        break;
      }
      case Op::kSExists: {
        if (!pop(&a)) return fail(Status::Reverted("stack underflow"));
        if (!a.is_str()) return fail(Status::Reverted("SEXISTS key not str"));
        gas += g.sload;
        ++r.storage_reads;
        push(Value(int64_t(writes.Exists(a.AsStr()) ? 1 : 0)));
        break;
      }
      case Op::kSDelete: {
        if (!pop(&a)) return fail(Status::Reverted("stack underflow"));
        if (!a.is_str()) return fail(Status::Reverted("SDELETE key not str"));
        gas += g.sdelete;
        ++r.storage_writes;
        writes.Delete(a.AsStr());
        break;
      }

      case Op::kCaller:
        push(Value(ctx.sender));
        break;
      case Op::kTxValue:
        push(Value(ctx.value));
        break;
      case Op::kArg: {
        if (ins.imm < 0 || size_t(ins.imm) >= ctx.args.size()) {
          return fail(Status::Reverted("ARG index out of range"));
        }
        push(ctx.args[size_t(ins.imm)]);
        break;
      }
      case Op::kNumArgs:
        push(Value(int64_t(ctx.args.size())));
        break;

      case Op::kSend: {
        if (!pop(&b) || !pop(&a)) {
          return fail(Status::Reverted("stack underflow"));
        }
        // Stack order: ... to amount SEND → b=amount, a=to.
        if (!a.is_str() || !b.is_int()) {
          return fail(Status::Reverted("SEND wants (str to, int amount)"));
        }
        gas += g.send;
        if (gas > options_.gas_limit) return fail(Status::OutOfGas());
        writes.Transfer(a.AsStr(), b.AsInt());
        break;
      }

      case Op::kConcat: {
        if (!pop(&b) || !pop(&a)) {
          return fail(Status::Reverted("stack underflow"));
        }
        auto str_of = [](const Value& v) {
          return v.is_str() ? v.AsStr() : std::to_string(v.AsInt());
        };
        std::string out = str_of(a) + str_of(b);
        gas += g.per_str_byte * out.size();
        if (gas > options_.gas_limit) return fail(Status::OutOfGas());
        push(Value(std::move(out)));
        break;
      }
      case Op::kToStr:
        if (!pop(&a)) return fail(Status::Reverted("stack underflow"));
        if (!a.is_int()) return fail(Status::Reverted("TOSTR on non-int"));
        push(Value(std::to_string(a.AsInt())));
        break;
      case Op::kStrLen:
        if (!pop(&a)) return fail(Status::Reverted("stack underflow"));
        if (!a.is_str()) return fail(Status::Reverted("STRLEN on non-str"));
        push(Value(int64_t(a.AsStr().size())));
        break;

      case Op::kReturn: {
        if (!pop(&a)) return fail(Status::Reverted("stack underflow"));
        Status s = writes.Flush();
        if (!s.ok()) return fail(s);
        r.return_value = std::move(a);
        r.gas_used = gas;
        r.peak_memory_bytes =
            peak_words * options_.word_overhead_bytes + peak_heap;
        return r;
      }
      case Op::kRevert: {
        if (!pop(&a)) return fail(Status::Reverted("stack underflow"));
        return fail(Status::Reverted(a.is_str() ? a.AsStr() : "reverted"));
      }
      case Op::kStop: {
        Status s = writes.Flush();
        if (!s.ok()) return fail(s);
        r.return_value = Value(int64_t{0});
        r.gas_used = gas;
        r.peak_memory_bytes =
            peak_words * options_.word_overhead_bytes + peak_heap;
        return r;
      }
    }
    pc = next_pc;
  }
  return fail(Status::Reverted("fell off end of code"));
}

}  // namespace bb::vm
