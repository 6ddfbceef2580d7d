// RunSpec: the one description of a run — platform, workload, load
// shape, seeds and fault schedule. bbench parses its flags into one, each
// figure row is one, workloads::RunStack builds one, and a blackbox dump
// embeds the one that ran, for `bbench --replay=DUMP`. It lives in bb_obs
// so `bbreport blackbox` validates dumps without linking the platform.

#ifndef BLOCKBENCH_OBS_RUN_SPEC_H_
#define BLOCKBENCH_OBS_RUN_SPEC_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/json.h"
#include "util/status.h"

namespace bb::obs {

struct RunSpec {
  std::string platform = "hyperledger";  // registry name or stack spec
  std::string workload = "ycsb";
  uint64_t servers = 8;  // per shard when the spec carries @shards=
  uint64_t clients = 8;
  double cross_shard = 0;
  double rate = 100;
  double duration = 120;
  double warmup = 10;
  double drain = 30;
  uint64_t max_outstanding = 0;
  uint64_t seed = 42;           // Simulation seed
  uint64_t platform_seed = 42;  // MakePlatform seed
  uint64_t driver_seed = 42;    // DriverConfig seed
  /// 0 = the workload's own default preload size.
  uint64_t ycsb_records = 0;
  uint64_t smallbank_accounts = 0;
  std::vector<std::pair<uint64_t, double>> crashes;  // (server, time)
  /// The first half of the servers is cut off from the rest during
  /// [partition_start, partition_end); partition_start < 0 = none.
  double partition_start = -1, partition_end = -1;
  double delay = 0;    // one-way network delay, seconds (0 = none)
  double corrupt = 0;  // per-message corruption probability (0 = none)

  util::Json ToJson() const;
  /// Rejects, naming the field: a missing required key, a wrong type, a
  /// count or seed outside the whole numbers [0, 2^53], zero servers, a
  /// malformed or negative-time crash, a partition ending before it starts.
  static Result<RunSpec> FromJson(const util::Json& run);
};

}  // namespace bb::obs

#endif  // BLOCKBENCH_OBS_RUN_SPEC_H_
