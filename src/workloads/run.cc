#include "workloads/run.h"

#include <vector>

#include "obs/profiler.h"
#include "platform/forensics.h"
#include "platform/registry.h"
#include "workloads/donothing.h"
#include "workloads/doubler.h"
#include "workloads/etherid.h"
#include "workloads/smallbank.h"
#include "workloads/wavespresale.h"
#include "workloads/ycsb.h"

namespace bb::workloads {

namespace {

/// The workload `spec.workload` names, or null for an unknown name.
std::unique_ptr<core::WorkloadConnector> MakeWorkload(
    const obs::RunSpec& spec) {
  const std::string& name = spec.workload;
  if (name == "ycsb") {
    YcsbConfig yc;
    yc.cross_shard_ratio = spec.cross_shard;
    if (spec.ycsb_records > 0) yc.record_count = spec.ycsb_records;
    return std::make_unique<YcsbWorkload>(yc);
  }
  if (name == "smallbank") {
    SmallbankConfig sc;
    sc.cross_shard_ratio = spec.cross_shard;
    if (spec.smallbank_accounts > 0) sc.num_accounts = spec.smallbank_accounts;
    return std::make_unique<SmallbankWorkload>(sc);
  }
  if (name == "etherid") return std::make_unique<EtherIdWorkload>();
  if (name == "doubler") return std::make_unique<DoublerWorkload>();
  if (name == "wavespresale") return std::make_unique<WavesPresaleWorkload>();
  if (name == "donothing") return std::make_unique<DoNothingWorkload>();
  return nullptr;
}

}  // namespace

Result<std::unique_ptr<RunStack>> RunStack::Create(
    const obs::RunSpec& spec, const RunSinks& sinks,
    const std::string& data_dir) {
  auto options = platform::StackOptionsFromString(spec.platform, data_dir);
  if (!options.ok()) {
    return Status::InvalidArgument("unknown platform: " +
                                   options.status().ToString());
  }
  return Create(spec, *std::move(options), sinks);
}

Result<std::unique_ptr<RunStack>> RunStack::Create(
    const obs::RunSpec& spec, platform::PlatformOptions options,
    const RunSinks& sinks) {
  // Setup is charged to the driver; hashing and storage nest inside.
  BB_PROF_SCOPE("driver.setup");
  auto run = std::unique_ptr<RunStack>(new RunStack(spec));
  BB_RETURN_IF_ERROR(run->Init(std::move(options), sinks));
  return run;
}

Status RunStack::Init(platform::PlatformOptions options,
                      const RunSinks& sinks) {
  BB_RETURN_IF_ERROR(options.Validate());
  if (spec_.servers == 0) return Status::InvalidArgument("no servers");
  workload_ = MakeWorkload(spec_);
  if (workload_ == nullptr) {
    return Status::InvalidArgument("unknown workload: " + spec_.workload);
  }
  if (spec_.partition_start >= 0 &&
      spec_.partition_end < spec_.partition_start) {
    return Status::InvalidArgument("partition ends before it starts");
  }

  sim_ = std::make_unique<sim::Simulation>(spec_.seed);
  if (sinks.tracer != nullptr) sim_->set_tracer(sinks.tracer);
  if (sinks.recorder != nullptr) sim_->set_recorder(sinks.recorder);
  if (sinks.memtracker != nullptr) sim_->set_memtracker(sinks.memtracker);
  // MakePlatform dispatches on options.num_shards: `servers` is the
  // per-shard cluster size, so the sharded total is shards * servers.
  platform_ = platform::MakePlatform(sim_.get(), std::move(options),
                                     size_t(spec_.servers),
                                     spec_.platform_seed);
  for (const auto& [id, t] : spec_.crashes) {
    if (id >= platform_->num_servers() || t < 0) {
      return Status::InvalidArgument("crash of server " + std::to_string(id) +
                                     " outside the run");
    }
  }
  if (Status s = workload_->Setup(platform_.get()); !s.ok()) {
    return Status::Internal("workload setup failed: " + s.ToString());
  }

  core::DriverConfig dc;
  dc.num_clients = size_t(spec_.clients);
  dc.request_rate = spec_.rate;
  dc.max_outstanding = size_t(spec_.max_outstanding);
  dc.duration = spec_.duration;
  dc.drain = spec_.drain;
  dc.warmup = spec_.warmup;
  dc.seed = spec_.driver_seed;
  driver_ = std::make_unique<core::Driver>(platform_.get(), workload_.get(),
                                           dc);
  if (sinks.sampler != nullptr) {
    platform::AttachStandardProbes(sinks.sampler, platform_.get());
    sinks.sampler->Schedule(sim_.get(), spec_.duration + spec_.drain);
  }
  // Faults last, so a sampler tick at a fault edge's time comes first.
  sim::Network& net = platform_->network();
  if (spec_.delay > 0) net.InjectDelay(spec_.delay);
  if (spec_.corrupt > 0) net.SetCorruptProbability(spec_.corrupt);
  for (const auto& [id, t] : spec_.crashes) {
    sim_->At(t, [&net, id = sim::NodeId(id)] { net.Crash(id); });
  }
  if (spec_.partition_start >= 0) {
    std::vector<sim::NodeId> half;
    for (size_t i = 0; i < platform_->num_servers() / 2; ++i) {
      half.push_back(sim::NodeId(i));
    }
    sim_->At(spec_.partition_start, [&net, half] { net.Partition(half); });
    sim_->At(spec_.partition_end, [&net] { net.HealPartition(); });
  }
  return Status::Ok();
}

core::BenchReport RunStack::Execute() {
  driver_->Run();
  return driver_->Report();
}

obs::AuditorConfig RunStack::audit_config() const {
  obs::AuditorConfig ac;
  ac.confirmation_depth = platform_->options().confirmation_depth;
  ac.heal_time = spec_.partition_start >= 0 ? spec_.partition_end : -1;
  ac.end_time = spec_.duration + spec_.drain;
  ac.num_shards = uint32_t(platform_->num_shards());
  return ac;
}

}  // namespace bb::workloads
