// RunStack: the one builder of a run. bbench, the figure harness
// (bench/common.h) and the tests that drive whole stacks all turn an
// obs::RunSpec into a simulation, platform, workload, driver and fault
// schedule here, in a fixed order:
//
//   sinks -> platform -> workload setup -> driver -> sampler -> faults
//
// The order is part of the contract: events at equal virtual times fire
// in schedule order, so a sampler tick at a fault edge's time fires
// before the edge.

#ifndef BLOCKBENCH_WORKLOADS_RUN_H_
#define BLOCKBENCH_WORKLOADS_RUN_H_

#include <memory>
#include <string>

#include "core/connector.h"
#include "core/driver.h"
#include "obs/auditor.h"
#include "obs/memtrack.h"
#include "obs/recorder.h"
#include "obs/run_spec.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "platform/platform.h"
#include "sim/simulation.h"
#include "util/status.h"

namespace bb::workloads {

/// The observers a run wires in. None is owned; each must outlive the
/// run, and concurrent runs need their own. The sampler gets the
/// standard per-server probes and ticks through duration + drain.
struct RunSinks {
  obs::Tracer* tracer = nullptr;
  obs::FlightRecorder* recorder = nullptr;
  obs::MemTracker* memtracker = nullptr;
  obs::Sampler* sampler = nullptr;
};

class RunStack {
 public:
  /// Resolves spec.platform (`data_dir` holds a /diskkv stack's state
  /// logs) and builds the run. InvalidArgument for a spec it cannot run
  /// (unknown platform or workload, no servers, a crash of a server the
  /// run does not have or before t = 0, a partition healing before it
  /// starts); Internal when the workload's setup fails.
  static Result<std::unique_ptr<RunStack>> Create(
      const obs::RunSpec& spec, const RunSinks& sinks = {},
      const std::string& data_dir = "");
  /// The same over options the caller resolved from spec.platform and
  /// then edited; they must pass PlatformOptions::Validate().
  static Result<std::unique_ptr<RunStack>> Create(
      const obs::RunSpec& spec, platform::PlatformOptions options,
      const RunSinks& sinks = {});

  sim::Simulation& sim() { return *sim_; }
  platform::Platform& platform() { return *platform_; }
  core::Driver& driver() { return *driver_; }

  /// Runs the load and drain window; reports over the measured one.
  core::BenchReport Execute();

  /// The platform's confirmation depth, the spec's heal time, the end of
  /// the drain and the shard count.
  obs::AuditorConfig audit_config() const;

 private:
  explicit RunStack(const obs::RunSpec& spec) : spec_(spec) {}
  Status Init(platform::PlatformOptions options, const RunSinks& sinks);

  obs::RunSpec spec_;
  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<platform::Platform> platform_;
  std::unique_ptr<core::WorkloadConnector> workload_;
  std::unique_ptr<core::Driver> driver_;
};

}  // namespace bb::workloads

#endif  // BLOCKBENCH_WORKLOADS_RUN_H_
