// The benchmark's workloads and its one-client closed loop over the real
// stack: ssd::SsdDevice (FTL, channels, QoS) -> iostat -> LBA trace ->
// partition -> fs::SimpleFs -> an engine opened through kv::OpenStore,
// configured with core's scaled options exactly as core::RunExperiment
// does. A traced run inserts forwarding probes (tracing.h) above the
// SsdDevice, between the filesystem and the partition, and around the
// store.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "block/iostat.h"
#include "block/partition.h"
#include "block/trace.h"
#include "core/experiment.h"
#include "fs/filesystem.h"
#include "kv/kvstore.h"
#include "kv/registry.h"
#include "sim/clock.h"
#include "ssd/ssd_device.h"
#include "tracing.h"
#include "util/status.h"

namespace perfbench {

// BENCHMARK.json gives each workload's rationale.
struct Workload {
  std::string name;
  ptsb::core::ExperimentConfig config;  // scale, engine, op mix, device
  uint64_t update_ops = 0;  // ops in the measured phase
  // Scans issued after the measured phase, for workloads whose op mix
  // has none, so every workload reports scan latency.
  uint64_t probe_scans = 0;
};

const std::vector<Workload>& Workloads();
// Null for an unknown name.
const Workload* FindWorkload(const std::string& name);
// The workload's config with its seed set (and its scale replaced when
// `scale` is nonzero, for small test runs).
ptsb::core::ExperimentConfig ConfigFor(const Workload& w, uint64_t seed,
                                       uint64_t scale = 0);

// The assembled stack. The probes and the store wrapper exist only when
// a tracer is given.
struct BenchStack {
  ptsb::sim::SimClock clock;
  std::unique_ptr<ptsb::ssd::SsdDevice> ssd;
  std::unique_ptr<TimedDevice> ssd_probe;
  std::unique_ptr<ptsb::block::IoStatCollector> iostat;
  std::unique_ptr<ptsb::block::LbaTraceCollector> trace;
  std::unique_ptr<ptsb::block::PartitionView> partition;
  std::unique_ptr<TimedDevice> block_probe;
  std::unique_ptr<ptsb::fs::SimpleFs> fs;
  ptsb::kv::EngineOptions engine_options;
  std::unique_ptr<ptsb::kv::KVStore> store;
};

// Builds the stack, applies the drive's initial state and opens the
// engine; `tracer` may be null.
ptsb::Status BuildStack(const ptsb::core::ExperimentConfig& config,
                        Tracer* tracer, BenchStack* stack);

// Sequential load, flush and settle, as core::RunExperiment's load
// phase. Returns the load phase's paper-equivalent minutes, computed as
// ExperimentResult::load_minutes is.
ptsb::StatusOr<double> LoadAndSettle(
    const ptsb::core::ExperimentConfig& config, BenchStack* stack);

// One run of a workload: set-up, measured phase and, optionally, the
// scan probe and the correctness checks. Metrics are grouped by how they
// may be compared: `virtual_metrics` and `counts` are deterministic for
// a seed and must be identical with and without tracing; `trace_counts`
// exist only in a traced run; `host` holds host-clock times.
struct RunReport {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, double> virtual_metrics;
  std::map<std::string, double> counts;
  std::map<std::string, double> trace_counts;
  std::map<std::string, double> host;
};

struct RunOptions {
  bool traced = false;
  // After the measured phase, run the scan probe, then check every key
  // and check it again after a reopen. Virtual metrics and counts of the
  // measured phase do not depend on it.
  bool checks = true;
  uint64_t scale = 0;  // nonzero replaces the workload's scale
};

RunReport RunWorkload(const Workload& workload, uint64_t seed,
                      const RunOptions& options);

// One JSON object (a single line) holding the whole report.
std::string ReportJson(const RunReport& report);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
