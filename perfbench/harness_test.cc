// Checks that the benchmark measures the product: its hand-assembled
// stack sets up exactly as core::RunExperiment does, and its tracing
// probes are pure forwarders. Runs every workload at a small scale.
#include <gtest/gtest.h>

#include "harness.h"

namespace perfbench {
namespace {

// The smallest scale at which every workload's dataset still fits its
// drive (the cached engine's buffers do not scale).
constexpr uint64_t kSmallScale = 4000;
constexpr uint64_t kSeed = 11;

struct SetupOutcome {
  ptsb::ssd::SmartCounters smart;
  ptsb::kv::KvStoreStats stats;
  double load_minutes = 0;
};

SetupOutcome BenchSetup(const ptsb::core::ExperimentConfig& config,
                        Tracer* tracer) {
  BenchStack stack;
  SetupOutcome out;
  EXPECT_TRUE(BuildStack(config, tracer, &stack).ok());
  auto load = LoadAndSettle(config, &stack);
  EXPECT_TRUE(load.ok()) << load.status().ToString();
  out.load_minutes = load.ok() ? *load : -1;
  out.smart = stack.ssd->smart();
  out.stats = stack.store->GetStats();
  EXPECT_TRUE(stack.store->Close().ok());
  return out;
}

void ExpectSameSetup(const SetupOutcome& a, const SetupOutcome& b) {
  EXPECT_EQ(a.load_minutes, b.load_minutes);
  EXPECT_EQ(a.smart.host_bytes_written, b.smart.host_bytes_written);
  EXPECT_EQ(a.smart.host_bytes_read, b.smart.host_bytes_read);
  EXPECT_EQ(a.smart.nand_bytes_written, b.smart.nand_bytes_written);
  EXPECT_EQ(a.smart.blocks_erased, b.smart.blocks_erased);
  EXPECT_EQ(a.smart.pages_trimmed, b.smart.pages_trimmed);
  EXPECT_EQ(a.stats.user_bytes_written, b.stats.user_bytes_written);
  EXPECT_EQ(a.stats.wal_bytes_written, b.stats.wal_bytes_written);
  EXPECT_EQ(a.stats.flush_bytes_written, b.stats.flush_bytes_written);
  EXPECT_EQ(a.stats.compaction_bytes_written,
            b.stats.compaction_bytes_written);
  EXPECT_EQ(a.stats.compaction_bytes_read, b.stats.compaction_bytes_read);
  EXPECT_EQ(a.stats.page_write_bytes, b.stats.page_write_bytes);
  EXPECT_EQ(a.stats.page_read_bytes, b.stats.page_read_bytes);
  EXPECT_EQ(a.stats.checkpoint_bytes_written,
            b.stats.checkpoint_bytes_written);
  EXPECT_EQ(a.stats.buffer_coalesced_bytes, b.stats.buffer_coalesced_bytes);
  EXPECT_EQ(a.stats.flush_batches, b.stats.flush_batches);
  EXPECT_EQ(a.stats.time_background_ns, b.stats.time_background_ns);
}

TEST(PerfbenchTest, SetupMatchesRunExperiment) {
  for (const Workload& w : Workloads()) {
    SCOPED_TRACE(w.name);
    const ptsb::core::ExperimentConfig config =
        ConfigFor(w, kSeed, kSmallScale);
    ptsb::core::ExperimentConfig load_only = config;
    load_only.duration_minutes = 0;
    auto product = ptsb::core::RunExperiment(load_only);
    ASSERT_TRUE(product.ok()) << product.status().ToString();
    ASSERT_FALSE(product->ran_out_of_space);
    SetupOutcome expected;
    expected.smart = product->smart;
    expected.stats = product->engine_stats;
    expected.load_minutes = product->load_minutes;

    ExpectSameSetup(BenchSetup(config, nullptr), expected);
    Tracer tracer;
    ExpectSameSetup(BenchSetup(config, &tracer), expected);
  }
}

TEST(PerfbenchTest, TracedRunIsNeutralAndAccounted) {
  for (const Workload& w : Workloads()) {
    SCOPED_TRACE(w.name);
    const RunReport plain =
        RunWorkload(w, kSeed, {.traced = false, .scale = kSmallScale});
    const RunReport traced =
        RunWorkload(w, kSeed, {.traced = true, .scale = kSmallScale});
    EXPECT_TRUE(plain.correct) << ReportJson(plain);
    EXPECT_TRUE(traced.correct) << ReportJson(traced);
    EXPECT_EQ(plain.failed, 0u);
    EXPECT_EQ(plain.virtual_metrics, traced.virtual_metrics);
    EXPECT_EQ(plain.counts, traced.counts);
    EXPECT_TRUE(plain.trace_counts.empty());
    EXPECT_FALSE(traced.trace_counts.empty());
    // A traced run is correct only if every block and SSD command ran
    // inside the boundary above it, so the layer self times add up to
    // the phase's host time.
    EXPECT_GT(traced.host.at("run.kv.host_s"), 0.0);
    EXPECT_GE(traced.host.at("run.block.self_host_s"), 0.0);
  }
}

TEST(PerfbenchTest, SameSeedRepeatsAndSeedsDiffer) {
  const RunOptions kQuick{.checks = false, .scale = kSmallScale};
  const Workload& w = *FindWorkload("lsm-zipf-rw");
  const RunReport a = RunWorkload(w, kSeed, kQuick);
  const RunReport b = RunWorkload(w, kSeed, kQuick);
  const RunReport c = RunWorkload(w, kSeed + 1, kQuick);
  EXPECT_EQ(a.virtual_metrics, b.virtual_metrics);
  EXPECT_EQ(a.counts, b.counts);
  EXPECT_NE(a.virtual_metrics, c.virtual_metrics);
}

}  // namespace
}  // namespace perfbench
