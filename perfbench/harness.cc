#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <utility>

#include "btree/btree_store.h"
#include "kv/kv.h"
#include "kv/workload.h"
#include "lsm/lsm_store.h"
#include "ssd/precondition.h"
#include "ssd/profiles.h"
#include "util/random.h"

namespace perfbench {

namespace block = ptsb::block;
namespace core = ptsb::core;
namespace kv = ptsb::kv;
namespace ssd = ptsb::ssd;
using ptsb::Status;

namespace {

std::vector<Workload> MakeWorkloads() {
  std::vector<Workload> out;
  {
    Workload w;
    // The paper-style LSM configuration; its host time is LSM set-up
    // (picking, compaction, CRC).
    w.name = "lsm-zipf-rw";
    core::ExperimentConfig& c = w.config;
    c.engine = "lsm";
    c.scale = 1000;
    c.write_fraction = 0.5;
    c.distribution = kv::Distribution::kZipfian;
    c.zipf_theta = 0.99;
    w.update_ops = 12000;
    w.probe_scans = 100;
    out.push_back(std::move(w));
  }
  {
    Workload w;
    // FTL GC dominates and no LSM code runs: the control for LSM work.
    w.name = "btree-precond-uniform";
    core::ExperimentConfig& c = w.config;
    c.engine = "btree";
    c.scale = 200;
    c.initial_state = ssd::InitialState::kPreconditioned;
    c.write_fraction = 0.9;
    w.update_ops = 36000;
    w.probe_scans = 100;
    out.push_back(std::move(w));
  }
  {
    Workload w;
    // The LSM read side with the cache, MultiGet fan-out, snapshot
    // scans, background lanes and the QoS scheduler.
    w.name = "cached-lsm-read-scan";
    core::ExperimentConfig& c = w.config;
    c.engine = "cached";
    c.engine_params["inner_engine"] = "lsm";
    c.scale = 4000;
    c.write_fraction = 0.1;
    c.distribution = kv::Distribution::kZipfian;
    c.zipf_theta = 0.99;
    c.scan_fraction = 0.1;
    c.scan_count = 100;
    c.scan_readahead = 4;
    c.read_batch_size = 8;
    c.read_queue_depth = 4;
    c.channels = 4;
    c.background_io = true;
    c.compaction_parallelism = 4;
    c.background_slice_us = 200;
    // The cached engine's buffers do not scale with the dataset. A 4 MiB
    // read cache keeps the dataset at 12x the cache, as at scale 2000
    // with the 8 MiB default; a 64 KiB write buffer flushes about a
    // hundred times in the measured phase, so the inner LSM's background
    // lanes and the QoS scheduler run.
    c.cache_bytes = 4 << 20;
    c.write_buffer_bytes = 64 << 10;
    w.update_ops = 8000;
    out.push_back(std::move(w));
  }
  for (Workload& w : out) w.config.name = w.name;
  return out;
}

kv::WorkloadSpec SpecFor(const core::ExperimentConfig& config) {
  kv::WorkloadSpec spec;
  spec.num_keys = config.NumKeys();
  spec.key_bytes = config.key_bytes;
  spec.value_bytes = config.value_bytes;
  spec.write_fraction = config.write_fraction;
  spec.delete_fraction = config.delete_fraction;
  spec.scan_fraction = config.scan_fraction;
  spec.batch_size = std::max<size_t>(1, config.batch_size);
  spec.read_batch_size = std::max<size_t>(1, config.read_batch_size);
  spec.scan_count = config.scan_count;
  spec.scan_snapshot = config.scan_while_writing;
  spec.scan_readahead = std::max(1, config.scan_readahead);
  spec.distribution = config.distribution;
  spec.zipf_theta = config.zipf_theta;
  spec.seed = config.seed;
  return spec;
}

// The value seed the load phase writes for key `id`.
uint64_t LoadSeed(uint64_t id) { return ptsb::SplitMix64(id ^ 777); }

using SteadyClock = std::chrono::steady_clock;

double SecondsSince(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Percentile of virtual-nanosecond samples, in microseconds, by the
// mid-quantile of discrete data (Ma, Genton and Parzen 2011). The
// virtual clock gives each code path one exact cost, so latencies fall
// on a few plateaus and a plain order statistic reads the plateau's
// value whatever the mix; the mid-quantile interpolates between
// distinct values at their mid-cumulative shares, so it moves when the
// share of fast and slow paths moves. Records an error unless at least
// ten samples lie beyond `p`.
double PercentileUs(std::vector<int64_t> samples, double p,
                    const std::string& name, RunReport* report) {
  const double n = static_cast<double>(samples.size());
  if (samples.empty() || (1 - p / 100) * n < 10) {
    report->errors.push_back(name + ": too few samples (" +
                             std::to_string(samples.size()) + ")");
    return 0;
  }
  std::sort(samples.begin(), samples.end());
  const double target = p / 100 * n;  // in samples
  double prev_value = 0;
  double prev_mid = 0;
  size_t i = 0;
  while (i < samples.size()) {
    size_t j = i;
    while (j < samples.size() && samples[j] == samples[i]) j++;
    const double value = static_cast<double>(samples[i]) / 1000.0;
    const double mid = static_cast<double>(i + j) / 2;  // mid-cumulative
    if (mid >= target) {
      if (i == 0) return value;
      return prev_value +
             (target - prev_mid) / (mid - prev_mid) * (value - prev_value);
    }
    prev_value = value;
    prev_mid = mid;
    i = j;
  }
  return prev_value;
}

double MeanUs(const std::vector<int64_t>& samples) {
  double sum = 0;
  for (int64_t x : samples) sum += static_cast<double>(x);
  return samples.empty() ? 0 : sum / static_cast<double>(samples.size()) /
                                   1000.0;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// Counters the measured phase is judged by, read at its start and end.
struct Counters {
  int64_t virtual_ns = 0;
  block::IoCounters io;
  ssd::SmartCounters smart;
  ssd::FlashTranslationLayer::Stats ftl;
  std::vector<ssd::SsdDevice::ChannelStats> channels;
  kv::KvStoreStats engine;
};

Counters ReadCounters(BenchStack* stack) {
  Counters c;
  c.virtual_ns = stack->clock.NowNanos();
  c.io = stack->iostat->counters();
  c.smart = stack->ssd->smart();
  c.ftl = stack->ssd->ftl().GetStats();
  c.channels = stack->ssd->channel_stats();
  c.engine = stack->store->GetStats();
  return c;
}

// The client loop's own view of the measured phase.
struct ClientTally {
  uint64_t entries = 0;  // logical entries, as core::RunExperiment counts
  uint64_t puts = 0;
  uint64_t gets = 0;  // keys looked up, by Get or MultiGet
  uint64_t multigets = 0;
  uint64_t scans = 0;
  uint64_t scan_entries = 0;
  std::vector<int64_t> put_ns, get_ns, scan_ns;
};

// Checks a point-read result against the last value written to `id`.
Status CheckRead(const Status& s, std::string_view value, uint64_t id,
                 const std::vector<uint64_t>& shadow) {
  if (!s.ok()) return s;
  if (kv::ValueSeed(value) != shadow[id]) {
    return Status::Corruption("key " + std::to_string(id) +
                              ": stale or wrong value");
  }
  return Status::OK();
}

// One scan of up to spec.scan_count entries from key `start`: the keys
// must be consecutive (every key exists) and carry their last values.
Status ScanOnce(kv::KVStore* store, const kv::WorkloadSpec& spec,
                uint64_t start, const std::vector<uint64_t>& shadow,
                uint64_t* entries) {
  std::shared_ptr<const kv::Snapshot> snap;
  std::unique_ptr<kv::KVStore::Iterator> it;
  if (spec.scan_snapshot || spec.scan_readahead > 1) {
    auto got = store->GetSnapshot();
    if (!got.ok()) return got.status();
    snap = *std::move(got);
    kv::ReadOptions opts;
    opts.snapshot = snap.get();
    opts.readahead = spec.scan_readahead;
    it = store->NewIterator(opts);
  } else {
    it = store->NewIterator();
  }
  const uint64_t expect =
      std::min<uint64_t>(spec.scan_count, spec.num_keys - start);
  uint64_t seen = 0;
  Status result;
  for (it->Seek(kv::MakeKey(start, spec.key_bytes));
       it->Valid() && seen < spec.scan_count; it->Next()) {
    uint64_t id = 0;
    if (!kv::ParseKey(it->key(), &id) || id != start + seen ||
        kv::ValueSeed(it->value()) != shadow[id]) {
      result = Status::Corruption("scan from " + std::to_string(start) +
                                  ": wrong entry " + std::to_string(seen));
      break;
    }
    seen++;
  }
  if (result.ok()) result = it->status();
  if (result.ok() && seen != expect) {
    result = Status::Corruption("scan from " + std::to_string(start) +
                                ": " + std::to_string(seen) + " of " +
                                std::to_string(expect) + " entries");
  }
  *entries += seen;
  return result;
}

// The measured phase: a fixed number of ops from the workload generator,
// one at a time. Wrong results and failed calls count as failures.
void RunMixedPhase(const Workload& w, const kv::WorkloadSpec& spec,
                   BenchStack* stack, std::vector<uint64_t>* shadow,
                   ClientTally* tally, RunReport* report) {
  kv::KVStore* store = stack->store.get();
  kv::WorkloadGenerator gen(spec);
  std::string value;
  std::vector<uint64_t> ids;
  std::vector<std::string> keys;
  std::vector<std::string_view> views;
  std::vector<std::string> values;
  auto fail = [&](const Status& s) {
    report->failed++;
    if (report->errors.size() < 10) report->errors.push_back(s.ToString());
  };
  for (uint64_t i = 0; i < w.update_ops; i++) {
    const kv::Op op = gen.Next();
    const int64_t start_ns = stack->clock.NowNanos();
    report->attempted++;
    switch (op.type) {
      case kv::Op::Type::kPut: {
        const Status s = store->Put(gen.KeyFor(op.key_id),
                                    gen.ValueFor(op.value_seed));
        tally->put_ns.push_back(stack->clock.NowNanos() - start_ns);
        tally->puts++;
        tally->entries++;
        if (s.ok()) {
          (*shadow)[op.key_id] = op.value_seed;
        } else {
          fail(s);
        }
        break;
      }
      case kv::Op::Type::kGet: {
        if (spec.read_batch_size > 1) {
          ids.assign(1, op.key_id);
          while (ids.size() < spec.read_batch_size) {
            ids.push_back(gen.NextKeyId());
          }
          keys.clear();
          for (uint64_t id : ids) keys.push_back(gen.KeyFor(id));
          views.assign(keys.begin(), keys.end());
          const std::vector<Status> statuses = store->MultiGet(views, &values);
          tally->get_ns.push_back(stack->clock.NowNanos() - start_ns);
          tally->multigets++;
          tally->gets += ids.size();
          tally->entries += ids.size();
          for (size_t k = 0; k < ids.size(); k++) {
            const Status s = CheckRead(statuses[k], values[k], ids[k], *shadow);
            if (!s.ok()) {
              fail(s);
              break;
            }
          }
        } else {
          const Status got = store->Get(gen.KeyFor(op.key_id), &value);
          tally->get_ns.push_back(stack->clock.NowNanos() - start_ns);
          tally->gets++;
          tally->entries++;
          const Status s = CheckRead(got, value, op.key_id, *shadow);
          if (!s.ok()) fail(s);
        }
        break;
      }
      case kv::Op::Type::kScan: {
        const Status s =
            ScanOnce(store, spec, op.key_id, *shadow, &tally->scan_entries);
        tally->scan_ns.push_back(stack->clock.NowNanos() - start_ns);
        tally->scans++;
        tally->entries++;
        if (!s.ok()) fail(s);
        break;
      }
      case kv::Op::Type::kBatchPut:
      case kv::Op::Type::kDelete:
        fail(Status::NotSupported("batched puts and deletes are not in any "
                                  "benchmark workload"));
        break;
    }
  }
}

// Reads every key and compares it with the value last written to it.
void VerifyAll(kv::KVStore* store, const kv::WorkloadSpec& spec,
               const std::vector<uint64_t>& shadow, const char* when,
               RunReport* report) {
  std::string value;
  for (uint64_t id = 0; id < spec.num_keys; id++) {
    report->attempted++;
    const Status s = store->Get(kv::MakeKey(id, spec.key_bytes), &value);
    if (s.ok() && value == kv::MakeValue(shadow[id], spec.value_bytes)) {
      continue;
    }
    report->failed++;
    if (report->errors.size() < 10) {
      report->errors.push_back(std::string(when) + ": key " +
                               std::to_string(id) + ": " +
                               (s.ok() ? "wrong value" : s.ToString()));
    }
  }
}

void AddLayerTimes(const std::string& phase, double phase_s,
                   const LayerTotals& t, RunReport* report) {
  const double kv_s = static_cast<double>(t.kv_ns) / 1e9;
  const double block_s = static_cast<double>(t.block_ns) / 1e9;
  const double ssd_s = static_cast<double>(t.ssd_ns) / 1e9;
  auto& h = report->host;
  h[phase + ".core.host_s"] = phase_s - kv_s;
  h[phase + ".kv.host_s"] = kv_s;
  h[phase + ".engine.self_host_s"] = kv_s - block_s;
  h[phase + ".block.host_s"] = block_s;
  h[phase + ".block.self_host_s"] = block_s - ssd_s;
  h[phase + ".ssd.host_s"] = ssd_s;
  if (t.block_outside_kv_ns != 0 || t.ssd_outside_block_ns != 0) {
    report->errors.push_back(phase +
                             ": device time outside the traced boundaries");
  }
}

// Fills the metrics of the measured phase from the counter deltas.
void AddPhaseMetrics(const core::ExperimentConfig& config,
                     const Counters& c0, const Counters& c1,
                     BenchStack* stack, ClientTally* tally,
                     RunReport* report) {
  auto& v = report->virtual_metrics;
  auto& n = report->counts;
  const kv::KvStoreStats& e0 = c0.engine;
  const kv::KvStoreStats& e1 = c1.engine;
  const double run_s = static_cast<double>(c1.virtual_ns - c0.virtual_ns) / 1e9;
  // Virtual time spent in a mechanism, as a share of the phase's.
  const auto share = [&](int64_t ns) {
    return Ratio(static_cast<double>(ns) / 1e9, run_s);
  };
  const auto d = [](uint64_t a, uint64_t b) {
    return static_cast<double>(b - a);
  };

  v["core.run_virtual_s"] = run_s;
  v["kops"] = Ratio(static_cast<double>(tally->entries), run_s) / 1000.0;
  v["wa_a"] = Ratio(d(c0.io.write_bytes, c1.io.write_bytes),
                    d(e0.user_bytes_written, e1.user_bytes_written));
  v["wa_d"] =
      Ratio(d(c0.smart.nand_bytes_written, c1.smart.nand_bytes_written),
            d(c0.smart.host_bytes_written, c1.smart.host_bytes_written));
  v["space_amp"] = Ratio(static_cast<double>(stack->store->DiskBytesUsed()),
                         static_cast<double>(config.DatasetBytes()));
  v["put_p50_us"] = PercentileUs(tally->put_ns, 50, "put", report);
  v["put_mean_us"] = MeanUs(tally->put_ns);
  v["get_p50_us"] = PercentileUs(tally->get_ns, 50, "get", report);
  std::vector<int64_t> all = tally->put_ns;
  all.insert(all.end(), tally->get_ns.begin(), tally->get_ns.end());
  all.insert(all.end(), tally->scan_ns.begin(), tally->scan_ns.end());
  v["op_p99_us"] = PercentileUs(std::move(all), 99, "op", report);

  n["kv.puts"] = static_cast<double>(tally->puts);
  n["kv.gets"] = static_cast<double>(tally->gets);
  n["kv.multigets"] = static_cast<double>(tally->multigets);
  n["kv.scans"] = static_cast<double>(tally->scans);
  n["kv.scan_entries"] = static_cast<double>(tally->scan_entries);
  n["kv.write_groups"] = d(e0.write_groups, e1.write_groups);
  n["kv.wal_records"] = d(e0.wal_records, e1.wal_records);
  v["kv.background_share"] =
      share(e1.time_background_ns - e0.time_background_ns);

  n["lsm.wal_bytes"] = d(e0.wal_bytes_written, e1.wal_bytes_written);
  n["lsm.flush_bytes"] = d(e0.flush_bytes_written, e1.flush_bytes_written);
  n["lsm.compaction_read_bytes"] =
      d(e0.compaction_bytes_read, e1.compaction_bytes_read);
  n["lsm.compaction_write_bytes"] =
      d(e0.compaction_bytes_written, e1.compaction_bytes_written);
  n["lsm.stalls"] = d(e0.stall_count, e1.stall_count);
  const double negatives = d(e0.bloom_negatives, e1.bloom_negatives);
  const double false_positives =
      d(e0.bloom_false_positives, e1.bloom_false_positives);
  n["lsm.bloom_negatives"] = negatives;
  n["lsm.bloom_false_positives"] = false_positives;
  n["lsm.bloom_useful_ratio"] =
      Ratio(negatives, negatives + false_positives);
  v["lsm.flush_share"] = share(e1.time_flush_ns - e0.time_flush_ns);
  v["lsm.compaction_share"] =
      share(e1.time_compaction_ns - e0.time_compaction_ns);
  v["lsm.wal_share"] = share(e1.time_wal_ns - e0.time_wal_ns);
  v["lsm.read_path_share"] =
      share(e1.time_read_path_ns - e0.time_read_path_ns);

  n["btree.page_write_bytes"] = d(e0.page_write_bytes, e1.page_write_bytes);
  n["btree.page_read_bytes"] = d(e0.page_read_bytes, e1.page_read_bytes);
  n["btree.checkpoint_bytes"] =
      d(e0.checkpoint_bytes_written, e1.checkpoint_bytes_written);
  v["btree.writeback_share"] =
      share(e1.time_writeback_ns - e0.time_writeback_ns);
  v["btree.checkpoint_share"] =
      share(e1.time_checkpoint_ns - e0.time_checkpoint_ns);

  const double hits = d(e0.cache_hits, e1.cache_hits);
  const double misses = d(e0.cache_misses, e1.cache_misses);
  n["cached.hits"] = hits;
  n["cached.misses"] = misses;
  n["cached.hit_ratio"] = Ratio(hits, hits + misses);
  n["cached.coalesced_bytes"] =
      d(e0.buffer_coalesced_bytes, e1.buffer_coalesced_bytes);
  n["cached.flush_batches"] = d(e0.flush_batches, e1.flush_batches);

  const ptsb::fs::FsStats fs = stack->fs->GetStats();
  n["fs.used_bytes"] = static_cast<double>(fs.used_bytes);
  n["fs.free_extents"] = static_cast<double>(fs.free_extents);

  n["block.read_cmds"] = d(c0.io.read_ops, c1.io.read_ops);
  n["block.read_bytes"] = d(c0.io.read_bytes, c1.io.read_bytes);
  n["block.write_cmds"] = d(c0.io.write_ops, c1.io.write_ops);
  n["block.write_bytes"] = d(c0.io.write_bytes, c1.io.write_bytes);
  n["block.trim_cmds"] = d(c0.io.trim_ops, c1.io.trim_ops);
  n["block.flushes"] = d(c0.io.flushes, c1.io.flushes);

  const double relocated =
      d(c0.ftl.gc_pages_relocated, c1.ftl.gc_pages_relocated);
  n["ssd.host_write_bytes"] =
      d(c0.smart.host_bytes_written, c1.smart.host_bytes_written);
  n["ssd.nand_write_bytes"] =
      d(c0.smart.nand_bytes_written, c1.smart.nand_bytes_written);
  n["ssd.gc_pages_relocated"] = relocated;
  n["ssd.blocks_erased"] = d(c0.smart.blocks_erased, c1.smart.blocks_erased);
  n["ssd.gc_ratio"] =
      Ratio(relocated, d(c0.ftl.host_pages_written, c1.ftl.host_pages_written));
  using ptsb::sim::IoClass;
  constexpr size_t kRead = static_cast<size_t>(IoClass::kForegroundRead);
  constexpr size_t kWrite = static_cast<size_t>(IoClass::kForegroundWrite);
  constexpr size_t kBg = static_cast<size_t>(IoClass::kBackground);
  int64_t fg_busy = 0, bg_busy = 0, fg_wait = 0, bg_wait = 0;
  int64_t busy_max = 0;
  int64_t busy_min = std::numeric_limits<int64_t>::max();
  uint64_t preemptions = 0;
  for (size_t ch = 0; ch < c1.channels.size(); ch++) {
    const auto& a = c0.channels[ch];
    const auto& b = c1.channels[ch];
    fg_busy += b.class_busy_ns[kRead] - a.class_busy_ns[kRead] +
               b.class_busy_ns[kWrite] - a.class_busy_ns[kWrite];
    bg_busy += b.class_busy_ns[kBg] - a.class_busy_ns[kBg];
    fg_wait += b.class_wait_ns[kRead] - a.class_wait_ns[kRead] +
               b.class_wait_ns[kWrite] - a.class_wait_ns[kWrite];
    bg_wait += b.class_wait_ns[kBg] - a.class_wait_ns[kBg];
    busy_max = std::max(busy_max, b.busy_ns - a.busy_ns);
    busy_min = std::min(busy_min, b.busy_ns - a.busy_ns);
    preemptions += b.preemptions - a.preemptions;
  }
  v["ssd.fg_busy_share"] = share(fg_busy);
  v["ssd.bg_busy_share"] = share(bg_busy);
  v["ssd.fg_wait_share"] = share(fg_wait);
  v["ssd.bg_wait_share"] = share(bg_wait);
  v["ssd.channel_busy_max"] = share(busy_max);
  v["ssd.channel_busy_min"] = share(busy_min);
  n["ssd.preemptions"] = static_cast<double>(preemptions);
}

// Per-cause block command ratios, from the traced run's block probe.
void AddTraceCounts(const LayerTotals& t, const ClientTally& tally,
                    RunReport* report) {
  auto& n = report->trace_counts;
  const auto at = [](const uint64_t* by_cause, Cause c) {
    return static_cast<double>(by_cause[static_cast<int>(c)]);
  };
  n["block.reads_per_get"] =
      Ratio(at(t.block_reads, Cause::kGet), static_cast<double>(tally.gets));
  n["block.reads_per_scan"] =
      Ratio(at(t.block_reads, Cause::kScan), static_cast<double>(tally.scans));
  n["block.writes_per_put"] =
      Ratio(at(t.block_writes, Cause::kPut), static_cast<double>(tally.puts));
  double reads = 0, writes = 0;
  for (int c = 0; c < kNumCauses; c++) {
    reads += static_cast<double>(t.block_reads[c]);
    writes += static_cast<double>(t.block_writes[c]);
  }
  // The block probe sees exactly the commands iostat counts.
  if (reads != report->counts["block.read_cmds"] ||
      writes != report->counts["block.write_cmds"]) {
    report->errors.push_back("block probe and iostat disagree on commands");
  }
}

void AppendJsonObject(const std::map<std::string, double>& m,
                      std::string* out) {
  *out += "{";
  bool first = true;
  char buf[64];
  for (const auto& [name, value] : m) {
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    *out += (first ? "\"" : ", \"") + name + "\": " + buf;
    first = false;
  }
  *out += "}";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' || c == '\t') ? ' ' : c;
  }
  return out;
}

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = MakeWorkloads();
  return workloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

core::ExperimentConfig ConfigFor(const Workload& w, uint64_t seed,
                                 uint64_t scale) {
  core::ExperimentConfig config = w.config;
  config.seed = seed;
  if (scale != 0) config.scale = scale;
  return config;
}

Status BuildStack(const core::ExperimentConfig& config, Tracer* tracer,
                  BenchStack* stack) {
  if (!config.class_weights.empty() || config.num_threads > 1) {
    return Status::InvalidArgument(
        "class weights and worker threads are not benchmark knobs");
  }
  auto ssd_config =
      ssd::MakeProfile(config.profile, config.device_bytes, config.scale);
  ssd_config.channels = std::max(1, config.channels);
  ssd_config.background_slice_ns = config.background_slice_us * 1000;
  ssd_config.background_rate_mbps = config.background_rate_mbps;
  stack->ssd = std::make_unique<ssd::SsdDevice>(ssd_config, &stack->clock);
  block::BlockDevice* device = stack->ssd.get();
  if (tracer != nullptr) {
    stack->ssd_probe = std::make_unique<TimedDevice>(
        device, TimedDevice::Level::kSsd, tracer);
    device = stack->ssd_probe.get();
  }
  block::BlockDevice* raw_device = device;
  stack->iostat = std::make_unique<block::IoStatCollector>(device);
  device = stack->iostat.get();
  if (config.collect_lba_trace) {
    stack->trace = std::make_unique<block::LbaTraceCollector>(device);
    device = stack->trace.get();
  }
  const auto part_lbas = static_cast<uint64_t>(
      config.partition_frac * static_cast<double>(device->num_lbas()));
  if (part_lbas == 0) return Status::InvalidArgument("empty partition");
  stack->partition =
      std::make_unique<block::PartitionView>(device, 0, part_lbas);

  PTSB_RETURN_IF_ERROR(ssd::TrimAll(raw_device));
  if (config.initial_state == ssd::InitialState::kPreconditioned) {
    PTSB_RETURN_IF_ERROR(
        ssd::Precondition(stack->partition.get(), 2.0, config.seed));
  }

  block::BlockDevice* fs_device = stack->partition.get();
  if (tracer != nullptr) {
    stack->block_probe = std::make_unique<TimedDevice>(
        fs_device, TimedDevice::Level::kBlock, tracer);
    fs_device = stack->block_probe.get();
  }
  stack->fs = std::make_unique<ptsb::fs::SimpleFs>(
      fs_device, core::ScaledFsOptions(config));

  // Engine options as core::RunExperiment assembles them: scaled
  // defaults of the (inner) engine, the experiment-level knobs, then the
  // workload's explicit params.
  kv::EngineOptions& opts = stack->engine_options;
  opts.engine = config.engine;
  opts.fs = stack->fs.get();
  opts.clock = &stack->clock;
  std::string defaults_engine = config.engine;
  if (config.engine == "cached") {
    const auto it = config.engine_params.find("inner_engine");
    defaults_engine = it != config.engine_params.end() ? it->second : "lsm";
  }
  if (defaults_engine == "lsm") {
    opts.params = ptsb::lsm::EncodeEngineParams(core::ScaledLsmOptions(config));
  } else if (defaults_engine == "btree") {
    opts.params =
        ptsb::btree::EncodeEngineParams(core::ScaledBTreeOptions(config));
  } else {
    return Status::InvalidArgument("no benchmark workload runs engine " +
                                   defaults_engine);
  }
  if (config.engine == "cached") {
    if (config.write_buffer_bytes > 0) {
      opts.params["write_buffer_bytes"] =
          std::to_string(config.write_buffer_bytes);
    }
    if (config.cache_bytes > 0) {
      opts.params["read_cache_bytes"] = std::to_string(config.cache_bytes);
    }
    if (!config.cache_policy.empty()) {
      opts.params["read_cache_policy"] = config.cache_policy;
    }
  }
  opts.params["read_queue_depth"] =
      std::to_string(std::max(1, config.read_queue_depth));
  opts.params["background_io"] = config.background_io ? "1" : "0";
  opts.params["compaction_parallelism"] =
      std::to_string(std::max(1, config.compaction_parallelism));
  for (const auto& [key, value] : config.engine_params) {
    opts.params[key] = value;
  }
  PTSB_ASSIGN_OR_RETURN(stack->store, kv::OpenStore(opts));
  if (tracer != nullptr) {
    stack->store =
        std::make_unique<TracedStore>(std::move(stack->store), tracer);
  }
  return Status::OK();
}

ptsb::StatusOr<double> LoadAndSettle(const core::ExperimentConfig& config,
                                     BenchStack* stack) {
  const kv::WorkloadSpec spec = SpecFor(config);
  const double start_min = stack->clock.NowMinutes();
  kv::WorkloadGenerator gen(spec);
  for (uint64_t id = 0; id < spec.num_keys; id++) {
    PTSB_RETURN_IF_ERROR(
        stack->store->Put(gen.KeyFor(id), gen.ValueFor(LoadSeed(id))));
  }
  PTSB_RETURN_IF_ERROR(stack->store->Flush());
  PTSB_RETURN_IF_ERROR(stack->store->SettleBackgroundWork());
  return (stack->clock.NowMinutes() - start_min) *
         static_cast<double>(config.scale);
}

RunReport RunWorkload(const Workload& w, uint64_t seed,
                      const RunOptions& options) {
  RunReport report;
  const core::ExperimentConfig config = ConfigFor(w, seed, options.scale);
  const kv::WorkloadSpec spec = SpecFor(config);
  const bool traced = options.traced;
  Tracer tracer;
  Tracer* tr = traced ? &tracer : nullptr;
  auto& host = report.host;
  auto& virt = report.virtual_metrics;
  auto give_up = [&](const Status& s) {
    report.correct = false;
    report.failed++;
    report.attempted++;
    report.errors.push_back(s.ToString());
    return report;
  };

  // ---- Set-up: stack, drive state, load, flush, settle.
  const auto setup_start = SteadyClock::now();
  BenchStack stack;
  Status s = BuildStack(config, tr, &stack);
  if (!s.ok()) return give_up(s);
  host["setup.prep_host_s"] = SecondsSince(setup_start);
  tracer.TakeTotals();  // drive preparation is not a kv-layer cost
  const auto load_start = SteadyClock::now();
  const int64_t load_start_ns = stack.clock.NowNanos();
  auto load = LoadAndSettle(config, &stack);
  if (!load.ok()) return give_up(load.status());
  const double load_s = SecondsSince(load_start);
  host["setup_s"] = SecondsSince(setup_start);
  virt["core.load_virtual_s"] =
      static_cast<double>(stack.clock.NowNanos() - load_start_ns) / 1e9;
  if (traced) AddLayerTimes("setup", load_s, tracer.TakeTotals(), &report);

  // ---- Measured phase.
  std::vector<uint64_t> shadow(spec.num_keys);
  for (uint64_t id = 0; id < spec.num_keys; id++) shadow[id] = LoadSeed(id);
  ClientTally tally;
  const Counters c0 = ReadCounters(&stack);
  const auto run_start = SteadyClock::now();
  RunMixedPhase(w, spec, &stack, &shadow, &tally, &report);
  const double run_s = SecondsSince(run_start);
  const LayerTotals run_totals = tracer.TakeTotals();
  const Counters c1 = ReadCounters(&stack);
  host["run.host_s"] = run_s;
  host["host_kops"] = static_cast<double>(tally.entries) / run_s / 1000.0;
  host["peak_rss_mb"] = PeakRssMb();
  AddPhaseMetrics(config, c0, c1, &stack, &tally, &report);
  if (traced) {
    AddLayerTimes("run", run_s, run_totals, &report);
    AddTraceCounts(run_totals, tally, &report);
  }

  // ---- Checks: a scan probe for workloads whose mix has no scans, so
  // every workload reports scan latency, then every key, before and
  // after a reopen.
  report.counts["kv.probe_scans"] = static_cast<double>(w.probe_scans);
  if (options.checks) {
    for (uint64_t i = 0; i < w.probe_scans; i++) {
      const uint64_t start =
          ptsb::SplitMix64(seed ^ (0x5ca9ull << 32) ^ i) % spec.num_keys;
      const int64_t start_ns = stack.clock.NowNanos();
      report.attempted++;
      uint64_t entries = 0;
      const Status scan = ScanOnce(stack.store.get(), spec, start, shadow,
                                   &entries);
      tally.scan_ns.push_back(stack.clock.NowNanos() - start_ns);
      if (!scan.ok()) {
        report.failed++;
        report.errors.push_back(scan.ToString());
      }
    }
  }
  if (options.checks || !tally.scan_ns.empty()) {
    virt["scan_p50_us"] = PercentileUs(tally.scan_ns, 50, "scan", &report);
  }
  if (options.checks) {
    VerifyAll(stack.store.get(), spec, shadow, "after run", &report);
    s = stack.store->Close();
    if (!s.ok()) return give_up(s);
    stack.store.reset();
    auto reopened = kv::OpenStore(stack.engine_options);
    if (!reopened.ok()) return give_up(reopened.status());
    stack.store = *std::move(reopened);
    VerifyAll(stack.store.get(), spec, shadow, "after reopen", &report);
  }
  s = stack.store->Close();
  if (!s.ok()) return give_up(s);

  if (report.failed > 0 || !report.errors.empty()) report.correct = false;
  return report;
}

std::string ReportJson(const RunReport& report) {
  std::string out = "{\"correct\": ";
  out += report.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"errors\": [";
  for (size_t i = 0; i < report.errors.size(); i++) {
    out += (i ? ", \"" : "\"") + JsonEscape(report.errors[i]) + "\"";
  }
  out += "], \"virtual\": ";
  AppendJsonObject(report.virtual_metrics, &out);
  out += ", \"counts\": ";
  AppendJsonObject(report.counts, &out);
  out += ", \"trace_counts\": ";
  AppendJsonObject(report.trace_counts, &out);
  out += ", \"host\": ";
  AppendJsonObject(report.host, &out);
  out += "}";
  return out;
}

}  // namespace perfbench
