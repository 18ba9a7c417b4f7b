// micro_scan: the scan-side counterpart of micro_read. Three experiments,
// all self-checking:
//
// 1. Snapshot isolation under write load — for EVERY engine cell (the
//    three bare engines, sharded over each, cached over each): take a
//    snapshot, compute its scan checksum, then let 4 concurrent writer
//    threads overwrite and range-delete the keyspace while the main
//    thread keeps re-scanning through the snapshot. Every scan — during
//    the churn and after the writers join — must return the exact
//    snapshot-time checksum. This is the paper's "reads don't block
//    writes" contract made falsifiable: the cursor observes a frozen
//    sequence, not whatever compaction/flush/GC left behind.
//
// 2. Iterator readahead sweep — a quiesced store scanned twice through a
//    snapshot cursor: once at read_queue_depth=1 (the sequential
//    baseline: every leaf/block/segment read completes before the next
//    is issued) and once at read_queue_depth=4 with
//    ReadOptions::readahead=8 on a 4-channel device. The prefetched
//    reads are submitted on distinct foreground-read lanes at the same
//    virtual instant, so the SSD overlaps them across channels —
//    completion is the max, not the sum. Self-check: identical scan
//    checksums, and the fanned scan is strictly faster in simulated
//    device time for every engine config.
//
// 3. Snapshot pin accounting — a snapshot taken before heavy churn pins
//    resources the engine would otherwise reclaim (obsolete SSTs past
//    compaction, zombie alog segments past GC, the cached wrapper's
//    buffered entries). GetStats().snapshot_pinned_bytes must be > 0
//    while the snapshot lives and return to exactly 0 after the last
//    reference drops — pins are accounted, not leaked.
//
// 4. Short scans — 100-entry scans (readahead 4, read_queue_depth 4)
//    from seeded keys on a multi-level store of small tables: bare lsm
//    and cached/lsm with 64 B values (4 KiB blocks), and bare lsm with
//    4000 B values (~8 KB blocks, as in the perfbench
//    cached-lsm-read-scan workload). Prints block-layer read commands,
//    round trips (virtual instants that start reads), device KiB per
//    span round trip and simulated ms per scan. Self-checks: a scan
//    reads fewer commands than the store has SST files (an LSM cursor
//    that seeks every table above the target fails it), and on the
//    4000 B row a span round trip reads at least `readahead` ~8 KB
//    blocks (a window sized in nominal 4 KiB blocks reads half that).
//
//   ./build/micro_scan
//   ./build/micro_scan --smoke        # CI-sized, same self-checks
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "block/iostat.h"
#include "block/memory_device.h"
#include "core/report.h"
#include "fs/filesystem.h"
#include "kv/kv.h"
#include "kv/kvstore.h"
#include "kv/registry.h"
#include "kv/write_batch.h"
#include "sim/clock.h"
#include "ssd/ssd_device.h"
#include "util/crc32.h"
#include "util/human.h"
#include "util/logging.h"
#include "util/random.h"

using namespace ptsb;

namespace {

struct Flags {
  uint64_t keys = 2048;       // loaded key count (isolation cell)
  size_t value_bytes = 256;   // isolation-cell value payload
  int writer_rounds = 6;      // churn rounds per writer thread
  uint64_t scan_keys = 3072;  // readahead-cell key count
  size_t scan_value_bytes = 2048;
  bool smoke = false;
};

struct EngineConfig {
  std::string label;
  std::string engine;
  std::map<std::string, std::string> params;
};

std::map<std::string, std::string> SmallParams(const std::string& engine) {
  if (engine == "lsm") {
    return {{"memtable_bytes", std::to_string(64 << 10)},
            {"l1_target_bytes", std::to_string(256 << 10)},
            {"sst_target_bytes", std::to_string(128 << 10)},
            {"block_bytes", "4096"}};
  }
  if (engine == "btree") {
    return {{"leaf_max_bytes", std::to_string(4 << 10)},
            {"internal_max_bytes", "1024"},
            {"cache_bytes", std::to_string(32 << 10)},
            {"checkpoint_every_bytes", std::to_string(256 << 10)}};
  }
  if (engine == "alog") {
    return {{"segment_bytes", std::to_string(128 << 10)},
            {"gc_trigger", "0.4"}};
  }
  return {};
}

// Every engine cell: bare engines, sharded over each, cached over each.
std::vector<EngineConfig> AllEngineConfigs() {
  kv::RegisterBuiltinEngines();
  std::vector<EngineConfig> configs;
  for (const std::string name : {"lsm", "btree", "alog"}) {
    configs.push_back({name, name, SmallParams(name)});
  }
  for (const std::string inner : {"lsm", "btree", "alog"}) {
    std::map<std::string, std::string> params = SmallParams(inner);
    params["shards"] = "3";
    params["inner_engine"] = inner;
    configs.push_back({"sharded/" + inner, "sharded", std::move(params)});
  }
  for (const std::string inner : {"lsm", "btree", "alog"}) {
    std::map<std::string, std::string> params = SmallParams(inner);
    params["inner_engine"] = inner;
    params["write_buffer_bytes"] = std::to_string(32 << 10);
    params["read_cache_bytes"] = std::to_string(64 << 10);
    configs.push_back({"cached/" + inner, "cached", std::move(params)});
  }
  return configs;
}

uint32_t ChecksumSnapshotScan(kv::KVStore* store, const kv::Snapshot* snap,
                              int readahead = 0) {
  kv::ReadOptions opts;
  opts.snapshot = snap;
  opts.readahead = readahead;
  std::unique_ptr<kv::KVStore::Iterator> it = store->NewIterator(opts);
  uint32_t sum = 0;
  uint64_t n = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    sum = Crc32c(sum, it->key().data(), it->key().size());
    sum = Crc32c(sum, it->value().data(), it->value().size());
    n++;
  }
  PTSB_CHECK_OK(it->status());
  // Fold the entry count in so "same bytes, fewer rows" cannot collide.
  sum = Crc32c(sum, reinterpret_cast<const char*>(&n), sizeof(n));
  return sum;
}

// ---- Cell 1: snapshot isolation under 4 concurrent writer threads.

bool RunIsolationCell(const Flags& flags, const EngineConfig& config) {
  block::MemoryBlockDevice dev(4096, 1 << 15);
  fs::SimpleFs fs(&dev, {});
  kv::EngineOptions options;
  options.engine = config.engine;
  options.fs = &fs;
  options.params = config.params;
  auto opened = kv::OpenStore(options);
  PTSB_CHECK_OK(opened.status());
  auto store = *std::move(opened);

  kv::WriteBatch batch;
  for (uint64_t id = 0; id < flags.keys; id++) {
    batch.Put(kv::MakeKey(id), kv::MakeValue(id, flags.value_bytes));
    if (batch.Count() >= 64) {
      PTSB_CHECK_OK(store->Write(batch));
      batch.Clear();
    }
  }
  if (!batch.empty()) PTSB_CHECK_OK(store->Write(batch));

  auto got = store->GetSnapshot();
  PTSB_CHECK_OK(got.status());
  std::shared_ptr<const kv::Snapshot> snap = *std::move(got);
  const uint32_t golden = ChecksumSnapshotScan(store.get(), snap.get());

  // 4 writers, each churning its own quarter of the keyspace:
  // overwrites with round-stamped values plus a range delete per round,
  // so compaction/flush/GC/eviction all run under the live snapshot.
  constexpr size_t kWriters = 4;
  std::atomic<bool> failed{false};
  std::vector<std::thread> writers;
  const uint64_t slice = flags.keys / kWriters;
  for (size_t w = 0; w < kWriters; w++) {
    writers.emplace_back([&, w] {
      const uint64_t base = w * slice;
      for (int round = 1; round <= flags.writer_rounds; round++) {
        kv::WriteBatch wb;
        for (uint64_t i = 0; i < slice; i++) {
          wb.Put(kv::MakeKey(base + i),
                 kv::MakeValue(base + i + round * 7919, flags.value_bytes));
          if (wb.Count() >= 32) {
            if (!store->Write(wb).ok()) { failed = true; return; }
            wb.Clear();
          }
        }
        // Carve a hole out of this writer's slice; refilled next round.
        wb.DeleteRange(kv::MakeKey(base + slice / 4),
                       kv::MakeKey(base + slice / 2));
        if (!store->Write(wb).ok()) { failed = true; return; }
      }
    });
  }

  // Re-scan the snapshot while the writers churn: every pass must see
  // the exact snapshot-time state.
  bool isolated = true;
  for (int pass = 0; pass < 4 && isolated; pass++) {
    isolated = ChecksumSnapshotScan(store.get(), snap.get()) == golden;
  }
  for (std::thread& w : writers) w.join();
  if (failed.load()) {
    std::printf("FAIL: %s writer thread hit an error\n", config.label.c_str());
    return false;
  }
  // After the dust settles the snapshot still reads its frozen state...
  if (ChecksumSnapshotScan(store.get(), snap.get()) != golden || !isolated) {
    std::printf("FAIL: %s snapshot scan drifted from snapshot-time state\n",
                config.label.c_str());
    return false;
  }
  // ... and the live view genuinely moved (the churn wasn't a no-op).
  std::string v;
  const Status live = store->Get(kv::MakeKey(slice / 4), &v);
  if (live.ok() && v == kv::MakeValue(slice / 4, flags.value_bytes)) {
    std::printf("FAIL: %s live state unchanged — churn did not land\n",
                config.label.c_str());
    return false;
  }
  snap.reset();
  PTSB_CHECK_OK(store->Close());
  return true;
}

// ---- Cell 2: readahead sweep (simulated device time, quiesced store).

struct ScanCell {
  double device_ms = 0;
  uint32_t checksum = 0;
};

ScanCell RunReadaheadCell(const Flags& flags, const EngineConfig& config,
                          int read_qd, int readahead) {
  sim::SimClock clock;
  ssd::SsdConfig cfg;
  cfg.geometry.logical_bytes = 512ull << 20;
  cfg.channels = 4;
  cfg.timing.cache_bytes = 0;
  ssd::SsdDevice ssd(cfg, &clock);
  fs::SimpleFs fs(&ssd, {});

  kv::EngineOptions options;
  options.engine = config.engine;
  options.fs = &fs;
  options.clock = &clock;
  options.params = config.params;
  options.params["read_queue_depth"] = std::to_string(read_qd);
  auto opened = kv::OpenStore(options);
  PTSB_CHECK_OK(opened.status());
  auto store = *std::move(opened);

  kv::WriteBatch batch;
  for (uint64_t id = 0; id < flags.scan_keys; id++) {
    batch.Put(kv::MakeKey(id), kv::MakeValue(id * 13 + 5, flags.scan_value_bytes));
    if (batch.Count() >= 64) {
      PTSB_CHECK_OK(store->Write(batch));
      batch.Clear();
    }
  }
  if (!batch.empty()) PTSB_CHECK_OK(store->Write(batch));
  PTSB_CHECK_OK(store->Flush());
  PTSB_CHECK_OK(store->SettleBackgroundWork());

  auto got = store->GetSnapshot();
  PTSB_CHECK_OK(got.status());
  std::shared_ptr<const kv::Snapshot> snap = *std::move(got);

  ScanCell r;
  const int64_t t0 = clock.NowNanos();
  r.checksum = ChecksumSnapshotScan(store.get(), snap.get(), readahead);
  r.device_ms = static_cast<double>(clock.NowNanos() - t0) / 1e6;
  snap.reset();
  PTSB_CHECK_OK(store->Close());
  return r;
}

// ---- Cell 3: snapshot pin accounting.

bool RunPinCell(const Flags& flags, const EngineConfig& config) {
  block::MemoryBlockDevice dev(4096, 1 << 15);
  fs::SimpleFs fs(&dev, {});
  kv::EngineOptions options;
  options.engine = config.engine;
  options.fs = &fs;
  options.params = config.params;
  auto opened = kv::OpenStore(options);
  PTSB_CHECK_OK(opened.status());
  auto store = *std::move(opened);

  for (uint64_t id = 0; id < flags.keys; id++) {
    PTSB_CHECK_OK(
        store->Put(kv::MakeKey(id), kv::MakeValue(id, flags.value_bytes)));
  }
  PTSB_CHECK_OK(store->Flush());
  PTSB_CHECK_OK(store->SettleBackgroundWork());

  auto got = store->GetSnapshot();
  PTSB_CHECK_OK(got.status());
  std::shared_ptr<const kv::Snapshot> snap = *std::move(got);
  const uint32_t golden = ChecksumSnapshotScan(store.get(), snap.get());

  // Churn hard enough that compaction/GC want to reclaim the snapshot's
  // files: several full overwrite passes, flushed and settled.
  for (int round = 1; round <= 3; round++) {
    for (uint64_t id = 0; id < flags.keys; id++) {
      PTSB_CHECK_OK(store->Put(
          kv::MakeKey(id), kv::MakeValue(id + round * 104729, flags.value_bytes)));
    }
    PTSB_CHECK_OK(store->Flush());
    PTSB_CHECK_OK(store->SettleBackgroundWork());
  }

  const kv::KvStoreStats pinned = store->GetStats();
  if (pinned.snapshots_open != 1) {
    std::printf("FAIL: %s snapshots_open=%llu with one live snapshot\n",
                config.label.c_str(),
                static_cast<unsigned long long>(pinned.snapshots_open));
    return false;
  }
  if (pinned.snapshot_pinned_bytes == 0) {
    std::printf("FAIL: %s pinned no bytes despite churn under a snapshot\n",
                config.label.c_str());
    return false;
  }
  // The pinned resources are what keep the snapshot readable.
  if (ChecksumSnapshotScan(store.get(), snap.get()) != golden) {
    std::printf("FAIL: %s snapshot unreadable after churn\n",
                config.label.c_str());
    return false;
  }

  snap.reset();
  PTSB_CHECK_OK(store->SettleBackgroundWork());
  const kv::KvStoreStats released = store->GetStats();
  if (released.snapshots_open != 0 || released.snapshot_pinned_bytes != 0) {
    std::printf(
        "FAIL: %s pins leaked after release (open=%llu pinned=%llu B)\n",
        config.label.c_str(),
        static_cast<unsigned long long>(released.snapshots_open),
        static_cast<unsigned long long>(released.snapshot_pinned_bytes));
    return false;
  }
  std::printf("  %-12s pinned %8llu B under snapshot, 0 after release\n",
              config.label.c_str(),
              static_cast<unsigned long long>(pinned.snapshot_pinned_bytes));
  PTSB_CHECK_OK(store->Close());
  return true;
}

// ---- Cell 4: short scans from seeded keys on a multi-level LSM.

constexpr int kShortScans = 200;
constexpr int kShortScanEntries = 100;
constexpr int kShortScanReadahead = 4;

// One cell-4 store: `keys` seeded puts of `value_bytes` in tables of
// `table_bytes`.
struct ShortScanShape {
  uint64_t keys;
  size_t value_bytes;
  uint64_t table_bytes;
};

struct ShortScanCell {
  size_t sst_files = 0;
  double reads_per_scan = 0;
  double ms_per_scan = 0;
  double trips_per_scan = 0;  // virtual instants that started a read
  // Device bytes per round trip that fanned out over several commands
  // (a readahead span's chunks); single-command trips (table opens,
  // one-block spans) are left out.
  double bytes_per_span_trip = 0;
};

// Groups device reads into round trips: the chunks of one readahead
// span go out on parallel lanes from the same virtual instant, so reads
// that start at the same instant belong to one trip.
class RoundTripCounter : public block::BlockDevice {
 public:
  explicit RoundTripCounter(block::BlockDevice* base) : base_(base) {}
  uint64_t lba_bytes() const override { return base_->lba_bytes(); }
  uint64_t num_lbas() const override { return base_->num_lbas(); }
  sim::SimClock* clock() const override { return base_->clock(); }
  Status Read(uint64_t lba, uint64_t count, uint8_t* dst) override {
    Trip& t = trips_[base_->clock()->NowNanos()];
    t.commands++;
    t.bytes += count * lba_bytes();
    return base_->Read(lba, count, dst);
  }
  Status Write(uint64_t lba, uint64_t count, const uint8_t* src) override {
    return base_->Write(lba, count, src);
  }
  Status Trim(uint64_t lba, uint64_t count) override {
    return base_->Trim(lba, count);
  }
  Status Flush() override { return base_->Flush(); }

  struct Trip {
    uint64_t commands = 0;
    uint64_t bytes = 0;
  };
  std::map<int64_t, Trip>& trips() { return trips_; }

 private:
  block::BlockDevice* base_;
  std::map<int64_t, Trip> trips_;  // by start instant
};

ShortScanCell RunShortScanCell(const EngineConfig& config,
                               const ShortScanShape& shape) {
  sim::SimClock clock;
  ssd::SsdConfig cfg;
  cfg.geometry.logical_bytes = 512ull << 20;
  cfg.channels = 4;
  cfg.timing.cache_bytes = 0;
  ssd::SsdDevice ssd(cfg, &clock);
  RoundTripCounter trips(&ssd);
  block::IoStatCollector io(&trips);
  fs::SimpleFs fs(&io, {});

  kv::EngineOptions options;
  options.engine = config.engine;
  options.fs = &fs;
  options.clock = &clock;
  options.params = config.params;
  options.params["sst_target_bytes"] = std::to_string(shape.table_bytes);
  options.params["read_queue_depth"] = "4";
  auto opened = kv::OpenStore(options);
  PTSB_CHECK_OK(opened.status());
  auto store = *std::move(opened);

  Rng rng(7);
  kv::WriteBatch batch;
  for (uint64_t i = 0; i < shape.keys; i++) {
    const uint64_t id = rng.Uniform(shape.keys);
    batch.Put(kv::MakeKey(id), kv::MakeValue(id, shape.value_bytes));
    if (batch.Count() >= 64) {
      PTSB_CHECK_OK(store->Write(batch));
      batch.Clear();
    }
  }
  if (!batch.empty()) PTSB_CHECK_OK(store->Write(batch));
  PTSB_CHECK_OK(store->Flush());
  PTSB_CHECK_OK(store->SettleBackgroundWork());

  ShortScanCell r;
  for (const std::string& name : fs.List()) {
    if (name.ends_with(".sst")) r.sst_files++;
  }
  trips.trips().clear();
  const uint64_t reads_before = io.counters().read_ops;
  const int64_t t0 = clock.NowNanos();
  for (int scan = 0; scan < kShortScans; scan++) {
    std::unique_ptr<kv::KVStore::Iterator> it = store->NewIterator(
        kv::ReadOptions{.readahead = kShortScanReadahead});
    int n = 0;
    for (it->Seek(kv::MakeKey(rng.Uniform(shape.keys)));
         it->Valid() && n < kShortScanEntries; it->Next()) {
      n++;
    }
    PTSB_CHECK_OK(it->status());
  }
  r.reads_per_scan =
      static_cast<double>(io.counters().read_ops - reads_before) /
      kShortScans;
  r.ms_per_scan =
      static_cast<double>(clock.NowNanos() - t0) / 1e6 / kShortScans;
  uint64_t span_trips = 0, span_bytes = 0;
  for (const auto& [start, trip] : trips.trips()) {
    if (trip.commands < 2) continue;
    span_trips++;
    span_bytes += trip.bytes;
  }
  r.trips_per_scan =
      static_cast<double>(trips.trips().size()) / kShortScans;
  r.bytes_per_span_trip =
      span_trips > 0 ? static_cast<double>(span_bytes) / span_trips : 0;
  PTSB_CHECK_OK(store->Close());
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; i++) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--keys=", 7) == 0) {
      flags.keys = std::strtoull(arg + 7, nullptr, 10);
    } else if (std::strncmp(arg, "--scan-keys=", 12) == 0) {
      flags.scan_keys = std::strtoull(arg + 12, nullptr, 10);
    } else if (std::strncmp(arg, "--value-bytes=", 14) == 0) {
      flags.value_bytes = std::strtoull(arg + 14, nullptr, 10);
    } else if (std::strncmp(arg, "--rounds=", 9) == 0) {
      flags.writer_rounds = static_cast<int>(std::strtol(arg + 9, nullptr, 10));
    } else if (std::strcmp(arg, "--smoke") == 0) {
      // CI-sized run: same cells and self-checks, much less churn.
      flags.smoke = true;
      flags.keys = 1024;
      flags.value_bytes = 128;
      flags.writer_rounds = 3;
      flags.scan_keys = 1024;
      flags.scan_value_bytes = 1024;
    } else {
      std::printf(
          "flags: --keys=N isolation/pin-cell keys (default 2048)\n"
          "       --scan-keys=N readahead-cell keys (default 3072)\n"
          "       --value-bytes=N (default 256)\n"
          "       --rounds=N churn rounds per writer (default 6)\n"
          "       --smoke    CI-sized run, same self-checks\n");
      return 2;
    }
  }

  // ---- Cell 1: snapshot isolation in every engine cell.
  std::printf("micro_scan cell 1: snapshot scan vs 4 concurrent writers "
              "(%llu keys x %zu B, %d churn rounds)\n",
              static_cast<unsigned long long>(flags.keys), flags.value_bytes,
              flags.writer_rounds);
  bool ok = true;
  for (const EngineConfig& config : AllEngineConfigs()) {
    if (!RunIsolationCell(flags, config)) {
      ok = false;
    } else {
      std::printf("  %-12s snapshot checksum stable under churn\n",
                  config.label.c_str());
    }
  }
  if (!ok) return 1;

  // ---- Cell 2: readahead sweep. The snapshot cursor at
  // read_queue_depth=4 + readahead=8 must strictly beat the qd-1
  // baseline on the 4-channel device, with identical contents.
  std::printf("\nmicro_scan cell 2: full snapshot scan, simulated device "
              "time (ms), qd1 vs qd4+readahead on 4 channels "
              "(%llu keys x %zu B)\n",
              static_cast<unsigned long long>(flags.scan_keys),
              flags.scan_value_bytes);
  std::string csv = "engine,read_queue_depth,readahead,device_ms\n";
  for (const EngineConfig& config :
       std::vector<EngineConfig>{AllEngineConfigs()[0],   // lsm
                                 AllEngineConfigs()[1],   // btree
                                 AllEngineConfigs()[2],   // alog
                                 AllEngineConfigs()[5],   // sharded/alog
                                 AllEngineConfigs()[6]}) {  // cached/lsm
    const ScanCell base = RunReadaheadCell(flags, config, 1, 1);
    const ScanCell fanned = RunReadaheadCell(flags, config, 4, 8);
    std::printf("  %-12s %8.1f -> %8.1f  (%.2fx)\n", config.label.c_str(),
                base.device_ms, fanned.device_ms,
                fanned.device_ms > 0 ? base.device_ms / fanned.device_ms : 0.0);
    csv += StrPrintf("%s,1,1,%.3f\n", config.label.c_str(), base.device_ms);
    csv += StrPrintf("%s,4,8,%.3f\n", config.label.c_str(), fanned.device_ms);
    if (fanned.checksum != base.checksum) {
      std::printf("FAIL: %s readahead scan returned different contents\n",
                  config.label.c_str());
      return 1;
    }
    if (fanned.device_ms >= base.device_ms) {
      std::printf("FAIL: %s readahead at qd=4 x 4 channels (%.1f ms) did "
                  "not beat the sequential cursor (%.1f ms)\n",
                  config.label.c_str(), fanned.device_ms, base.device_ms);
      return 1;
    }
  }

  // ---- Cell 3: pin accounting on the engines that defer reclamation.
  std::printf("\nmicro_scan cell 3: snapshot pin accounting\n");
  for (const EngineConfig& config :
       std::vector<EngineConfig>{AllEngineConfigs()[0],     // lsm
                                 AllEngineConfigs()[2],     // alog
                                 AllEngineConfigs()[6]}) {  // cached/lsm
    if (!RunPinCell(flags, config)) return 1;
  }

  // ---- Cell 4: short scans must read one table per level, not every
  // table above the target, and a readahead span must carry `readahead`
  // blocks whatever their size.
  std::printf("\nmicro_scan cell 4: %d x %d-entry scans from seeded keys "
              "(readahead %d, qd 4, 4 channels)\n",
              kShortScans, kShortScanEntries, kShortScanReadahead);
  struct ShortScanRow {
    EngineConfig config;
    ShortScanShape shape;
    double min_span_bytes;  // per multi-command round trip; 0: unchecked
  };
  // 64 B values fill the nominal 4 KiB blocks exactly. 4000 B values make
  // every block two entries, about 8 KB, covering at least two 4 KiB
  // pages, so a span of `readahead` of them reads readahead x 8 KiB or
  // more.
  const ShortScanShape small_values{20000, 64, 16 << 10};
  const ShortScanShape large_values{3000, 4000, 64 << 10};
  for (const ShortScanRow& row : std::vector<ShortScanRow>{
           {AllEngineConfigs()[0], small_values, 0},  // lsm
           {AllEngineConfigs()[6], small_values, 0},  // cached/lsm
           {AllEngineConfigs()[0], large_values,      // lsm
            kShortScanReadahead * 8192.0}}) {
    const ShortScanCell cell = RunShortScanCell(row.config, row.shape);
    std::printf("  %-12s %5llu keys x %4zu B, %2llu KiB tables: %4zu SSTs  "
                "%5.1f device reads/scan  %5.1f round trips/scan  %5.1f "
                "KiB/span trip  %6.3f sim ms/scan\n",
                row.config.label.c_str(),
                static_cast<unsigned long long>(row.shape.keys),
                row.shape.value_bytes,
                static_cast<unsigned long long>(row.shape.table_bytes >> 10),
                cell.sst_files, cell.reads_per_scan, cell.trips_per_scan,
                cell.bytes_per_span_trip / 1024, cell.ms_per_scan);
    if (cell.reads_per_scan >= static_cast<double>(cell.sst_files)) {
      std::printf("FAIL: %s short scans read %.1f commands each, not below "
                  "the store's %zu SST files\n",
                  row.config.label.c_str(), cell.reads_per_scan,
                  cell.sst_files);
      return 1;
    }
    if (cell.bytes_per_span_trip < row.min_span_bytes) {
      std::printf("FAIL: %s span round trips read %.1f KiB each, below "
                  "%d blocks of ~8 KB (%.1f KiB)\n",
                  row.config.label.c_str(), cell.bytes_per_span_trip / 1024,
                  kShortScanReadahead, row.min_span_bytes / 1024);
      return 1;
    }
  }

  const std::string csv_path = core::WriteResultsFile("micro_scan.csv", csv);
  if (!csv_path.empty()) std::printf("written to %s\n", csv_path.c_str());
  std::printf("\nOK: snapshots isolate against 4-writer churn in every "
              "engine cell; readahead strictly beats the sequential cursor "
              "on 4 channels; pinned bytes return to zero on release; "
              "short LSM scans read one table per level, and their "
              "readahead spans carry %d blocks\n",
              kShortScanReadahead);
  return 0;
}
