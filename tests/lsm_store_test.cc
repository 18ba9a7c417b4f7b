// End-to-end tests of LsmStore: correctness against a reference model
// through flushes and compactions, recovery, scans, stats, and the level
// structure invariants.
#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "block/iostat.h"
#include "block/memory_device.h"
#include "fs/filesystem.h"
#include "kv/kv.h"
#include "kv/registry.h"
#include "kv/write_batch.h"
#include "lsm/lsm_store.h"
#include "lsm/sst.h"
#include "sim/clock.h"
#include "ssd/ssd_device.h"
#include "test_support.h"
#include "util/human.h"
#include "util/random.h"

namespace ptsb::lsm {
namespace {

LsmOptions TinyOptions() {
  // Tiny sizes so flushes and multi-level compactions happen within a few
  // thousand operations.
  LsmOptions o;
  o.memtable_bytes = 16 << 10;
  o.l0_compaction_trigger = 4;
  o.l0_stall_trigger = 8;
  o.l1_target_bytes = 64 << 10;
  o.level_size_ratio = 4;
  o.sst_target_bytes = 32 << 10;
  o.block_bytes = 1024;
  return o;
}

class LsmStoreTest : public ::testing::Test {
 protected:
  LsmStoreTest() : dev_(4096, 1 << 15), fs_(&dev_, FsOpts()) {}

  static fs::FsOptions FsOpts() {
    fs::FsOptions o;
    o.append_alloc_pages = 8;
    return o;
  }

  block::MemoryBlockDevice dev_;
  fs::SimpleFs fs_;
};

TEST_F(LsmStoreTest, PutGetRoundTrip) {
  auto store = LsmStore::Open(&fs_, TinyOptions());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("hello", "world").ok());
  std::string v;
  ASSERT_TRUE((*store)->Get("hello", &v).ok());
  EXPECT_EQ(v, "world");
  EXPECT_TRUE((*store)->Get("missing", &v).IsNotFound());
  ASSERT_TRUE((*store)->Close().ok());
}

TEST_F(LsmStoreTest, OverwriteReturnsNewest) {
  auto store = *LsmStore::Open(&fs_, TinyOptions());
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(store->Put("k", "v" + std::to_string(i)).ok());
  }
  std::string v;
  ASSERT_TRUE(store->Get("k", &v).ok());
  EXPECT_EQ(v, "v9");
  ASSERT_TRUE(store->Close().ok());
}

TEST_F(LsmStoreTest, DeleteHidesKeyAcrossFlush) {
  auto store = *LsmStore::Open(&fs_, TinyOptions());
  ASSERT_TRUE(store->Put("k", "v").ok());
  ASSERT_TRUE(store->Flush().ok());  // value now in an SST
  ASSERT_TRUE(store->Delete("k").ok());
  std::string v;
  EXPECT_TRUE(store->Get("k", &v).IsNotFound());
  ASSERT_TRUE(store->Flush().ok());  // tombstone now in an SST too
  EXPECT_TRUE(store->Get("k", &v).IsNotFound());
  ASSERT_TRUE(store->Close().ok());
}

TEST_F(LsmStoreTest, FlushCreatesL0AndCompactionsCascade) {
  auto store = *LsmStore::Open(&fs_, TinyOptions());
  Rng rng(1);
  std::string value(512, 'v');
  for (int i = 0; i < 4000; i++) {
    ASSERT_TRUE(
        store->Put("key" + std::to_string(rng.Uniform(2000)), value).ok());
  }
  ASSERT_TRUE(store->DrainCompactions().ok());
  // With ~1 MiB of live data and a 16 KiB memtable, data must have reached
  // at least L1.
  EXPECT_GE(store->versions().MaxPopulatedLevel(), 1);
  EXPECT_TRUE(store->versions().CheckInvariants().ok());
  const auto stats = store->GetStats();
  EXPECT_GT(stats.flush_bytes_written, 0u);
  EXPECT_GT(stats.compaction_bytes_written, 0u);
  ASSERT_TRUE(store->Close().ok());
}

TEST_F(LsmStoreTest, MatchesReferenceModelThroughCompactions) {
  auto store = *LsmStore::Open(&fs_, TinyOptions());
  testing::ReferenceModel model;
  Rng rng(7);
  testing::RunRandomOps(store.get(), &model, &rng, 6000, 1500, 300, 0.85);
  testing::VerifyAll(store.get(), model);
  EXPECT_TRUE(store->versions().CheckInvariants().ok());
  ASSERT_TRUE(store->Close().ok());
}

TEST_F(LsmStoreTest, ScanReturnsSortedLiveKeys) {
  auto store = *LsmStore::Open(&fs_, TinyOptions());
  testing::ReferenceModel model;
  Rng rng(9);
  testing::RunRandomOps(store.get(), &model, &rng, 3000, 800, 200, 0.7);
  std::vector<std::pair<std::string, std::string>> got;
  ASSERT_TRUE(testing::CollectRange(store.get(), "", 100000, &got).ok());
  ASSERT_EQ(got.size(), model.size());
  auto expect = model.map().begin();
  for (const auto& [k, v] : got) {
    EXPECT_EQ(k, expect->first);
    EXPECT_EQ(v, expect->second);
    ++expect;
  }
  ASSERT_TRUE(store->Close().ok());
}

TEST_F(LsmStoreTest, ScanRangeAndLimit) {
  auto store = *LsmStore::Open(&fs_, TinyOptions());
  for (int i = 0; i < 100; i++) {
    char key[16];
    snprintf(key, sizeof(key), "k%03d", i);
    ASSERT_TRUE(store->Put(key, "v").ok());
  }
  std::vector<std::pair<std::string, std::string>> got;
  ASSERT_TRUE(testing::CollectRange(store.get(), "k050", 10, &got).ok());
  ASSERT_EQ(got.size(), 10u);
  EXPECT_EQ(got.front().first, "k050");
  EXPECT_EQ(got.back().first, "k059");
  ASSERT_TRUE(store->Close().ok());
}

TEST_F(LsmStoreTest, IteratorMergesMemtableAndSstsSkippingTombstones) {
  auto store = *LsmStore::Open(&fs_, TinyOptions());
  // Older versions + tombstones in SSTs, newer versions in the memtable.
  for (int i = 0; i < 100; i++) {
    char key[16];
    snprintf(key, sizeof(key), "k%03d", i);
    ASSERT_TRUE(store->Put(key, "old").ok());
  }
  ASSERT_TRUE(store->Flush().ok());
  for (int i = 0; i < 100; i += 2) {
    char key[16];
    snprintf(key, sizeof(key), "k%03d", i);
    ASSERT_TRUE(store->Delete(key).ok());
  }
  ASSERT_TRUE(store->Flush().ok());
  for (int i = 1; i < 100; i += 4) {
    char key[16];
    snprintf(key, sizeof(key), "k%03d", i);
    ASSERT_TRUE(store->Put(key, "new").ok());  // stays in the memtable
  }

  auto it = store->NewIterator();
  int seen = 0;
  std::string prev;
  for (it->Seek("k010"); it->Valid(); it->Next()) {
    const std::string key(it->key());
    ASSERT_GE(key, "k010");
    if (!prev.empty()) {
      ASSERT_LT(prev, key);
    }  // strictly ascending, deduped
    const int id = std::stoi(key.substr(1));
    ASSERT_NE(id % 2, 0) << key << " was deleted";
    EXPECT_EQ(it->value(), (id - 1) % 4 == 0 ? "new" : "old");
    prev = key;
    seen++;
  }
  ASSERT_TRUE(it->status().ok());
  EXPECT_EQ(seen, 45);  // odd ids in [11, 99]
  ASSERT_TRUE(store->Close().ok());
}

TEST_F(LsmStoreTest, BatchedWriteAppliesAllEntriesInOrder) {
  auto store = *LsmStore::Open(&fs_, TinyOptions());
  kv::WriteBatch batch;
  batch.Put("a", "1");
  batch.Put("b", "2");
  batch.Delete("a");
  batch.Put("c", "3");
  ASSERT_TRUE(store->Write(batch).ok());
  std::string v;
  EXPECT_TRUE(store->Get("a", &v).IsNotFound());  // later delete wins
  ASSERT_TRUE(store->Get("b", &v).ok());
  EXPECT_EQ(v, "2");
  ASSERT_TRUE(store->Get("c", &v).ok());
  const auto stats = store->GetStats();
  EXPECT_EQ(stats.user_batches, 1u);
  EXPECT_EQ(stats.user_puts, 3u);
  EXPECT_EQ(stats.user_deletes, 1u);
  ASSERT_TRUE(store->Close().ok());
}

TEST_F(LsmStoreTest, BatchedWalRecordsReplayAfterCrash) {
  auto options = TinyOptions();
  options.wal_sync_every_bytes = 1;  // sync every record
  options.memtable_bytes = 1 << 20;  // keep everything in the WAL
  kv::WriteBatch batch;
  {
    auto store = *LsmStore::Open(&fs_, options);
    for (int i = 0; i < 300; i++) {
      batch.Put("k" + std::to_string(i), "v" + std::to_string(i));
      if (batch.Count() == 32) {
        ASSERT_TRUE(store->Write(batch).ok());
        batch.Clear();
      }
    }
    if (!batch.empty()) {
      ASSERT_TRUE(store->Write(batch).ok());
    }
    // Crash without Close: recovery must replay the multi-entry records.
    fs_.SimulateCrash();
    store.release();  // NOLINT: intentional leak of a "crashed" instance
  }
  auto store = *LsmStore::Open(&fs_, options);
  std::string v;
  for (int i = 0; i < 300; i++) {
    ASSERT_TRUE(store->Get("k" + std::to_string(i), &v).ok()) << i;
    EXPECT_EQ(v, "v" + std::to_string(i));
  }
  ASSERT_TRUE(store->Close().ok());
}

TEST_F(LsmStoreTest, ReopenRecoversFlushedAndWalData) {
  testing::ReferenceModel model;
  {
    auto store = *LsmStore::Open(&fs_, TinyOptions());
    Rng rng(11);
    testing::RunRandomOps(store.get(), &model, &rng, 2000, 500, 300, 0.9);
    ASSERT_TRUE(store->Close().ok());
  }
  {
    auto store = LsmStore::Open(&fs_, TinyOptions());
    ASSERT_TRUE(store.ok());
    testing::VerifyAll(store->get(), model);
    ASSERT_TRUE((*store)->Close().ok());
  }
}

TEST_F(LsmStoreTest, CrashRecoveryKeepsDurablePrefix) {
  // Writes go through the WAL; a crash drops only the unsynced tail. After
  // reopen, every key that was visible before the last full page is intact.
  auto options = TinyOptions();
  options.wal_sync_every_bytes = 1;  // sync on every record
  testing::ReferenceModel model;
  {
    auto store = *LsmStore::Open(&fs_, options);
    Rng rng(13);
    testing::RunRandomOps(store.get(), &model, &rng, 1500, 400, 200, 0.85);
    // No Close: simulate power failure.
    fs_.SimulateCrash();
    // The store object is now abandoned (as a crashed process would be).
    // Prevent its destructor from flushing post-crash state.
    store.release();  // NOLINT: intentional leak of a "crashed" instance
  }
  {
    auto store = LsmStore::Open(&fs_, options);
    ASSERT_TRUE(store.ok());
    testing::VerifyAll(store->get(), model);
    ASSERT_TRUE((*store)->Close().ok());
  }
}

TEST_F(LsmStoreTest, WalDisabledLosesMemtableOnCrashButStaysConsistent) {
  auto options = TinyOptions();
  options.wal_enabled = false;
  {
    auto store = *LsmStore::Open(&fs_, options);
    ASSERT_TRUE(store->Put("a", "1").ok());
    ASSERT_TRUE(store->Flush().ok());
    ASSERT_TRUE(store->Put("b", "2").ok());  // memtable only
    fs_.SimulateCrash();
    store.release();  // NOLINT
  }
  {
    auto store = *LsmStore::Open(&fs_, options);
    std::string v;
    EXPECT_TRUE(store->Get("a", &v).ok());
    EXPECT_TRUE(store->Get("b", &v).IsNotFound());
    ASSERT_TRUE(store->Close().ok());
  }
}

TEST_F(LsmStoreTest, TombstonesDroppedAtBottomLevel) {
  auto store = *LsmStore::Open(&fs_, TinyOptions());
  std::string value(256, 'v');
  for (int i = 0; i < 500; i++) {
    ASSERT_TRUE(store->Put("k" + std::to_string(i), value).ok());
  }
  for (int i = 0; i < 500; i++) {
    ASSERT_TRUE(store->Delete("k" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(store->CompactAll().ok());
  // Everything deleted and fully compacted: the tree is empty (tombstones
  // dropped at the bottom).
  EXPECT_EQ(store->versions().TotalEntries(), 0u);
  std::vector<std::pair<std::string, std::string>> got;
  ASSERT_TRUE(testing::CollectRange(store.get(), "", 1000, &got).ok());
  EXPECT_TRUE(got.empty());
  ASSERT_TRUE(store->Close().ok());
}

TEST_F(LsmStoreTest, StatsAccounting) {
  auto store = *LsmStore::Open(&fs_, TinyOptions());
  std::string value(100, 'v');
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(store->Put("key" + std::to_string(i), value).ok());
  }
  std::string v;
  ASSERT_TRUE(store->Get("key5", &v).ok());
  const auto stats = store->GetStats();
  EXPECT_EQ(stats.user_puts, 100u);
  EXPECT_EQ(stats.user_gets, 1u);
  EXPECT_GT(stats.user_bytes_written, 100u * 100);
  EXPECT_GT(stats.wal_bytes_written, stats.user_bytes_written);
  ASSERT_TRUE(store->Close().ok());
}

TEST_F(LsmStoreTest, DiskBytesUsedTracksLiveFiles) {
  auto store = *LsmStore::Open(&fs_, TinyOptions());
  const uint64_t before = store->DiskBytesUsed();
  std::string value(1000, 'v');
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(store->Put("k" + std::to_string(i), value).ok());
  }
  ASSERT_TRUE(store->Flush().ok());
  EXPECT_GT(store->DiskBytesUsed(), before + 100 * 1000);
  ASSERT_TRUE(store->Close().ok());
}

TEST_F(LsmStoreTest, LargeValuesSpanningManyBlocks) {
  auto store = *LsmStore::Open(&fs_, TinyOptions());
  // Values much larger than the 1 KiB block size.
  std::string big(8000, 'B');
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(store->Put("big" + std::to_string(i), big).ok());
  }
  ASSERT_TRUE(store->Flush().ok());
  std::string v;
  ASSERT_TRUE(store->Get("big25", &v).ok());
  EXPECT_EQ(v, big);
  ASSERT_TRUE(store->Close().ok());
}

TEST_F(LsmStoreTest, SequentialLoadUsesTrivialMoves) {
  // Sequentially-loaded, non-overlapping SSTs should mostly cascade down
  // by trivial moves, keeping compaction write volume low (this is why the
  // paper's load phase is cheap for RocksDB).
  auto store = *LsmStore::Open(&fs_, TinyOptions());
  std::string value(400, 'v');
  for (int i = 0; i < 3000; i++) {
    char key[16];
    snprintf(key, sizeof(key), "k%08d", i);
    ASSERT_TRUE(store->Put(key, value).ok());
  }
  ASSERT_TRUE(store->DrainCompactions().ok());
  const auto stats = store->GetStats();
  // Rewrite ratio: compaction writes per flushed byte stays well below
  // what random updates would cause.
  EXPECT_LT(static_cast<double>(stats.compaction_bytes_written),
            1.0 * static_cast<double>(stats.flush_bytes_written));
  ASSERT_TRUE(store->Close().ok());
}

// ---- Level cursors: a store with several L0 files and deeper levels of
// many files each, read through the merging iterator.

// Fixed-size entries: a 9-byte key and a 74-byte value encode to 93 bytes
// (varint 1 + 9 + tag 8 + varint 1 + 74), so 44 of them fill a 4092-byte
// block whose 4-byte CRC completes exactly one 4 KiB device page — every
// data-block read is one device read command.
LsmOptions ManyFilesOptions() {
  LsmOptions o;
  o.memtable_bytes = 8 << 10;
  o.l0_compaction_trigger = 4;
  o.l0_stall_trigger = 8;
  o.l1_target_bytes = 48 << 10;
  o.level_size_ratio = 4;
  o.sst_target_bytes = 16 << 10;
  o.block_bytes = 4092;
  return o;
}

std::string FixedKey(uint64_t id) {
  return StrPrintf("key%06llu", static_cast<unsigned long long>(id));
}

std::string FixedValue(uint64_t id, int round) {
  std::string v = StrPrintf("r%02d-%06llu-", round,
                            static_cast<unsigned long long>(id));
  v.resize(74, 'v');
  return v;
}

// Loads 3000 keys in shuffled order, overwrites a third of them, settles
// compaction, then flushes three more L0 files and leaves a few writes in
// the memtable. Puts only: every key's newest version is live.
void BuildManyFileStore(LsmStore* store, testing::ReferenceModel* model) {
  constexpr uint64_t kKeys = 3000;
  Rng rng(42);
  std::vector<uint64_t> ids(kKeys);
  for (uint64_t i = 0; i < kKeys; i++) ids[i] = i;
  for (uint64_t i = kKeys - 1; i > 0; i--) {
    std::swap(ids[i], ids[rng.Uniform(i + 1)]);
  }
  auto put = [&](uint64_t id, int round) {
    ASSERT_TRUE(store->Put(FixedKey(id), FixedValue(id, round)).ok());
    model->Put(FixedKey(id), FixedValue(id, round));
  };
  for (const uint64_t id : ids) put(id, 0);
  for (uint64_t i = 0; i < kKeys / 3; i++) put(rng.Uniform(kKeys), 1);
  ASSERT_TRUE(store->DrainCompactions().ok());
  for (int round = 2; round < 5; round++) {
    for (int i = 0; i < 40; i++) put(rng.Uniform(kKeys), round);
    ASSERT_TRUE(store->Flush().ok());
  }
  for (int i = 0; i < 20; i++) put(rng.Uniform(kKeys), 5);

  const VersionSet& v = store->versions();
  ASSERT_TRUE(v.CheckInvariants().ok());
  ASSERT_GE(v.LevelFiles(0).size(), 2u);
  int deep_levels = 0;
  for (int level = 1; level < v.num_levels(); level++) {
    if (v.LevelFiles(level).size() >= 4) deep_levels++;
  }
  ASSERT_GE(deep_levels, 2) << store->DebugString();
}

// Seek targets that probe every file edge: each file's smallest and
// largest key, the gap just past each largest key (between two files of
// a level), and keys before the first and after the last.
std::vector<std::string> EdgeTargets(const VersionSet& v) {
  std::vector<std::string> targets = {"", "a", "key", "zzz"};
  for (int level = 0; level < v.num_levels(); level++) {
    for (const FileMeta& f : v.LevelFiles(level)) {
      targets.push_back(f.smallest);
      targets.push_back(f.largest);
      targets.push_back(f.largest + '\0');
    }
  }
  return targets;
}

// Seek(target) and `steps` Next calls must walk exactly the reference's
// entries from its lower_bound.
void ExpectSeekMatches(kv::KVStore::Iterator* it,
                       const std::map<std::string, std::string>& ref,
                       const std::string& target, int steps) {
  SCOPED_TRACE("target '" + target + "'");
  it->Seek(target);
  auto want = ref.lower_bound(target);
  for (int i = 0; i < steps && want != ref.end(); i++, ++want) {
    ASSERT_TRUE(it->Valid()) << "step " << i;
    ASSERT_EQ(it->key(), want->first) << "step " << i;
    ASSERT_EQ(it->value(), want->second) << "step " << i;
    it->Next();
  }
  if (want == ref.end()) {
    EXPECT_FALSE(it->Valid());
  }
  ASSERT_TRUE(it->status().ok()) << it->status().ToString();
}

void ExpectIteratorMatches(LsmStore* store, const kv::Snapshot* snap,
                           const std::map<std::string, std::string>& ref,
                           const std::vector<std::string>& targets) {
  for (const int readahead : {0, 4}) {
    SCOPED_TRACE(StrPrintf("%s, readahead %d",
                           snap != nullptr ? "snapshot" : "live", readahead));
    auto it = store->NewIterator(
        kv::ReadOptions{.snapshot = snap, .readahead = readahead});
    // 200 steps cross at least one whole table (16 KiB, ~176 entries).
    for (const std::string& t : targets) {
      ExpectSeekMatches(it.get(), ref, t, 200);
    }
    ExpectSeekMatches(it.get(), ref, "", static_cast<int>(ref.size()) + 1);
  }
}

TEST_F(LsmStoreTest, IteratorMatchesReferenceAcrossFileBoundaries) {
  auto store = *LsmStore::Open(&fs_, ManyFilesOptions());
  testing::ReferenceModel model;
  BuildManyFileStore(store.get(), &model);
  if (HasFatalFailure()) return;

  // Deletes on both sides of a file boundary in the deepest level, and a
  // range delete spanning the next boundary; flushed into an L0 file.
  const VersionSet& v = store->versions();
  const std::vector<FileMeta>& deepest =
      v.LevelFiles(v.MaxPopulatedLevel());
  ASSERT_GE(deepest.size(), 4u);
  for (const std::string& k : {deepest[0].largest, deepest[1].smallest}) {
    ASSERT_TRUE(store->Delete(k).ok());
    model.Delete(k);
  }
  auto boundary = model.map().find(deepest[2].largest);
  ASSERT_NE(boundary, model.map().end());
  const std::string begin = std::prev(boundary, 5)->first;
  const std::string end = std::next(boundary, 6)->first;
  ASSERT_TRUE(store->DeleteRange(begin, end).ok());
  model.DeleteRange(begin, end);
  ASSERT_TRUE(store->Flush().ok());

  ExpectIteratorMatches(store.get(), nullptr, model.map(), EdgeTargets(v));

  // Snapshot mode: the cursor keeps reading the frozen levels while the
  // live store is overwritten, range-deleted and compacted.
  auto snap = *store->GetSnapshot();
  const std::map<std::string, std::string> frozen = model.map();
  const std::vector<std::string> frozen_targets = EdgeTargets(v);
  for (uint64_t id = 0; id < 3000; id += 3) {
    ASSERT_TRUE(store->Put(FixedKey(id), FixedValue(id, 9)).ok());
    model.Put(FixedKey(id), FixedValue(id, 9));
  }
  ASSERT_TRUE(store->DeleteRange(FixedKey(1000), FixedKey(1400)).ok());
  model.DeleteRange(FixedKey(1000), FixedKey(1400));
  ASSERT_TRUE(store->Flush().ok());
  ASSERT_TRUE(store->DrainCompactions().ok());

  ExpectIteratorMatches(store.get(), snap.get(), frozen, frozen_targets);
  ExpectIteratorMatches(store.get(), nullptr, model.map(), EdgeTargets(v));
  snap.reset();
  ASSERT_TRUE(store->Close().ok());
}

TEST(LsmLevelCursorTest, SeekReadsAtMostOneBlockPerSource) {
  block::MemoryBlockDevice dev(4096, 1 << 15);
  block::IoStatCollector io(&dev);
  fs::FsOptions fs_options;
  fs_options.append_alloc_pages = 8;
  fs::SimpleFs fs(&io, fs_options);
  auto store = *LsmStore::Open(&fs, ManyFilesOptions());
  testing::ReferenceModel model;
  BuildManyFileStore(store.get(), &model);
  if (HasFatalFailure()) return;

  // Warm-up full scan: every table's reader (index + bloom) is open.
  auto warm = store->NewIterator();
  size_t n = 0;
  for (warm->SeekToFirst(); warm->Valid(); warm->Next()) n++;
  ASSERT_TRUE(warm->status().ok());
  ASSERT_EQ(n, model.size());
  warm.reset();

  const VersionSet& v = store->versions();
  uint64_t sources = v.LevelFiles(0).size();
  uint64_t files = v.LevelFiles(0).size();
  for (int level = 1; level < v.num_levels(); level++) {
    if (!v.LevelFiles(level).empty()) sources++;
    files += v.LevelFiles(level).size();
  }
  ASSERT_GT(files, 2 * sources);
  // A readahead-0 Seek reads one block from each L0 file and from one
  // file per deeper level at most; seeking every file above the target
  // would read about one block per file.
  for (const std::string& target : EdgeTargets(v)) {
    const block::IoCounters before = io.counters();
    auto it = store->NewIterator();
    it->Seek(target);
    const uint64_t reads = (io.counters() - before).read_ops;
    ASSERT_TRUE(it->status().ok());
    EXPECT_LE(reads, sources) << "target '" << target << "'";
  }
  ASSERT_TRUE(store->Close().ok());
}

// 4000-byte values make every data block two entries, about 8 KB, at
// drifting offsets, so a block straddles two or three pages. A Get the
// blooms confine to one table must still cost one device command.
TEST(LsmPointReadTest, GetIssuesOneDeviceReadPerTable) {
  block::MemoryBlockDevice dev(4096, 1 << 15);
  block::IoStatCollector io(&dev);
  fs::FsOptions fs_options;
  fs_options.append_alloc_pages = 8;
  fs::SimpleFs fs(&io, fs_options);
  LsmOptions o = ManyFilesOptions();
  o.memtable_bytes = 64 << 10;
  o.l1_target_bytes = 256 << 10;
  o.sst_target_bytes = 64 << 10;
  o.block_bytes = 4096;
  auto store = *LsmStore::Open(&fs, o);
  constexpr uint64_t kKeys = 300;
  Rng rng(5);
  std::vector<uint64_t> ids(kKeys);
  for (uint64_t i = 0; i < kKeys; i++) ids[i] = i;
  for (uint64_t i = kKeys - 1; i > 0; i--) {
    std::swap(ids[i], ids[rng.Uniform(i + 1)]);
  }
  for (const uint64_t id : ids) {
    ASSERT_TRUE(store->Put(FixedKey(id), std::string(4000, 'v')).ok());
  }
  ASSERT_TRUE(store->Flush().ok());
  ASSERT_TRUE(store->DrainCompactions().ok());
  ASSERT_GE(store->versions().MaxPopulatedLevel(), 1) << store->DebugString();

  // Warm-up full scan: every table's reader (index + bloom) is open.
  auto warm = store->NewIterator();
  for (warm->SeekToFirst(); warm->Valid(); warm->Next()) {
  }
  ASSERT_TRUE(warm->status().ok());
  warm.reset();

  uint64_t confined = 0;
  for (uint64_t id = 0; id < kKeys; id++) {
    const uint64_t fp_before = store->GetStats().bloom_false_positives;
    const block::IoCounters before = io.counters();
    std::string value;
    ASSERT_TRUE(store->Get(FixedKey(id), &value).ok());
    const block::IoCounters delta = io.counters() - before;
    ASSERT_EQ(value.size(), 4000u);
    if (store->GetStats().bloom_false_positives != fp_before) continue;
    confined++;
    EXPECT_EQ(delta.read_ops, 1u) << FixedKey(id);
    EXPECT_LE(delta.read_bytes, 3 * 4096u) << FixedKey(id);
  }
  EXPECT_GE(confined, kKeys * 9 / 10);
  ASSERT_TRUE(store->Close().ok());
}

TEST_F(LsmStoreTest, LazyReaderOpenErrorSurfacesInStatus) {
  {
    auto store = *LsmStore::Open(&fs_, ManyFilesOptions());
    testing::ReferenceModel model;
    BuildManyFileStore(store.get(), &model);
    if (HasFatalFailure()) return;
    ASSERT_TRUE(store->Close().ok());
  }
  // Reopened, no reader is open yet; remove a deep table behind the
  // store's back so the level cursor's lazy open fails.
  auto store = *LsmStore::Open(&fs_, ManyFilesOptions());
  const VersionSet& v = store->versions();
  const FileMeta victim = v.LevelFiles(v.MaxPopulatedLevel())[1];
  ASSERT_TRUE(fs_.Delete(VersionSet::SstFileName("lsm", victim.number)).ok());
  auto it = store->NewIterator();
  it->Seek(victim.smallest);
  EXPECT_FALSE(it->Valid());
  EXPECT_FALSE(it->status().ok());
  it.reset();
  ASSERT_TRUE(store->Close().ok());
}

// A store whose data sits in one level of tables (CompactAll), with every
// table's reader open, on a clocked SSD: the scan-readahead fixture. The
// reference model holds the contents.
struct ScanFixture {
  ScanFixture(int channels, const LsmOptions& base, uint64_t keys,
              size_t value_bytes)
      : ssd(Config(channels), &clock), io(&ssd), fs(&io, FsOptions()) {
    LsmOptions o = base;
    o.clock = &clock;
    store = *LsmStore::Open(&fs, o);
    Rng rng(7);
    std::vector<uint64_t> ids(keys);
    for (uint64_t i = 0; i < keys; i++) ids[i] = i;
    for (uint64_t i = keys - 1; i > 0; i--) {
      std::swap(ids[i], ids[rng.Uniform(i + 1)]);
    }
    for (const uint64_t id : ids) {
      const std::string value = FixedValue(id, 0) +
                                std::string(value_bytes - 74, 'x');
      EXPECT_TRUE(store->Put(FixedKey(id), value).ok());
      model.Put(FixedKey(id), value);
    }
    EXPECT_TRUE(store->CompactAll().ok());
    // Warm-up full scan: every table's reader (index + bloom) is open.
    auto warm = store->NewIterator();
    size_t n = 0;
    for (warm->SeekToFirst(); warm->Valid(); warm->Next()) n++;
    EXPECT_TRUE(warm->status().ok());
    EXPECT_EQ(n, model.size());
  }

  static ssd::SsdConfig Config(int channels) {
    ssd::SsdConfig cfg;
    cfg.geometry.logical_bytes = 64ull << 20;
    cfg.channels = channels;
    cfg.timing.cache_bytes = 0;
    return cfg;
  }
  static fs::FsOptions FsOptions() {
    fs::FsOptions o;
    o.append_alloc_pages = 8;
    return o;
  }

  // The one populated level's tables.
  const std::vector<FileMeta>& Level() const {
    const VersionSet& v = store->versions();
    return v.LevelFiles(v.MaxPopulatedLevel());
  }
  // Data blocks of one table, from its own index.
  uint64_t Blocks(const FileMeta& f) {
    auto file = fs.Open(VersionSet::SstFileName("lsm", f.number));
    EXPECT_TRUE(file.ok());
    auto reader = SstReader::Open(*file);
    EXPECT_TRUE(reader.ok());
    return (*reader)->NumBlocks();
  }

  sim::SimClock clock;
  ssd::SsdDevice ssd;
  block::IoStatCollector io;
  fs::SimpleFs fs;
  std::unique_ptr<LsmStore> store;
  testing::ReferenceModel model;
};

// 4000-byte values make every data block two entries, about 8 KB, twice
// the nominal block_bytes. readahead counts blocks, so every span load
// but the level's last reads four of them, and a scan of B blocks takes
// ceil(B / 4) loads (a nominal-bytes window would read two per load).
TEST(LsmScanReadaheadTest, EverySpanLoadReadsReadaheadBlocks) {
  LsmOptions o = ManyFilesOptions();
  o.memtable_bytes = 64 << 10;
  o.l1_target_bytes = 256 << 10;
  o.sst_target_bytes = 64 << 10;
  o.block_bytes = 4096;
  o.read_queue_depth = 4;
  ScanFixture fx(4, o, 300, 4000);
  if (::testing::Test::HasFailure()) return;
  uint64_t blocks = 0;
  for (const FileMeta& f : fx.Level()) blocks += fx.Blocks(f);
  ASSERT_GE(fx.Level().size(), 3u);

  auto it = fx.store->NewIterator(kv::ReadOptions{.readahead = 4});
  std::vector<uint64_t> loads;  // bytes read by each cursor move that read
  auto move = [&](auto&& step) {
    const block::IoCounters before = fx.io.counters();
    step();
    const uint64_t bytes = (fx.io.counters() - before).read_bytes;
    if (bytes > 0) loads.push_back(bytes);
  };
  auto want = fx.model.map().begin();
  move([&] { it->SeekToFirst(); });
  for (; it->Valid(); move([&] { it->Next(); }), ++want) {
    ASSERT_NE(want, fx.model.map().end());
    ASSERT_EQ(it->key(), want->first);
    ASSERT_EQ(it->value(), want->second);
  }
  ASSERT_TRUE(it->status().ok()) << it->status().ToString();
  EXPECT_EQ(want, fx.model.map().end());
  EXPECT_EQ(loads.size(), (blocks + 3) / 4);
  for (size_t i = 0; i + 1 < loads.size(); i++) {
    EXPECT_GE(loads[i], 4 * 8000u) << "span load " << i << " of "
                                   << loads.size();
  }
  it.reset();
  ASSERT_TRUE(fx.store->Close().ok());
}

// Tables of three ~4 KiB blocks under an eight-block window: a scan
// across k tables must not pay a round trip per table. Each window's
// eight one-block chunks go out on eight lanes (eight channels), so a
// window costs one command's latency, and the scan completes in
// ceil(blocks / 8) of them.
TEST(LsmScanReadaheadTest, WindowContinuesAcrossTableBoundaries) {
  LsmOptions o = ManyFilesOptions();
  o.memtable_bytes = 64 << 10;
  o.l1_target_bytes = 256 << 10;
  o.sst_target_bytes = 12 << 10;
  o.read_queue_depth = 8;
  ScanFixture fx(8, o, 1200, 500);
  if (::testing::Test::HasFailure()) return;
  const std::vector<FileMeta>& level = fx.Level();
  constexpr size_t kFirst = 5, kTables = 24;
  ASSERT_GE(level.size(), kFirst + kTables + 1);
  uint64_t blocks = 0;
  for (size_t f = kFirst; f < kFirst + kTables; f++) {
    const uint64_t b = fx.Blocks(level[f]);
    ASSERT_LT(b, 8u);  // every table is smaller than the window
    blocks += b;
  }

  for (const bool snapshot : {false, true}) {
    SCOPED_TRACE(snapshot ? "snapshot" : "live");
    std::shared_ptr<const kv::Snapshot> snap;
    if (snapshot) snap = *fx.store->GetSnapshot();
    auto it = fx.store->NewIterator(
        kv::ReadOptions{.snapshot = snap.get(), .readahead = 8});
    const int64_t t0 = fx.clock.NowNanos();
    it->Seek(level[kFirst].smallest);
    auto want = fx.model.map().find(level[kFirst].smallest);
    const auto last = fx.model.map().find(level[kFirst + kTables - 1].largest);
    ASSERT_NE(last, fx.model.map().end());
    for (;; ++want) {
      ASSERT_TRUE(it->Valid());
      ASSERT_EQ(it->key(), want->first);
      ASSERT_EQ(it->value(), want->second);
      if (want == last) break;
      it->Next();
    }
    ASSERT_TRUE(it->status().ok()) << it->status().ToString();
    const int64_t elapsed = fx.clock.NowNanos() - t0;
    // One round trip: 90 us command latency plus a two-page transfer.
    const int64_t round_trip = 90'000 + 10'000;
    const uint64_t windows = (blocks + 7) / 8;
    EXPECT_LE(elapsed, static_cast<int64_t>(windows) * round_trip)
        << blocks << " blocks over " << kTables << " tables";
    EXPECT_LT(windows, kTables);
  }
  ASSERT_TRUE(fx.store->Close().ok());
}

// The window's next table opens lazily inside the round trip; a failure
// there must surface in status(), not as wrong data or an abort.
TEST_F(LsmStoreTest, PrefetchedTableOpenErrorSurfacesInStatus) {
  {
    auto store = *LsmStore::Open(&fs_, ManyFilesOptions());
    testing::ReferenceModel model;
    BuildManyFileStore(store.get(), &model);
    if (HasFatalFailure()) return;
    ASSERT_TRUE(store->Close().ok());
  }
  // Reopened, no reader is open yet; remove the table after the seek
  // target's so only the window's continuation can fail.
  auto store = *LsmStore::Open(&fs_, ManyFilesOptions());
  const VersionSet& v = store->versions();
  const std::vector<FileMeta>& level = v.LevelFiles(v.MaxPopulatedLevel());
  ASSERT_GE(level.size(), 3u);
  const FileMeta target = level[1];
  const FileMeta victim = level[2];
  ASSERT_TRUE(fs_.Delete(VersionSet::SstFileName("lsm", victim.number)).ok());
  // A 16 KiB table holds about four blocks: a 64-block window reaches
  // past it into the victim on the Seek's own round trip.
  auto it = store->NewIterator(kv::ReadOptions{.readahead = 64});
  it->Seek(target.smallest);
  EXPECT_FALSE(it->Valid());
  EXPECT_FALSE(it->status().ok());
  it->Next();  // a failed cursor stays failed
  EXPECT_FALSE(it->Valid());
  EXPECT_FALSE(it->status().ok());
  it.reset();
  ASSERT_TRUE(store->Close().ok());
}

// The micro_cache op stream (load, then skewed single-put overwrites) on
// bare lsm with no snapshot open. Every overwrite of a memtable-resident
// key replaces its version in place, so the memtable fills with distinct
// keys only: the pinned flush count and engine write bytes (2.20 MiB)
// are what the engine wrote before multi-version memtables. Keeping every
// version flushed 12 times and wrote 3.59 MiB.
TEST(LsmMemtableTest, OverwritesWithoutSnapshotsStayInPlace) {
  sim::SimClock clock;
  ssd::SsdConfig cfg;
  cfg.geometry.logical_bytes = 512ull << 20;
  cfg.channels = 2;
  cfg.timing.cache_bytes = 0;
  ssd::SsdDevice ssd(cfg, &clock);
  fs::SimpleFs fs(&ssd, {});
  kv::EngineOptions options;
  options.engine = "lsm";
  options.fs = &fs;
  options.clock = &clock;
  options.params = {{"memtable_bytes", std::to_string(128 << 10)},
                    {"l1_target_bytes", std::to_string(512 << 10)},
                    {"sst_target_bytes", std::to_string(256 << 10)}};
  auto opened = kv::OpenStore(options);
  ASSERT_TRUE(opened.ok());
  auto* store = dynamic_cast<LsmStore*>(opened->get());
  ASSERT_NE(store, nullptr);

  constexpr uint64_t kKeys = 1024, kChurn = 4000;
  constexpr size_t kValueBytes = 256;
  uint64_t flushes = 0;
  auto write = [&](const kv::WriteBatch& batch) {
    ASSERT_TRUE(store->Write(batch).ok());
    if (store->MemtableBytes() == 0) flushes++;
  };
  kv::WriteBatch batch;
  for (uint64_t id = 0; id < kKeys; id++) {
    batch.Put(kv::MakeKey(id), kv::MakeValue(id * 31 + 7, kValueBytes));
    if (batch.Count() >= 32) {
      write(batch);
      batch.Clear();
    }
  }
  const uint64_t hot = kKeys / 8;
  uint64_t next = 0x9e3779b97f4a7c15ull;
  for (uint64_t i = 0; i < kChurn; i++) {
    next = next * 6364136223846793005ull + 1442695040888963407ull;
    const uint64_t pick = next >> 17;
    const uint64_t id = pick % 10 < 8 ? pick % hot : pick % kKeys;
    batch.Clear();
    batch.Put(kv::MakeKey(id), kv::MakeValue(i ^ id, kValueBytes));
    write(batch);
  }
  ASSERT_TRUE(store->Flush().ok());
  const kv::KvStoreStats s = store->GetStats();
  EXPECT_EQ(flushes, 4u);
  EXPECT_EQ(s.wal_bytes_written + s.flush_bytes_written +
                s.compaction_bytes_written,
            2306664u);
  ASSERT_TRUE(store->Close().ok());
}

// An open snapshot keeps the version it reads: overwrites insert new
// versions in front of it instead of replacing it, in the memtable and
// across a flush; versions no snapshot reads are still replaced.
TEST_F(LsmStoreTest, SnapshotReadsOldVersionAfterOverwrites) {
  auto store = *LsmStore::Open(&fs_, TinyOptions());
  ASSERT_TRUE(store->Put("k", "v0").ok());
  ASSERT_TRUE(store->Put("other", "o0").ok());
  auto snap = *store->GetSnapshot();
  const uint64_t before = store->MemtableBytes();
  for (int i = 1; i <= 5; i++) {
    ASSERT_TRUE(store->Put("k", "v" + std::to_string(i)).ok());
  }
  // v0 is pinned; v1..v4 are replaced in place by their successors.
  EXPECT_EQ(store->MemtableBytes(), before + 64 + 1 + 2);
  auto expect = [&](const kv::Snapshot* s, const std::string& key,
                    const std::string& value) {
    std::string got;
    ASSERT_TRUE(store->Get(kv::ReadOptions{.snapshot = s}, key, &got).ok());
    EXPECT_EQ(got, value) << key;
  };
  expect(snap.get(), "k", "v0");
  expect(nullptr, "k", "v5");
  ASSERT_TRUE(store->Flush().ok());
  ASSERT_TRUE(store->Put("k", "v6").ok());
  expect(snap.get(), "k", "v0");
  expect(nullptr, "k", "v6");
  auto it = store->NewIterator(kv::ReadOptions{.snapshot = snap.get()});
  it->Seek("k");
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key(), "k");
  EXPECT_EQ(it->value(), "v0");
  it.reset();
  snap.reset();
  // No snapshot left: the next overwrite replaces v6 in place.
  const uint64_t unpinned = store->MemtableBytes();
  ASSERT_TRUE(store->Put("k", "v7").ok());
  EXPECT_EQ(store->MemtableBytes(), unpinned);
  ASSERT_TRUE(store->Close().ok());
}

// Every table fits SstBuilder's 256 KiB write buffer, so Finish writes
// the whole file: one command for its one extent (a separate command for
// the tail page would make two).
TEST(LsmSstFinishTest, OneExtentFileIsOneWriteCommand) {
  block::MemoryBlockDevice dev(4096, 1 << 14);
  testing::WriteLogDevice log(&dev);
  fs::SimpleFs fs(&log, {});
  fs::File* file = *fs.Create("t.sst");
  const uint64_t writes = log.writes();
  SstBuilder builder(file, 1024, 10);
  for (int i = 0; i < 300; i++) {
    ASSERT_TRUE(builder
                    .Add(kv::MakeKey(i), 100 + i, EntryType::kPut,
                         kv::MakeValue(i, 100))
                    .ok());
  }
  ASSERT_TRUE(builder.Finish().ok());
  EXPECT_EQ(file->ExtentCount(), 1u);
  EXPECT_GT(file->size(), 8 * 4096u);
  EXPECT_EQ(file->synced_size(), file->size());
  EXPECT_EQ(log.writes() - writes, 1u);
  auto reader = SstReader::Open(file);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ((*reader)->num_entries(), 300u);
}

// One L0 -> L1 compaction of four overlapping L0 tables on a timed SSD,
// through the store's one install path, on a one-lane pool (K=1) and
// a four-lane pool (K=4). Counted at the device: metadata-region writes (LBAs below
// FsOptions::metadata_pages).
class LsmInstallTest : public ::testing::TestWithParam<int> {
 protected:
  static ssd::SsdConfig Config() {
    ssd::SsdConfig cfg;
    cfg.geometry.logical_bytes = 64ull << 20;
    cfg.channels = 4;
    cfg.timing.cache_bytes = 0;
    return cfg;
  }

  LsmInstallTest() : ssd(Config(), &clock), log(&ssd), fs(&log, {}) {
    LsmOptions o;
    o.memtable_bytes = 256 << 10;  // a round fits: one flush, one table
    o.l0_compaction_trigger = 4;
    o.l0_stall_trigger = 1000;
    o.l1_target_bytes = 64 << 20;  // nothing below L1 is ever due
    o.sst_target_bytes = 64 << 10;
    o.block_bytes = 1024;
    o.compaction_work_per_user_write = 0;  // compaction waits for Drain
    o.background_io = true;
    o.clock = &clock;
    o.compaction_parallelism = GetParam();
    store = *LsmStore::Open(&fs, o);
  }

  // Four flushed L0 tables over the same key range.
  void FillL0() {
    for (int round = 0; round < 4; round++) {
      for (int i = 0; i < 400; i++) {
        ASSERT_TRUE(store
                        ->Put(kv::MakeKey(i * 7 % 400),
                              kv::MakeValue(round * 1000 + i, 100))
                        .ok());
      }
      ASSERT_TRUE(store->Flush().ok());
    }
    ASSERT_EQ(store->versions().LevelFiles(0).size(), 4u);
    ASSERT_TRUE(store->versions().LevelFiles(1).empty());
  }

  std::vector<std::string> L0Names() const {
    std::vector<std::string> names;
    for (const FileMeta& f : store->versions().LevelFiles(0)) {
      names.push_back(VersionSet::SstFileName("lsm", f.number));
    }
    return names;
  }
  uint64_t MetadataWrites() const {
    return log.WritesBelow(fs.options().metadata_pages);
  }

  sim::SimClock clock;
  ssd::SsdDevice ssd;
  testing::WriteLogDevice log;
  fs::SimpleFs fs;
  std::unique_ptr<LsmStore> store;
};

TEST_P(LsmInstallTest, OneMetadataWriteDeletesAllInputs) {
  FillL0();
  if (HasFatalFailure()) return;
  const std::vector<std::string> inputs = L0Names();
  const uint64_t meta = MetadataWrites();
  ASSERT_TRUE(store->DrainCompactions().ok());
  const uint64_t outputs = store->versions().LevelFiles(1).size();
  ASSERT_TRUE(store->versions().LevelFiles(0).empty());
  ASSERT_GE(outputs, 1u);
  for (const std::string& name : inputs) EXPECT_FALSE(fs.Exists(name));
  // One create per output, then ONE page for the install's group delete
  // of all four inputs.
  EXPECT_EQ(MetadataWrites() - meta, outputs + 1);
  ASSERT_TRUE(store->Close().ok());
}

TEST_P(LsmInstallTest, PinnedInputsBecomeZombiesDeletedOnceOnUnpin) {
  FillL0();
  if (HasFatalFailure()) return;
  const std::vector<std::string> inputs = L0Names();
  auto snap = *store->GetSnapshot();
  const uint64_t meta = MetadataWrites();
  ASSERT_TRUE(store->DrainCompactions().ok());
  const uint64_t outputs = store->versions().LevelFiles(1).size();
  // Every input is pinned: the install deletes nothing.
  for (const std::string& name : inputs) EXPECT_TRUE(fs.Exists(name));
  EXPECT_EQ(MetadataWrites() - meta, outputs);
  EXPECT_GT(store->GetStats().snapshot_pinned_bytes, 0u);

  const uint64_t before_unpin = MetadataWrites();
  snap.reset();
  for (const std::string& name : inputs) EXPECT_FALSE(fs.Exists(name));
  EXPECT_EQ(MetadataWrites() - before_unpin, inputs.size());
  EXPECT_EQ(store->GetStats().snapshot_pinned_bytes, 0u);
  ASSERT_TRUE(store->Close().ok());
}

INSTANTIATE_TEST_SUITE_P(SingleJobAndSubcompactions, LsmInstallTest,
                         ::testing::Values(1, 4));

// Property sweep over workload shapes: the store must match the reference
// model under every mix.
class LsmPropertyTest
    : public ::testing::TestWithParam<std::tuple<double, int, uint64_t>> {};

TEST_P(LsmPropertyTest, ModelEquivalence) {
  const double put_bias = std::get<0>(GetParam());
  const int value_bytes = std::get<1>(GetParam());
  const uint64_t seed = std::get<2>(GetParam());
  block::MemoryBlockDevice dev(4096, 1 << 15);
  fs::SimpleFs fs(&dev, {});
  auto store = *LsmStore::Open(&fs, TinyOptions());
  testing::ReferenceModel model;
  Rng rng(seed);
  testing::RunRandomOps(store.get(), &model, &rng, 4000, 1000, value_bytes,
                        put_bias);
  testing::VerifyAll(store.get(), model);
  EXPECT_TRUE(store->versions().CheckInvariants().ok());
  ASSERT_TRUE(store->Close().ok());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LsmPropertyTest,
    ::testing::Combine(::testing::Values(0.5, 0.95),
                       ::testing::Values(16, 700),
                       ::testing::Values(101u, 202u)));

}  // namespace
}  // namespace ptsb::lsm
