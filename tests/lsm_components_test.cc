// Tests for LSM building blocks: memtable skiplist, bloom filter, SST
// builder/reader/iterator, WAL framing and replay, version set/manifest.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "block/memory_device.h"
#include "fs/file.h"
#include "fs/filesystem.h"
#include "lsm/bloom.h"
#include "lsm/compaction.h"
#include "lsm/memtable.h"
#include "lsm/sst.h"
#include "lsm/version.h"
#include "lsm/wal.h"
#include "util/human.h"
#include "util/logging.h"
#include "util/random.h"

namespace ptsb::lsm {
namespace {

TEST(MemtableTest, AddAndGet) {
  Memtable mt;
  mt.Add("b", 1, EntryType::kPut, "vb");
  mt.Add("a", 2, EntryType::kPut, "va");
  auto r = mt.Get("a");
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.value, "va");
  EXPECT_FALSE(mt.Get("c").found);
  EXPECT_EQ(mt.entries(), 2u);
}

TEST(MemtableTest, UpdateKeepsEveryVersion) {
  // Multi-version: an update inserts a new version instead of replacing
  // in place, so a snapshot bound can still reach the old one.
  Memtable mt;
  mt.Add("k", 1, EntryType::kPut, "v1");
  mt.Add("k", 2, EntryType::kPut, "v2");
  auto r = mt.Get("k");
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.value, "v2");
  EXPECT_EQ(r.seq, 2u);
  EXPECT_EQ(mt.entries(), 2u);
}

TEST(MemtableTest, OverwritesInPlaceUnlessASnapshotReadsTheVersion) {
  Memtable mt;
  mt.Add("k", 1, EntryType::kPut, "v1", /*snapshot_seq=*/0);
  mt.Add("k", 2, EntryType::kPut, "v2", /*snapshot_seq=*/0);
  EXPECT_EQ(mt.entries(), 1u);  // no snapshot: replaced in place
  // A snapshot at sequence 2 reads v2: the next version goes in front.
  mt.Add("k", 3, EntryType::kPut, "v3", /*snapshot_seq=*/2);
  EXPECT_EQ(mt.entries(), 2u);
  // v3 is above every snapshot: replaced in place.
  mt.Add("k", 4, EntryType::kDelete, "", /*snapshot_seq=*/2);
  EXPECT_EQ(mt.entries(), 2u);
  EXPECT_TRUE(mt.Get("k").deleted);
  EXPECT_EQ(mt.Get("k").seq, 4u);
  EXPECT_EQ(mt.Get("k", 3).value, "v2");
  EXPECT_FALSE(mt.Get("k", 1).found);
}

TEST(MemtableTest, SequenceBoundedGet) {
  Memtable mt;
  mt.Add("k", 1, EntryType::kPut, "v1");
  mt.Add("k", 3, EntryType::kDelete, "");
  mt.Add("k", 5, EntryType::kPut, "v5");
  // Unbounded: newest version.
  EXPECT_EQ(mt.Get("k").value, "v5");
  // At the tombstone.
  auto r3 = mt.Get("k", 3);
  ASSERT_TRUE(r3.found);
  EXPECT_TRUE(r3.deleted);
  // Before the tombstone.
  auto r2 = mt.Get("k", 2);
  ASSERT_TRUE(r2.found);
  EXPECT_EQ(r2.value, "v1");
  EXPECT_EQ(r2.seq, 1u);
  // Before the key existed.
  EXPECT_FALSE(mt.Get("k", 0).found);
}

TEST(MemtableTest, TombstoneVisible) {
  Memtable mt;
  mt.Add("k", 1, EntryType::kPut, "v");
  mt.Add("k", 2, EntryType::kDelete, "");
  auto r = mt.Get("k");
  ASSERT_TRUE(r.found);
  EXPECT_TRUE(r.deleted);
}

TEST(MemtableTest, IterationIsInternalOrder) {
  // Every version is iterated, in internal order: user key ascending,
  // sequence descending within one key.
  Memtable mt;
  Rng rng(1);
  std::set<std::string> keys;
  const int kN = 1000;
  for (int i = 0; i < kN; i++) {
    const std::string k = "k" + std::to_string(rng.Uniform(10000));
    keys.insert(k);
    mt.Add(k, i + 1, EntryType::kPut, "v");
  }
  Memtable::Iterator it(&mt);
  std::set<std::string> seen;
  int count = 0;
  std::string prev_key;
  SequenceNumber prev_seq = 0;
  for (it.SeekToFirst(); it.Valid(); it.Next()) {
    if (count > 0) {
      if (it.key() == prev_key) {
        EXPECT_LT(it.seq(), prev_seq);  // older versions follow newer
      } else {
        EXPECT_GT(it.key(), prev_key);
      }
    }
    prev_key = it.key();
    prev_seq = it.seq();
    seen.insert(prev_key);
    count++;
  }
  EXPECT_EQ(count, kN);    // nothing collapsed
  EXPECT_EQ(seen, keys);   // exactly the user keys written
}

TEST(MemtableTest, SeekFindsLowerBound) {
  Memtable mt;
  mt.Add("b", 1, EntryType::kPut, "");
  mt.Add("d", 2, EntryType::kPut, "");
  Memtable::Iterator it(&mt);
  it.Seek("c");
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), "d");
  it.Seek("e");
  EXPECT_FALSE(it.Valid());
}

TEST(MemtableTest, BytesTracked) {
  Memtable mt;
  EXPECT_EQ(mt.ApproximateBytes(), 0u);
  mt.Add("key", 1, EntryType::kPut, std::string(100, 'v'));
  const uint64_t b1 = mt.ApproximateBytes();
  EXPECT_GE(b1, 103u);
  // Updating inserts a new version: accounted bytes grow (the old version
  // stays reachable for snapshot-bounded reads until the next flush).
  mt.Add("key", 2, EntryType::kPut, "v");
  EXPECT_GT(mt.ApproximateBytes(), b1);
}

TEST(BloomTest, NoFalseNegatives) {
  BloomFilterBuilder builder(10);
  std::vector<std::string> keys;
  for (int i = 0; i < 2000; i++) keys.push_back("key" + std::to_string(i));
  for (const auto& k : keys) builder.AddKey(k);
  BloomFilter filter(builder.Finish());
  for (const auto& k : keys) EXPECT_TRUE(filter.MayContain(k));
}

TEST(BloomTest, LowFalsePositiveRate) {
  BloomFilterBuilder builder(10);
  for (int i = 0; i < 10000; i++) builder.AddKey("in" + std::to_string(i));
  BloomFilter filter(builder.Finish());
  int fp = 0;
  const int kProbes = 10000;
  for (int i = 0; i < kProbes; i++) {
    if (filter.MayContain("out" + std::to_string(i))) fp++;
  }
  // 10 bits/key gives ~1% FP; allow generous margin.
  EXPECT_LT(fp, kProbes / 20);
}

TEST(BloomTest, DisabledMatchesEverything) {
  BloomFilterBuilder builder(0);
  builder.AddKey("a");
  BloomFilter filter(builder.Finish());
  EXPECT_TRUE(filter.MayContain("anything"));
  EXPECT_TRUE(filter.empty());
}

class SstTest : public ::testing::Test {
 protected:
  SstTest() : dev_(4096, 4096), fs_(&dev_, {}) {}
  block::MemoryBlockDevice dev_;
  fs::SimpleFs fs_;
};

TEST_F(SstTest, BuildAndGet) {
  fs::File* file = *fs_.Create("t.sst");
  SstBuilder builder(file, 4096, 10);
  for (int i = 0; i < 1000; i++) {
    char key[16];
    snprintf(key, sizeof(key), "k%06d", i);
    ASSERT_TRUE(builder.Add(key, 1000 + i, EntryType::kPut,
                            "value" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(builder.Finish().ok());
  EXPECT_EQ(builder.num_entries(), 1000u);
  EXPECT_EQ(builder.smallest(), "k000000");
  EXPECT_EQ(builder.largest(), "k000999");

  auto reader = SstReader::Open(file);
  ASSERT_TRUE(reader.ok());
  for (int i : {0, 1, 499, 998, 999}) {
    char key[16];
    snprintf(key, sizeof(key), "k%06d", i);
    auto r = (*reader)->Get(key);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r->found) << key;
    EXPECT_EQ(r->value, "value" + std::to_string(i));
    EXPECT_EQ(r->seq, 1000u + i);
  }
  auto miss = (*reader)->Get("k9999999");
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(miss->found);
}

TEST_F(SstTest, NewestVersionWinsWithinTable) {
  fs::File* file = *fs_.Create("t.sst");
  SstBuilder builder(file, 4096, 10);
  // Internal order: same key, descending seq.
  ASSERT_TRUE(builder.Add("k", 5, EntryType::kPut, "new").ok());
  ASSERT_TRUE(builder.Add("k", 3, EntryType::kPut, "old").ok());
  ASSERT_TRUE(builder.Finish().ok());
  auto reader = SstReader::Open(file);
  ASSERT_TRUE(reader.ok());
  auto r = (*reader)->Get("k");
  ASSERT_TRUE(r.ok() && r->found);
  EXPECT_EQ(r->value, "new");
  EXPECT_EQ(r->seq, 5u);
}

TEST_F(SstTest, TombstonesSurfaceAsDeleteType) {
  fs::File* file = *fs_.Create("t.sst");
  SstBuilder builder(file, 4096, 10);
  ASSERT_TRUE(builder.Add("k", 7, EntryType::kDelete, "").ok());
  ASSERT_TRUE(builder.Finish().ok());
  auto reader = SstReader::Open(file);
  auto r = (*reader)->Get("k");
  ASSERT_TRUE(r.ok() && r->found);
  EXPECT_EQ(r->type, EntryType::kDelete);
}

TEST_F(SstTest, IteratorWalksEverythingInOrder) {
  fs::File* file = *fs_.Create("t.sst");
  SstBuilder builder(file, 1024, 10);  // small blocks: many of them
  const int kN = 500;
  for (int i = 0; i < kN; i++) {
    char key[16];
    snprintf(key, sizeof(key), "k%06d", i);
    ASSERT_TRUE(
        builder.Add(key, i + 1, EntryType::kPut, std::string(50, 'x')).ok());
  }
  ASSERT_TRUE(builder.Finish().ok());
  auto reader = SstReader::Open(file);
  ASSERT_TRUE(reader.ok());
  SstReader::Iterator it(reader->get());
  ASSERT_TRUE(it.SeekToFirst().ok());
  int count = 0;
  std::string prev;
  while (it.Valid()) {
    if (count > 0) {
      EXPECT_GT(it.key(), prev);
    }
    prev = it.key();
    count++;
    ASSERT_TRUE(it.Next().ok());
  }
  EXPECT_EQ(count, kN);
}

TEST_F(SstTest, IteratorSeek) {
  fs::File* file = *fs_.Create("t.sst");
  SstBuilder builder(file, 1024, 10);
  for (int i = 0; i < 100; i += 2) {  // even keys only
    char key[16];
    snprintf(key, sizeof(key), "k%06d", i);
    ASSERT_TRUE(builder.Add(key, i + 1, EntryType::kPut, "v").ok());
  }
  ASSERT_TRUE(builder.Finish().ok());
  auto reader = SstReader::Open(file);
  SstReader::Iterator it(reader->get());
  ASSERT_TRUE(it.Seek("k000051").ok());  // odd: lands on 52
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), "k000052");
  ASSERT_TRUE(it.Seek("k000099").ok());
  EXPECT_FALSE(it.Valid());
}

TEST_F(SstTest, CorruptBlockDetected) {
  fs::File* file = *fs_.Create("t.sst");
  SstBuilder builder(file, 4096, 10);
  for (int i = 0; i < 100; i++) {
    char key[16];
    snprintf(key, sizeof(key), "k%06d", i);
    ASSERT_TRUE(
        builder.Add(key, i + 1, EntryType::kPut, std::string(200, 'x')).ok());
  }
  ASSERT_TRUE(builder.Finish().ok());
  // Flip a byte inside the first data block (offset 100 is data).
  std::string page(4096, '\0');
  ASSERT_TRUE(file->ReadAt(0, 4096, page.data()).ok());
  page[100] ^= 0xff;
  ASSERT_TRUE(file->WriteAt(0, page).ok());
  auto reader = SstReader::Open(file);
  ASSERT_TRUE(reader.ok());  // footer/index are intact
  auto r = (*reader)->Get("k000000");
  EXPECT_TRUE(r.status().IsCorruption());
}

TEST_F(SstTest, OpenRejectsGarbage) {
  fs::File* file = *fs_.Create("junk");
  ASSERT_TRUE(file->Append(std::string(8192, 'j')).ok());
  ASSERT_TRUE(file->Sync().ok());
  EXPECT_TRUE(SstReader::Open(file).status().IsCorruption());
  fs::File* tiny = *fs_.Create("tiny");
  ASSERT_TRUE(tiny->Append("x").ok());
  EXPECT_TRUE(SstReader::Open(tiny).status().IsCorruption());
}

class WalTest : public ::testing::Test {
 protected:
  WalTest() : dev_(4096, 2048), fs_(&dev_, {}) {}
  block::MemoryBlockDevice dev_;
  fs::SimpleFs fs_;
};

TEST_F(WalTest, WriteAndReplay) {
  fs::File* file = *fs_.Create("wal");
  WalWriter writer(file, 0);
  ASSERT_TRUE(writer.Add("a", 1, EntryType::kPut, "va").ok());
  ASSERT_TRUE(writer.Add("b", 2, EntryType::kDelete, "").ok());
  ASSERT_TRUE(writer.Sync().ok());

  std::vector<std::tuple<std::string, SequenceNumber, EntryType, std::string>>
      got;
  ASSERT_TRUE(ReplayWal(file, [&](std::string_view k, SequenceNumber s,
                                  EntryType t, std::string_view v) {
                got.emplace_back(std::string(k), s, t, std::string(v));
              }).ok());
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(std::get<0>(got[0]), "a");
  EXPECT_EQ(std::get<1>(got[0]), 1u);
  EXPECT_EQ(std::get<2>(got[1]), EntryType::kDelete);
}

TEST_F(WalTest, ReplayStopsAtTornTail) {
  fs::File* file = *fs_.Create("wal");
  // Small writer buffer so records reach the filesystem promptly; the
  // filesystem's own page buffering still leaves a torn tail on crash.
  WalWriter writer(file, 0, /*buffer_bytes=*/1);
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(
        writer.Add("k" + std::to_string(i), i + 1, EntryType::kPut,
                   std::string(3000, 'v')).ok());
  }
  // No sync: simulate a crash that loses the buffered tail.
  fs_.SimulateCrash();
  int replayed = 0;
  ASSERT_TRUE(ReplayWal(file, [&](std::string_view, SequenceNumber,
                                  EntryType, std::string_view) {
                replayed++;
              }).ok());
  EXPECT_LT(replayed, 10);  // the torn record and later ones are dropped
  EXPECT_GE(replayed, 1);   // durable full pages replay fine
}

TEST_F(WalTest, BufferedRecordsLostWithoutFlush) {
  fs::File* file = *fs_.Create("wal");
  WalWriter writer(file, 0, /*buffer_bytes=*/64 << 10);
  ASSERT_TRUE(writer.Add("k", 1, EntryType::kPut, "small").ok());
  // Entirely buffered: nothing on the filesystem yet (RocksDB's unsynced
  // WAL semantics).
  int replayed = 0;
  ASSERT_TRUE(ReplayWal(file, [&](std::string_view, SequenceNumber,
                                  EntryType, std::string_view) {
                replayed++;
              }).ok());
  EXPECT_EQ(replayed, 0);
  // Sync makes it durable.
  ASSERT_TRUE(writer.Sync().ok());
  ASSERT_TRUE(ReplayWal(file, [&](std::string_view, SequenceNumber,
                                  EntryType, std::string_view) {
                replayed++;
              }).ok());
  EXPECT_EQ(replayed, 1);
}

TEST_F(WalTest, CorruptRecordStopsReplay) {
  fs::File* file = *fs_.Create("wal");
  WalWriter writer(file, 0);
  for (int i = 0; i < 5; i++) {
    ASSERT_TRUE(writer.Add("key" + std::to_string(i), i + 1, EntryType::kPut,
                           std::string(100, 'v')).ok());
  }
  ASSERT_TRUE(writer.Sync().ok());
  // Corrupt the third record's payload area.
  std::string page(4096, '\0');
  ASSERT_TRUE(file->ReadAt(0, 4096, page.data()).ok());
  page[260] ^= 0x01;
  ASSERT_TRUE(file->Extend(4096).ok());
  ASSERT_TRUE(file->WriteAt(0, page).ok());
  int replayed = 0;
  ASSERT_TRUE(ReplayWal(file, [&](std::string_view, SequenceNumber,
                                  EntryType, std::string_view) {
                replayed++;
              }).ok());
  EXPECT_LT(replayed, 5);
}

class VersionTest : public ::testing::Test {
 protected:
  VersionTest() : dev_(4096, 4096), fs_(&dev_, {}) {}

  static FileMeta MakeFile(uint64_t number, const std::string& lo,
                           const std::string& hi) {
    FileMeta f;
    f.number = number;
    f.file_bytes = 1000;
    f.num_entries = 10;
    f.smallest = lo;
    f.largest = hi;
    return f;
  }

  block::MemoryBlockDevice dev_;
  fs::SimpleFs fs_;
};

TEST_F(VersionTest, EditEncodeDecodeRoundTrip) {
  VersionEdit edit;
  edit.next_file_number = 42;
  edit.last_sequence = 1234567;
  edit.log_number = 7;
  edit.added.emplace_back(2, MakeFile(10, "aaa", "zzz"));
  edit.removed.emplace_back(1, 9);
  auto decoded = VersionEdit::Decode(edit.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded->next_file_number, 42u);
  EXPECT_EQ(*decoded->last_sequence, 1234567u);
  EXPECT_EQ(*decoded->log_number, 7u);
  ASSERT_EQ(decoded->added.size(), 1u);
  EXPECT_EQ(decoded->added[0].first, 2);
  EXPECT_EQ(decoded->added[0].second.smallest, "aaa");
  ASSERT_EQ(decoded->removed.size(), 1u);
  EXPECT_EQ(decoded->removed[0].second, 9u);
}

TEST_F(VersionTest, DecodeRejectsGarbage) {
  EXPECT_FALSE(VersionEdit::Decode("\xff\xff\xff garbage").ok());
}

TEST_F(VersionTest, RecoverFreshThenPersist) {
  {
    VersionSet vs(&fs_, "db", 7);
    ASSERT_TRUE(vs.Recover().ok());
    VersionEdit edit;
    edit.added.emplace_back(1, MakeFile(5, "a", "m"));
    edit.added.emplace_back(1, MakeFile(6, "n", "z"));
    edit.last_sequence = 99;
    ASSERT_TRUE(vs.LogAndApply(edit).ok());
    ASSERT_TRUE(vs.CheckInvariants().ok());
  }
  {
    // A second VersionSet recovers the same state from disk.
    VersionSet vs(&fs_, "db", 7);
    ASSERT_TRUE(vs.Recover().ok());
    EXPECT_EQ(vs.LevelFiles(1).size(), 2u);
    EXPECT_EQ(vs.last_sequence(), 99u);
    EXPECT_GE(vs.NewFileNumber(), 7u);  // never reuses persisted numbers
    ASSERT_TRUE(vs.CheckInvariants().ok());
  }
}

TEST_F(VersionTest, L0OrderedNewestFirst) {
  VersionSet vs(&fs_, "db", 7);
  ASSERT_TRUE(vs.Recover().ok());
  VersionEdit edit;
  edit.added.emplace_back(0, MakeFile(3, "a", "z"));
  edit.added.emplace_back(0, MakeFile(8, "a", "z"));
  edit.added.emplace_back(0, MakeFile(5, "a", "z"));
  ASSERT_TRUE(vs.LogAndApply(edit).ok());
  const auto& l0 = vs.LevelFiles(0);
  ASSERT_EQ(l0.size(), 3u);
  EXPECT_EQ(l0[0].number, 8u);
  EXPECT_EQ(l0[1].number, 5u);
  EXPECT_EQ(l0[2].number, 3u);
}

TEST_F(VersionTest, OverlappingQuery) {
  VersionSet vs(&fs_, "db", 7);
  ASSERT_TRUE(vs.Recover().ok());
  VersionEdit edit;
  edit.added.emplace_back(2, MakeFile(1, "a", "f"));
  edit.added.emplace_back(2, MakeFile(2, "g", "m"));
  edit.added.emplace_back(2, MakeFile(3, "n", "z"));
  ASSERT_TRUE(vs.LogAndApply(edit).ok());
  EXPECT_EQ(vs.Overlapping(2, "h", "p").size(), 2u);
  EXPECT_EQ(vs.Overlapping(2, "aa", "b").size(), 1u);
  EXPECT_EQ(vs.Overlapping(2, "zz", "zzz").size(), 0u);
}

TEST_F(VersionTest, RemoveFiles) {
  VersionSet vs(&fs_, "db", 7);
  ASSERT_TRUE(vs.Recover().ok());
  VersionEdit add;
  add.added.emplace_back(1, MakeFile(1, "a", "c"));
  add.added.emplace_back(1, MakeFile(2, "d", "f"));
  ASSERT_TRUE(vs.LogAndApply(add).ok());
  VersionEdit rm;
  rm.removed.emplace_back(1, 1);
  ASSERT_TRUE(vs.LogAndApply(rm).ok());
  ASSERT_EQ(vs.LevelFiles(1).size(), 1u);
  EXPECT_EQ(vs.LevelFiles(1)[0].number, 2u);
}

TEST_F(VersionTest, ManifestRotationKeepsState) {
  VersionSet vs(&fs_, "db", 7);
  ASSERT_TRUE(vs.Recover().ok());
  // More edits than one manifest holds (kEditsPerManifest = 512).
  for (int i = 0; i < 600; i++) {
    VersionEdit edit;
    edit.added.emplace_back(
        1, MakeFile(vs.NewFileNumber(), "k" + std::to_string(i * 2),
                    "k" + std::to_string(i * 2 + 1)));
    ASSERT_TRUE(vs.LogAndApply(edit).ok());
  }
  VersionSet fresh(&fs_, "db", 7);
  ASSERT_TRUE(fresh.Recover().ok());
  EXPECT_EQ(fresh.LevelFiles(1).size(), 600u);
}

// Brute-force model of a VersionSet's levels: every edit is applied by
// appending and fully re-sorting, and every query is a linear scan. It
// also generates random edits that keep the level invariants: L0 files
// overlap freely, L1+ files are disjoint.
class ReferenceLevels {
 public:
  explicit ReferenceLevels(int num_levels) : levels_(num_levels) {}

  const std::vector<FileMeta>& files(int level) const {
    return levels_[level];
  }
  int num_levels() const { return static_cast<int>(levels_.size()); }

  void Apply(const VersionEdit& edit) {
    for (const auto& [level, number] : edit.removed) {
      auto& files = levels_[level];
      files.erase(std::remove_if(files.begin(), files.end(),
                                 [n = number](const FileMeta& f) {
                                   return f.number == n;
                                 }),
                  files.end());
    }
    for (const auto& [level, f] : edit.added) levels_[level].push_back(f);
    std::sort(levels_[0].begin(), levels_[0].end(),
              [](const FileMeta& a, const FileMeta& b) {
                return a.number > b.number;
              });
    for (size_t l = 1; l < levels_.size(); l++) {
      std::sort(levels_[l].begin(), levels_[l].end(),
                [](const FileMeta& a, const FileMeta& b) {
                  return a.smallest < b.smallest;
                });
    }
  }

  std::vector<FileMeta> Overlapping(int level, std::string_view smallest,
                                    std::string_view largest) const {
    std::vector<FileMeta> out;
    for (const FileMeta& f : levels_[level]) {
      if (f.largest < smallest || f.smallest > largest) continue;
      out.push_back(f);
    }
    return out;
  }

  uint64_t LevelBytes(int level) const {
    uint64_t n = 0;
    for (const FileMeta& f : levels_[level]) n += f.file_bytes;
    return n;
  }

  static std::string Key(uint64_t i) {
    return StrPrintf("k%05llu", static_cast<unsigned long long>(i));
  }

  // A random edit: removals, then single or multi-file additions (a
  // multi-file L1+ addition is a run of adjacent disjoint files, as a
  // subcompaction install produces). File numbers come from `vs`.
  VersionEdit RandomEdit(Rng& rng, VersionSet* vs) const {
    VersionEdit edit;
    std::vector<std::vector<FileMeta>> after = levels_;
    const int removals = static_cast<int>(rng.Uniform(4));
    for (int r = 0; r < removals; r++) {
      const int level = static_cast<int>(rng.Uniform(num_levels()));
      auto& files = after[level];
      if (files.empty()) continue;
      const size_t i = rng.Uniform(files.size());
      edit.removed.emplace_back(level, files[i].number);
      files.erase(files.begin() + static_cast<std::ptrdiff_t>(i));
    }
    if (rng.Bernoulli(0.1)) {
      // Clear a whole level.
      const int level = static_cast<int>(rng.Uniform(num_levels()));
      for (const FileMeta& f : after[level]) {
        edit.removed.emplace_back(level, f.number);
      }
      after[level].clear();
    }
    const int additions = static_cast<int>(rng.Uniform(3));
    for (int a = 0; a < additions; a++) {
      const int level = static_cast<int>(rng.Uniform(num_levels()));
      const size_t count = rng.Bernoulli(0.4) ? 2 + rng.Uniform(5) : 1;
      std::vector<FileMeta> add;
      if (level == 0) {
        for (size_t i = 0; i < count; i++) {
          uint64_t lo = rng.Uniform(kKeySpace);
          uint64_t hi = rng.Uniform(kKeySpace);
          if (lo > hi) std::swap(lo, hi);
          add.push_back(File(vs->NewFileNumber(), lo, hi, rng));
        }
      } else {
        // A free gap [lo, hi] of key indices, split into `count` files.
        const uint64_t lo = rng.Uniform(kKeySpace);
        uint64_t hi = std::min<uint64_t>(kKeySpace - 1,
                                         lo + rng.Uniform(kKeySpace / 8));
        bool free = true;
        for (const FileMeta& f : after[level]) {
          if (f.largest < Key(lo) || f.smallest > Key(hi)) continue;
          if (f.smallest <= Key(lo)) free = false;  // lo is covered
          hi = std::min<uint64_t>(hi, std::stoull(f.smallest.substr(1)) - 1);
        }
        if (!free || hi < lo) continue;
        uint64_t start = lo;
        for (size_t i = 0; i < count && start <= hi; i++) {
          const uint64_t end =
              i + 1 == count ? hi : start + rng.Uniform(hi - start + 1);
          add.push_back(File(vs->NewFileNumber(), start, end, rng));
          start = end + 1;
        }
      }
      // Arrival order must not matter.
      for (size_t i = add.size(); i > 1; i--) {
        std::swap(add[i - 1], add[rng.Uniform(i)]);
      }
      for (FileMeta& f : add) {
        after[level].push_back(f);
        edit.added.emplace_back(level, std::move(f));
      }
    }
    return edit;
  }

  // A query range; each end is a file boundary half of the time.
  std::pair<std::string, std::string> RandomRange(Rng& rng, int level) const {
    auto pick = [&]() {
      const auto& files = levels_[level];
      if (!files.empty() && rng.Bernoulli(0.5)) {
        const FileMeta& f = files[rng.Uniform(files.size())];
        return rng.Bernoulli(0.5) ? f.smallest : f.largest;
      }
      return Key(rng.Uniform(kKeySpace));
    };
    std::string lo = pick();
    std::string hi = pick();
    if (lo > hi) std::swap(lo, hi);
    return {lo, hi};
  }

  static constexpr uint64_t kKeySpace = 4000;

 private:
  static FileMeta File(uint64_t number, uint64_t lo, uint64_t hi, Rng& rng) {
    FileMeta f;
    f.number = number;
    f.file_bytes = 1 + rng.Uniform(1 << 20);
    f.num_entries = 1 + rng.Uniform(1000);
    f.smallest = Key(lo);
    f.largest = Key(hi);
    return f;
  }

  std::vector<std::vector<FileMeta>> levels_;
};

std::vector<uint64_t> Numbers(const std::vector<FileMeta>& files) {
  std::vector<uint64_t> out;
  for (const FileMeta& f : files) out.push_back(f.number);
  return out;
}

void ExpectSameLevels(const VersionSet& vs, const ReferenceLevels& ref) {
  ASSERT_TRUE(vs.CheckInvariants().ok());
  uint64_t total = 0;
  for (int l = 0; l < ref.num_levels(); l++) {
    const auto& got = vs.LevelFiles(l);
    const auto& want = ref.files(l);
    ASSERT_EQ(Numbers(got), Numbers(want)) << "level " << l;
    for (size_t i = 0; i < got.size(); i++) {
      EXPECT_EQ(got[i].file_bytes, want[i].file_bytes);
      EXPECT_EQ(got[i].num_entries, want[i].num_entries);
      EXPECT_EQ(got[i].smallest, want[i].smallest);
      EXPECT_EQ(got[i].largest, want[i].largest);
    }
    EXPECT_EQ(vs.LevelBytes(l), ref.LevelBytes(l)) << "level " << l;
    total += ref.LevelBytes(l);
  }
  EXPECT_EQ(vs.TotalSstBytes(), total);
}

TEST_F(VersionTest, MatchesBruteForceReference) {
  constexpr int kLevels = 5;
  Rng rng(4242);
  ReferenceLevels ref(kLevels);
  VersionSet vs(&fs_, "db", kLevels);
  ASSERT_TRUE(vs.Recover().ok());
  // More edits than one manifest holds (kEditsPerManifest = 512), so the
  // recovery below crosses a rotation.
  for (int step = 0; step < 1200; step++) {
    const VersionEdit edit = ref.RandomEdit(rng, &vs);
    ASSERT_TRUE(vs.LogAndApply(edit).ok());
    ref.Apply(edit);
    ASSERT_NO_FATAL_FAILURE(ExpectSameLevels(vs, ref)) << "step " << step;
    for (int l = 0; l < kLevels; l++) {
      for (int q = 0; q < 4; q++) {
        const auto [lo, hi] = ref.RandomRange(rng, l);
        const std::vector<FileMeta> want = ref.Overlapping(l, lo, hi);
        uint64_t want_bytes = 0;
        for (const FileMeta& f : want) want_bytes += f.file_bytes;
        ASSERT_EQ(Numbers(vs.Overlapping(l, lo, hi)), Numbers(want))
            << "step " << step << " L" << l << " [" << lo << ", " << hi
            << "]";
        ASSERT_EQ(vs.OverlappingBytes(l, lo, hi), want_bytes);
      }
    }
  }
  VersionSet recovered(&fs_, "db", kLevels);
  ASSERT_TRUE(recovered.Recover().ok());
  ExpectSameLevels(recovered, ref);
  EXPECT_EQ(recovered.last_sequence(), vs.last_sequence());
  EXPECT_EQ(recovered.NewFileNumber(), vs.NewFileNumber());
}

// Reference picker over the brute-force model: linear overlap scans,
// summed level bytes, and a round-robin start cursor that the
// minimum-ratio scan always overrides (so it never changes a pick).
CompactionPick ReferencePickCompaction(const ReferenceLevels& ref,
                                       const LsmOptions& options,
                                       std::vector<uint64_t>* cursors) {
  CompactionPick pick;
  cursors->resize(ref.num_levels(), 0);
  auto score_of = [&](int level) -> double {
    if (level == 0) {
      return static_cast<double>(ref.files(0).size()) /
             static_cast<double>(options.l0_compaction_trigger);
    }
    if (level >= ref.num_levels() - 1) return 0;
    return static_cast<double>(ref.LevelBytes(level)) /
           static_cast<double>(LevelTargetBytes(options, level));
  };
  int best_level = -1;
  double best_score = 1.0;
  for (int l = 0; l < ref.num_levels() - 1; l++) {
    const double score = score_of(l);
    if (score >= best_score) {
      best_score = score;
      best_level = l;
    }
  }
  if (best_level < 0) return pick;
  pick.valid = true;
  pick.level = best_level;
  pick.score = best_score;
  if (best_level == 0) {
    pick.inputs0 = ref.files(0);
  } else {
    const auto& files = ref.files(best_level);
    size_t best_idx = (*cursors)[best_level] % files.size();
    double best_ratio = -1;
    for (size_t i = 0; i < files.size(); i++) {
      uint64_t overlap = 0;
      for (const FileMeta& f : ref.Overlapping(
               best_level + 1, files[i].smallest, files[i].largest)) {
        overlap += f.file_bytes;
      }
      const double ratio = static_cast<double>(overlap) /
                           static_cast<double>(files[i].file_bytes + 1);
      if (best_ratio < 0 || ratio < best_ratio) {
        best_ratio = ratio;
        best_idx = i;
      }
    }
    (*cursors)[best_level] = best_idx + 1;
    pick.inputs0.push_back(files[best_idx]);
  }
  std::string smallest, largest;
  for (const FileMeta& f : pick.inputs0) {
    if (smallest.empty() || f.smallest < smallest) smallest = f.smallest;
    if (largest.empty() || f.largest > largest) largest = f.largest;
  }
  pick.inputs1 = ref.Overlapping(best_level + 1, smallest, largest);
  pick.drop_tombstones = true;
  for (int l = best_level + 2; l < ref.num_levels(); l++) {
    if (!ref.files(l).empty()) pick.drop_tombstones = false;
  }
  pick.trivial_move = best_level >= 1 && pick.inputs0.size() == 1 &&
                      pick.inputs1.empty();
  return pick;
}

TEST_F(VersionTest, PickCompactionMatchesLinearPicker) {
  Rng rng(777);
  int valid_picks = 0;
  int l1_picks = 0;
  for (int round = 0; round < 40; round++) {
    const int levels = 3 + static_cast<int>(rng.Uniform(5));
    ReferenceLevels ref(levels);
    VersionSet vs(&fs_, "db" + std::to_string(round), levels);
    ASSERT_TRUE(vs.Recover().ok());
    LsmOptions options;
    options.max_levels = levels;
    options.l0_compaction_trigger = 1 + static_cast<int>(rng.Uniform(6));
    options.l1_target_bytes = (1 + rng.Uniform(8)) << 20;
    options.level_size_ratio = 2.0 + static_cast<double>(rng.Uniform(9));
    std::vector<uint64_t> cursors;
    for (int step = 0; step < 60; step++) {
      const VersionEdit edit = ref.RandomEdit(rng, &vs);
      ASSERT_TRUE(vs.LogAndApply(edit).ok());
      ref.Apply(edit);
      const CompactionPick want =
          ReferencePickCompaction(ref, options, &cursors);
      const CompactionPick got = PickCompaction(vs, options);
      ASSERT_EQ(got.valid, want.valid) << "round " << round;
      if (!want.valid) continue;
      valid_picks++;
      if (want.level >= 1) l1_picks++;
      EXPECT_EQ(got.level, want.level);
      EXPECT_EQ(got.score, want.score);
      EXPECT_EQ(Numbers(got.inputs0), Numbers(want.inputs0));
      EXPECT_EQ(Numbers(got.inputs1), Numbers(want.inputs1));
      EXPECT_EQ(got.trivial_move, want.trivial_move);
      EXPECT_EQ(got.drop_tombstones, want.drop_tombstones);
    }
  }
  // The mix exercised both L0 and L1+ picks.
  EXPECT_GT(valid_picks, l1_picks);
  EXPECT_GT(l1_picks, 100);
}

TEST(LevelMathTest, TargetsGrowByRatio) {
  LsmOptions o;
  o.l1_target_bytes = 100;
  o.level_size_ratio = 10;
  EXPECT_EQ(LevelTargetBytes(o, 1), 100u);
  EXPECT_EQ(LevelTargetBytes(o, 2), 1000u);
  EXPECT_EQ(LevelTargetBytes(o, 4), 100000u);
}

}  // namespace
}  // namespace ptsb::lsm
