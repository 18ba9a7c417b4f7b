// Tests for SimpleFs: namespace ops, append/read paths, sync and crash
// semantics, extent allocation and fragmentation, nodiscard behavior.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "block/iostat.h"
#include "block/memory_device.h"
#include "fs/extent_allocator.h"
#include "fs/file.h"
#include "fs/filesystem.h"
#include "sim/clock.h"
#include "ssd/ssd_device.h"
#include "test_support.h"
#include "util/logging.h"
#include "util/random.h"

namespace ptsb::fs {
namespace {

constexpr uint64_t kPage = 4096;

FsOptions SmallFsOptions() {
  FsOptions o;
  o.metadata_pages = 4;
  o.append_alloc_pages = 4;
  o.max_extent_pages = 16;
  return o;
}

class FsTest : public ::testing::Test {
 protected:
  FsTest() : dev_(kPage, 1024), fs_(&dev_, SmallFsOptions()) {}

  std::string ReadAll(File* f) {
    std::string out(f->size(), '\0');
    auto n = f->ReadAt(0, out.size(), out.data());
    PTSB_CHECK_OK(n.status());
    out.resize(*n);
    return out;
  }

  block::MemoryBlockDevice dev_;
  SimpleFs fs_;
};

TEST_F(FsTest, CreateOpenDelete) {
  auto f = fs_.Create("a");
  ASSERT_TRUE(f.ok());
  EXPECT_TRUE(fs_.Exists("a"));
  EXPECT_TRUE(fs_.Create("a").status().IsInvalidArgument());
  EXPECT_TRUE(fs_.Open("a").ok());
  ASSERT_TRUE(fs_.Delete("a").ok());
  EXPECT_FALSE(fs_.Exists("a"));
  EXPECT_TRUE(fs_.Open("a").status().IsNotFound());
  EXPECT_TRUE(fs_.Delete("a").IsNotFound());
}

TEST_F(FsTest, AppendAndReadBack) {
  File* f = *fs_.Create("f");
  const std::string data = "hello world";
  ASSERT_TRUE(f->Append(data).ok());
  EXPECT_EQ(f->size(), data.size());
  EXPECT_EQ(ReadAll(f), data);
}

TEST_F(FsTest, AppendSpanningPages) {
  File* f = *fs_.Create("f");
  Rng rng(1);
  std::string all;
  // Odd-sized appends crossing page boundaries repeatedly.
  for (int i = 0; i < 50; i++) {
    std::string chunk(rng.UniformRange(1, 3000), static_cast<char>('a' + i % 26));
    all += chunk;
    ASSERT_TRUE(f->Append(chunk).ok());
  }
  EXPECT_EQ(f->size(), all.size());
  EXPECT_EQ(ReadAll(f), all);
  // Random-offset reads.
  for (int i = 0; i < 100; i++) {
    const uint64_t off = rng.Uniform(all.size());
    const uint64_t len = rng.UniformRange(1, 5000);
    std::string out(len, '\0');
    auto n = f->ReadAt(off, len, out.data());
    ASSERT_TRUE(n.ok());
    out.resize(*n);
    EXPECT_EQ(out, all.substr(off, len));
  }
}

TEST_F(FsTest, BulkAppendUsesWholePageFastPath) {
  File* f = *fs_.Create("f");
  std::string big(10 * kPage, 'z');
  ASSERT_TRUE(f->Append(big).ok());
  EXPECT_EQ(f->size(), big.size());
  EXPECT_EQ(f->synced_size(), big.size());  // whole pages write through
  EXPECT_EQ(ReadAll(f), big);
}

TEST_F(FsTest, ReadPastEofIsShort) {
  File* f = *fs_.Create("f");
  ASSERT_TRUE(f->Append("abc").ok());
  char buf[16];
  auto n = f->ReadAt(1, 100, buf);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 2u);
  auto n2 = f->ReadAt(10, 5, buf);
  ASSERT_TRUE(n2.ok());
  EXPECT_EQ(*n2, 0u);
}

TEST_F(FsTest, SyncMaterializesTail) {
  File* f = *fs_.Create("f");
  ASSERT_TRUE(f->Append("partial page").ok());
  EXPECT_EQ(f->synced_size(), 0u);
  ASSERT_TRUE(f->Sync().ok());
  EXPECT_EQ(f->synced_size(), f->size());
  EXPECT_GT(dev_.flushes(), 0u);
}

TEST_F(FsTest, CrashDropsUnsyncedTail) {
  File* f = *fs_.Create("f");
  ASSERT_TRUE(f->Append("durable!").ok());
  ASSERT_TRUE(f->Sync().ok());
  ASSERT_TRUE(f->Append("lost").ok());
  fs_.SimulateCrash();
  EXPECT_EQ(f->size(), 8u);
  EXPECT_EQ(ReadAll(f), "durable!");
  // The file remains usable: append again after "reboot".
  ASSERT_TRUE(f->Append("+more").ok());
  EXPECT_EQ(ReadAll(f), "durable!+more");
}

TEST_F(FsTest, CrashKeepsWholePagesEvenUnsynced) {
  File* f = *fs_.Create("f");
  std::string page(kPage, 'q');
  ASSERT_TRUE(f->Append(page).ok());
  ASSERT_TRUE(f->Append("tail").ok());
  fs_.SimulateCrash();
  EXPECT_EQ(f->size(), kPage);
  EXPECT_EQ(ReadAll(f), page);
}

TEST_F(FsTest, RenameMovesAndReplaces) {
  File* a = *fs_.Create("a");
  ASSERT_TRUE(a->Append("AAA").ok());
  File* b = *fs_.Create("b");
  ASSERT_TRUE(b->Append("BBB").ok());
  ASSERT_TRUE(fs_.Rename("a", "b").ok());
  EXPECT_FALSE(fs_.Exists("a"));
  ASSERT_TRUE(fs_.Exists("b"));
  EXPECT_EQ(ReadAll(*fs_.Open("b")), "AAA");
  EXPECT_TRUE(fs_.Rename("nope", "x").IsNotFound());
}

TEST_F(FsTest, ListByPrefix) {
  ASSERT_TRUE(fs_.Create("sst/000001").ok());
  ASSERT_TRUE(fs_.Create("sst/000002").ok());
  ASSERT_TRUE(fs_.Create("wal/000001").ok());
  EXPECT_EQ(fs_.List("sst/").size(), 2u);
  EXPECT_EQ(fs_.List("wal/").size(), 1u);
  EXPECT_EQ(fs_.List().size(), 3u);
}

TEST_F(FsTest, ExtendAndWriteAt) {
  File* f = *fs_.Create("f");
  ASSERT_TRUE(f->Extend(8 * kPage).ok());
  EXPECT_EQ(f->size(), 8 * kPage);
  std::string block(2 * kPage, 'B');
  ASSERT_TRUE(f->WriteAt(4 * kPage, block).ok());
  std::string out(2 * kPage, '\0');
  auto n = f->ReadAt(4 * kPage, out.size(), out.data());
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(out, block);
}

TEST_F(FsTest, WriteAtRequiresAlignmentAndAllocation) {
  File* f = *fs_.Create("f");
  ASSERT_TRUE(f->Extend(2 * kPage).ok());
  std::string page(kPage, 'x');
  EXPECT_TRUE(f->WriteAt(1, page).IsInvalidArgument());
  EXPECT_TRUE(f->WriteAt(0, "short").IsInvalidArgument());
  EXPECT_TRUE(f->WriteAt(2 * kPage, page).IsInvalidArgument());
  EXPECT_TRUE(f->WriteAt(kPage, page).ok());
}

TEST_F(FsTest, ShrinkToFitReleasesSlack) {
  File* f = *fs_.Create("f");
  // 1.5 pages: completing the first page triggers a 4-page allocation
  // chunk (append_alloc_pages), leaving slack.
  const std::string data(kPage + kPage / 2, 's');
  ASSERT_TRUE(f->Append(data).ok());
  ASSERT_TRUE(f->Sync().ok());
  EXPECT_GE(f->allocated_bytes(), 4 * kPage);  // append_alloc_pages chunk
  ASSERT_TRUE(f->ShrinkToFit().ok());
  EXPECT_EQ(f->allocated_bytes(), 2 * kPage);
  EXPECT_EQ(ReadAll(f), data);
  EXPECT_TRUE(fs_.CheckConsistency().ok());
}

TEST_F(FsTest, DeleteFreesSpace) {
  const uint64_t free0 = fs_.GetStats().free_bytes;
  File* f = *fs_.Create("f");
  ASSERT_TRUE(f->Append(std::string(100 * kPage, 'd')).ok());
  EXPECT_LT(fs_.GetStats().free_bytes, free0);
  ASSERT_TRUE(fs_.Delete("f").ok());
  EXPECT_EQ(fs_.GetStats().free_bytes, free0);
  EXPECT_TRUE(fs_.CheckConsistency().ok());
}

TEST_F(FsTest, OutOfSpaceReported) {
  File* f = *fs_.Create("f");
  // Device is 1024 pages; ask for more.
  Status s = f->Extend(2000 * kPage);
  EXPECT_TRUE(s.IsNoSpace());
  EXPECT_TRUE(fs_.CheckConsistency().ok());
}

TEST_F(FsTest, UtilizationTracksData) {
  const double u0 = fs_.GetStats().Utilization();
  File* f = *fs_.Create("f");
  ASSERT_TRUE(f->Append(std::string(512 * kPage, 'u')).ok());
  const double u1 = fs_.GetStats().Utilization();
  EXPECT_GT(u1, u0 + 0.4);
}

TEST_F(FsTest, FragmentationFromChurn) {
  // Alternating create/delete of differently-sized files fragments the
  // free space; allocation still succeeds by splitting extents.
  Rng rng(3);
  for (int round = 0; round < 20; round++) {
    for (int i = 0; i < 8; i++) {
      File* f = *fs_.Create("f" + std::to_string(i));
      ASSERT_TRUE(
          f->Append(std::string(rng.UniformRange(1, 40) * kPage, 'x')).ok());
    }
    for (int i = 0; i < 8; i += 2) {
      ASSERT_TRUE(fs_.Delete("f" + std::to_string(i)).ok());
    }
    ASSERT_TRUE(fs_.CheckConsistency().ok());
    for (int i = 1; i < 8; i += 2) {
      ASSERT_TRUE(fs_.Delete("f" + std::to_string(i)).ok());
    }
  }
  EXPECT_TRUE(fs_.CheckConsistency().ok());
}

TEST_F(FsTest, InterleavedGrowthScattersExtents) {
  // Two files growing in lockstep interleave their allocation chunks, so
  // each ends up with multiple discontiguous extents — the mechanism that
  // fragments concurrently-written LSM outputs and WAL segments.
  File* a = *fs_.Create("a");
  File* b = *fs_.Create("b");
  for (int i = 0; i < 16; i++) {
    ASSERT_TRUE(a->Append(std::string(4 * kPage, 'a')).ok());
    ASSERT_TRUE(b->Append(std::string(4 * kPage, 'b')).ok());
  }
  EXPECT_GE(a->ExtentCount(), 2u);
  EXPECT_GE(b->ExtentCount(), 2u);
  // Contents must survive the scattering.
  EXPECT_EQ(ReadAll(a), std::string(64 * kPage, 'a'));
  EXPECT_EQ(ReadAll(b), std::string(64 * kPage, 'b'));
}

// ReadAt through an IoStatCollector. A 64-byte page keeps a multi-extent
// file small enough to check every (offset, len) window exhaustively.
class FsReadAtTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kSmallPage = 64;
  static constexpr uint64_t kExtentPages = 4;  // SmallFsOptions' alloc unit
  static constexpr uint64_t kFullPages = 3 * kExtentPages;

  FsReadAtTest()
      : dev_(kSmallPage, 1024), io_(&dev_), fs_(&io_, SmallFsOptions()) {}

  // "a" grows in lockstep with "b", so each of a's 4-page extents is
  // physically separate from the next; then an unsynced partial page.
  void SetUp() override {
    File* b = *fs_.Create("b");
    file_ = *fs_.Create("a");
    for (uint64_t i = 0; i < kFullPages * kSmallPage + 30; i++) {
      want_.push_back(static_cast<char>(i * 131 + i / 7));
    }
    for (uint64_t e = 0; e < kFullPages / kExtentPages; e++) {
      const uint64_t bytes = kExtentPages * kSmallPage;
      ASSERT_TRUE(file_->Append(want_.substr(e * bytes, bytes)).ok());
      ASSERT_TRUE(b->Append(std::string(bytes, 'b')).ok());
    }
    ASSERT_TRUE(file_->Append(want_.substr(kFullPages * kSmallPage)).ok());
    ASSERT_EQ(file_->ExtentCount(), kFullPages / kExtentPages);
    ASSERT_EQ(file_->synced_size(), kFullPages * kSmallPage);
  }

  // Reads [off, off + len) and returns the device commands and pages it
  // issued; the bytes must match the reference.
  std::pair<uint64_t, uint64_t> Read(uint64_t off, uint64_t len) {
    std::string got(len, '\0');
    const block::IoCounters before = io_.counters();
    auto n = file_->ReadAt(off, len, got.data());
    const block::IoCounters delta = io_.counters() - before;
    PTSB_CHECK_OK(n.status());
    EXPECT_EQ(*n, len);
    EXPECT_EQ(got, want_.substr(off, len)) << "window " << off << "+" << len;
    return {delta.read_ops, delta.read_bytes / kSmallPage};
  }

  block::MemoryBlockDevice dev_;
  block::IoStatCollector io_;
  SimpleFs fs_;
  File* file_ = nullptr;
  std::string want_;
};

TEST_F(FsReadAtTest, OneCommandPerContiguousRun) {
  using Cmds = std::pair<uint64_t, uint64_t>;  // {commands, pages}
  // Unaligned, 3 pages of one extent: one 3-page command.
  EXPECT_EQ(Read(10, 2 * kSmallPage), (Cmds{1, 3}));
  // Unaligned, crossing the first extent boundary: one command per run.
  EXPECT_EQ(Read(3 * kSmallPage + 10, 2 * kSmallPage), (Cmds{2, 3}));
  // Aligned reads are unchanged: one command per extent run.
  EXPECT_EQ(Read(0, kExtentPages * kSmallPage), (Cmds{1, 4}));
  EXPECT_EQ(Read(2 * kSmallPage, 8 * kSmallPage), (Cmds{3, 8}));
  // A window ending in the unsynced tail reads only the synced pages.
  EXPECT_EQ(Read(11 * kSmallPage + 5, kSmallPage + 20), (Cmds{1, 1}));
  EXPECT_EQ(Read(kFullPages * kSmallPage + 3, 20), (Cmds{0, 0}));
}

TEST_F(FsReadAtTest, EveryWindowMatchesAndReadsCoveringPagesOnce) {
  const uint64_t size = want_.size();
  const uint64_t synced = kFullPages * kSmallPage;
  for (uint64_t off = 0; off <= size; off++) {
    for (uint64_t len = 0; off + len <= size; len++) {
      const auto [cmds, pages] = Read(off, len);
      const uint64_t device_end = std::min(off + len, synced);
      if (off >= device_end) {
        EXPECT_EQ(cmds, 0u);
        continue;
      }
      const uint64_t first = off / kSmallPage;
      const uint64_t last = (device_end - 1) / kSmallPage;
      ASSERT_EQ(pages, last - first + 1) << "window " << off << "+" << len;
      ASSERT_EQ(cmds, last / kExtentPages - first / kExtentPages + 1)
          << "window " << off << "+" << len;
    }
  }
}

// Fails every device write issued on behalf of `name` ("" = namespace
// metadata).
class FailWritesTo : public FaultPolicy {
 public:
  explicit FailWritesTo(std::string name) : name_(std::move(name)) {}
  Status BeforeDeviceWrite(const std::string& name) override {
    return name == name_ ? Status::IoError("injected fault") : Status::OK();
  }

 private:
  std::string name_;
};

std::string Pattern(uint64_t n, uint64_t seed) {
  std::string out(n, '\0');
  for (uint64_t i = 0; i < n; i++) {
    out[i] = static_cast<char>(i * 131 + seed * 17 + i / 251);
  }
  return out;
}

// Sync(data) on "a" against Append(data) + Sync() on a twin filesystem.
class FsFusedSyncTest : public ::testing::Test {
 protected:
  struct Case {
    uint64_t prefix;      // bytes appended to "a" first
    bool sync_prefix;     // ... then synced
    uint64_t interleave;  // bytes appended to "b" next (splits a's extents)
    uint64_t data;        // bytes the fused Sync appends
    uint64_t runs;        // contiguous LBA runs the unsynced range spans
  };

  FsFusedSyncTest()
      : dev_(kPage, 1024),
        log_(&dev_),
        fs_(&log_, SmallFsOptions()),
        ref_dev_(kPage, 1024),
        ref_fs_(&ref_dev_, SmallFsOptions()) {}

  static std::string ReadAll(File* f) {
    std::string out(f->size(), '\0');
    auto n = f->ReadAt(0, out.size(), out.data());
    PTSB_CHECK_OK(n.status());
    out.resize(*n);
    return out;
  }

  // Brings "a" and "b" of both filesystems to the case's starting state.
  void Prepare(const Case& c, File** a, File** ref) {
    *a = *fs_.Create("a");
    *ref = *ref_fs_.Create("a");
    File* b = *fs_.Create("b");
    File* ref_b = *ref_fs_.Create("b");
    for (File* f : {*a, *ref}) {
      ASSERT_TRUE(f->Append(Pattern(c.prefix, 1)).ok());
      if (c.sync_prefix) {
        ASSERT_TRUE(f->Sync().ok());
      }
    }
    for (File* f : {b, ref_b}) {
      ASSERT_TRUE(f->Append(Pattern(c.interleave, 3)).ok());
    }
  }

  void Check(const Case& c) {
    File* a = nullptr;
    File* ref = nullptr;
    Prepare(c, &a, &ref);
    if (HasFatalFailure()) return;
    const std::string data = Pattern(c.data, 2);
    const uint64_t writes = log_.writes();
    const uint64_t flushes = log_.flushes();
    ASSERT_TRUE(a->Sync(data).ok());
    EXPECT_EQ(log_.writes() - writes, c.runs);
    EXPECT_EQ(log_.flushes() - flushes, 1u);
    ASSERT_TRUE(ref->Append(data).ok());
    ASSERT_TRUE(ref->Sync().ok());

    const std::string want = Pattern(c.prefix, 1) + data;
    EXPECT_EQ(ReadAll(a), want);
    EXPECT_EQ(ReadAll(ref), want);
    EXPECT_EQ(a->synced_size(), ref->synced_size());
    EXPECT_EQ(a->synced_size(), want.size());
    EXPECT_EQ(a->ExtentCount(), ref->ExtentCount());
    EXPECT_EQ(a->allocated_bytes(), ref->allocated_bytes());
    // Durable: a crash keeps every byte.
    fs_.SimulateCrash();
    EXPECT_EQ(a->size(), want.size());
    EXPECT_EQ(ReadAll(a), want);
    EXPECT_TRUE(fs_.CheckConsistency().ok());
  }

  block::MemoryBlockDevice dev_;
  testing::WriteLogDevice log_;
  SimpleFs fs_;
  block::MemoryBlockDevice ref_dev_;
  SimpleFs ref_fs_;
};

TEST_F(FsFusedSyncTest, FreshFileIsOneCommand) {
  Check({0, false, 0, 2 * kPage + kPage / 2, 1});
}

TEST_F(FsFusedSyncTest, UnsyncedPartialTailGoesWithTheData) {
  Check({100, false, 0, 2 * kPage + 50, 1});
}

TEST_F(FsFusedSyncTest, SyncedPartialTailIsRewrittenOnce) {
  Check({100, true, 0, 3 * kPage, 1});
}

TEST_F(FsFusedSyncTest, ExtentBoundaryCostsOneCommandPerRun) {
  // a's tail page is the last page of its first 4-page extent; "b" takes
  // the next four, so a's next pages land elsewhere: two runs.
  Check({3 * kPage + 100, false, 4 * kPage, 2 * kPage, 2});
}

TEST_F(FsFusedSyncTest, PlainSyncWritesOnlyADirtyTail) {
  Check({100, false, 0, 0, 1});
}

TEST_F(FsFusedSyncTest, PlainSyncOfACleanFileOnlyFlushes) {
  Check({2 * kPage, false, 0, 0, 0});
}

TEST_F(FsFusedSyncTest, FaultOnTheFusedWriteFailsTheCall) {
  File* a = *fs_.Create("a");
  ASSERT_TRUE(a->Append(Pattern(100, 1)).ok());
  FailWritesTo policy("a");
  fs_.SetFaultPolicy(&policy);
  const uint64_t writes = log_.writes();
  const Status s = a->Sync(Pattern(2 * kPage, 2));
  fs_.SetFaultPolicy(nullptr);
  EXPECT_TRUE(s.IsIoError()) << s.ToString();
  EXPECT_EQ(log_.writes(), writes);
  // Nothing of the data was appended; the old tail is still unsynced.
  EXPECT_EQ(a->size(), 100u);
  EXPECT_EQ(a->synced_size(), 0u);
  EXPECT_EQ(ReadAll(a), Pattern(100, 1));
}

class FsGroupDeleteTest : public ::testing::Test {
 protected:
  FsGroupDeleteTest()
      : dev_(kPage, 1024), log_(&dev_), fs_(&log_, SmallFsOptions()) {}

  uint64_t MetadataWrites() const {
    return log_.WritesBelow(fs_.options().metadata_pages);
  }
  std::vector<std::string> MakeFiles(int n) {
    std::vector<std::string> names;
    for (int i = 0; i < n; i++) {
      names.push_back("f" + std::to_string(i));
      File* f = *fs_.Create(names.back());
      PTSB_CHECK_OK(f->Sync(Pattern(2 * kPage + 10, i)));
    }
    return names;
  }

  block::MemoryBlockDevice dev_;
  testing::WriteLogDevice log_;
  SimpleFs fs_;
};

TEST_F(FsGroupDeleteTest, GroupOfNWritesOneMetadataPage) {
  const uint64_t free_before = fs_.GetStats().free_bytes;
  const std::vector<std::string> names = MakeFiles(6);
  const uint64_t meta = MetadataWrites();
  const uint64_t writes = log_.writes();
  ASSERT_TRUE(fs_.Delete(names).ok());
  EXPECT_EQ(MetadataWrites() - meta, 1u);
  EXPECT_EQ(log_.writes() - writes, 1u);
  for (const std::string& name : names) EXPECT_FALSE(fs_.Exists(name));
  EXPECT_EQ(fs_.GetStats().free_bytes, free_before);
  EXPECT_TRUE(fs_.CheckConsistency().ok());
  // An empty group is a no-op.
  ASSERT_TRUE(fs_.Delete(std::vector<std::string>{}).ok());
  EXPECT_EQ(log_.writes() - writes, 1u);
}

TEST_F(FsGroupDeleteTest, StopsAtTheFirstMissingName) {
  MakeFiles(2);
  const uint64_t meta = MetadataWrites();
  const std::vector<std::string> names = {"f0", "missing", "f1"};
  EXPECT_TRUE(fs_.Delete(names).IsNotFound());
  EXPECT_FALSE(fs_.Exists("f0"));
  EXPECT_TRUE(fs_.Exists("f1"));
  EXPECT_EQ(MetadataWrites() - meta, 1u);
  EXPECT_TRUE(fs_.CheckConsistency().ok());
}

TEST_F(FsGroupDeleteTest, FaultOnTheMetadataPageReturnsTheError) {
  const std::vector<std::string> names = MakeFiles(4);
  FailWritesTo policy("");
  fs_.SetFaultPolicy(&policy);
  const uint64_t meta = MetadataWrites();
  const Status s = fs_.Delete(names);
  fs_.SetFaultPolicy(nullptr);
  EXPECT_TRUE(s.IsIoError()) << s.ToString();
  EXPECT_EQ(MetadataWrites(), meta);
}

TEST(FsNodiscardTest, DiscardModeTrimsOnDelete) {
  sim::SimClock clock;
  ssd::SsdConfig cfg;
  cfg.geometry.logical_bytes = 8 << 20;
  cfg.geometry.pages_per_block = 64;
  cfg.geometry.hardware_op_frac = 0.2;
  ssd::SsdDevice dev(cfg, &clock);

  for (const bool nodiscard : {true, false}) {
    FsOptions o;
    o.metadata_pages = 4;
    o.nodiscard = nodiscard;
    SimpleFs fs(&dev, o);
    File* f = *fs.Create("f");
    ASSERT_TRUE(f->Append(std::string(100 * 4096, 'x')).ok());
    const uint64_t valid_before = dev.ftl().GetStats().valid_pages;
    ASSERT_TRUE(fs.Delete("f").ok());
    const uint64_t valid_after = dev.ftl().GetStats().valid_pages;
    if (nodiscard) {
      // ext4 nodiscard: the FTL still sees the deleted data as valid
      // (modulo the one metadata page the delete touches).
      EXPECT_GE(valid_after + 1, valid_before);
    } else {
      EXPECT_LE(valid_after + 100, valid_before);
    }
  }
}

TEST(ExtentAllocatorTest, AllocateAndFreeRoundTrip) {
  ExtentAllocator alloc(0, 100);
  auto a = alloc.Allocate(30, 0);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(alloc.free_pages(), 70u);
  for (const auto& e : *a) alloc.Free(e);
  EXPECT_EQ(alloc.free_pages(), 100u);
  EXPECT_EQ(alloc.FreeExtentCount(), 1u);  // coalesced back
  EXPECT_TRUE(alloc.CheckConsistency().ok());
}

TEST(ExtentAllocatorTest, NoSpaceLeavesStateUntouched) {
  ExtentAllocator alloc(0, 10);
  EXPECT_TRUE(alloc.Allocate(11, 0).status().IsNoSpace());
  EXPECT_EQ(alloc.free_pages(), 10u);
  EXPECT_TRUE(alloc.Allocate(10, 0).ok());
}

TEST(ExtentAllocatorTest, MaxExtentSplits) {
  ExtentAllocator alloc(0, 100);
  auto a = alloc.Allocate(50, 8);
  ASSERT_TRUE(a.ok());
  uint64_t total = 0;
  for (const auto& e : *a) {
    EXPECT_LE(e.num_pages, 8u);
    total += e.num_pages;
  }
  EXPECT_EQ(total, 50u);
}

TEST(ExtentAllocatorTest, NextFitRotates) {
  ExtentAllocator alloc(0, 100);
  auto a = alloc.Allocate(10, 0);
  auto b = alloc.Allocate(10, 0);
  ASSERT_TRUE(a.ok() && b.ok());
  // Free the first allocation; next-fit should keep moving forward, not
  // immediately reuse the hole at the start.
  for (const auto& e : *a) alloc.Free(e);
  auto c = alloc.Allocate(10, 0);
  ASSERT_TRUE(c.ok());
  EXPECT_GE((*c)[0].first_page, 20u);
  EXPECT_TRUE(alloc.CheckConsistency().ok());
}

TEST(ExtentAllocatorTest, WrapsAroundWhenCursorPassesEnd) {
  ExtentAllocator alloc(0, 100);
  auto a = alloc.Allocate(90, 0);
  ASSERT_TRUE(a.ok());
  for (const auto& e : *a) alloc.Free(e);
  // Cursor is at 90; a 20-page allocation cannot fit in [90,100) alone.
  auto b = alloc.Allocate(20, 0);
  ASSERT_TRUE(b.ok());
  uint64_t total = 0;
  for (const auto& e : *b) total += e.num_pages;
  EXPECT_EQ(total, 20u);
  EXPECT_TRUE(alloc.CheckConsistency().ok());
}

TEST(ExtentAllocatorTest, RandomizedStress) {
  ExtentAllocator alloc(16, 512);
  Rng rng(7);
  std::vector<std::vector<Extent>> live;
  for (int i = 0; i < 2000; i++) {
    if (rng.Bernoulli(0.6) || live.empty()) {
      auto r = alloc.Allocate(rng.UniformRange(1, 32),
                              rng.Bernoulli(0.5) ? 8 : 0);
      if (r.ok()) live.push_back(*r);
    } else {
      const size_t idx = rng.Uniform(live.size());
      for (const auto& e : live[idx]) alloc.Free(e);
      live.erase(live.begin() + static_cast<long>(idx));
    }
    ASSERT_TRUE(alloc.CheckConsistency().ok()) << "iteration " << i;
  }
}

}  // namespace
}  // namespace ptsb::fs
