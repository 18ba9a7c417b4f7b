// LsmStore: the RocksDB-analog key-value store. Memtable + WAL in front,
// leveled SSTs behind, compaction interleaved with user operations.
#ifndef PTSB_LSM_LSM_STORE_H_
#define PTSB_LSM_LSM_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "fs/filesystem.h"
#include "kv/background_pool.h"
#include "kv/kvstore.h"
#include "kv/registry.h"
#include "kv/write_group.h"
#include "lsm/compaction.h"
#include "lsm/memtable.h"
#include "lsm/options.h"
#include "lsm/sst.h"
#include "lsm/version.h"
#include "lsm/wal.h"

namespace ptsb::lsm {

class LsmStore : public kv::KVStore {
 public:
  // Opens (or creates) a store rooted at `dir` within `fs`. Recovers the
  // manifest and replays the WAL.
  static StatusOr<std::unique_ptr<LsmStore>> Open(fs::SimpleFs* fs,
                                                  const LsmOptions& options,
                                                  std::string dir = "lsm");
  ~LsmStore() override;

  // kv::KVStore interface. Write is the group-commit path: the batch is
  // routed through a cross-thread kv::WriteGroup, so a single caller's
  // batch becomes ONE WAL record (one memtable insertion pass, one
  // flush/compaction pacing step) and N concurrent callers' batches are
  // merged by a leader into sub-linearly many records.
  Status Write(const kv::WriteBatch& batch) override;
  // Runs the commit in a submission lane on options().io_queue, so
  // back-to-back WriteAsync calls on distinct queues overlap in virtual
  // time (see kv::KVStore::WriteAsync).
  kv::WriteHandle WriteAsync(const kv::WriteBatch& batch) override;
  Status Get(std::string_view key, std::string* value) override;
  // Fans the lookups out across foreground-read submission lanes at
  // options().read_queue_depth, so independent SST probes overlap in
  // virtual device time (see kv::KVStore::MultiGet).
  std::vector<Status> MultiGet(std::span<const std::string_view> keys,
                               std::vector<std::string>* values) override;
  // Runs the lookup in a foreground-read lane on options().io_queue (see
  // kv::KVStore::ReadAsync).
  kv::ReadHandle ReadAsync(std::string_view key, std::string* value) override;
  // Snapshot-aware point lookup: resolves the key against the snapshot's
  // pinned memtable + file lists at its sequence bound.
  Status Get(const kv::ReadOptions& opts, std::string_view key,
             std::string* value) override;
  // Merging iterator over the memtable, each L0 file and one lazily
  // opened cursor per deeper level, so a Seek reads at most one file per
  // level >= 1. Invalidated by any write to the store (no snapshot
  // pinning).
  std::unique_ptr<kv::KVStore::Iterator> NewIterator() override;
  // Snapshot / readahead variant. With a snapshot the cursor reads the
  // pinned sources (shared memtable, pinned SSTs) at the snapshot's
  // sequence bound, takes the commit-exclusion lock around every cursor
  // move (so it is safe under concurrent writers), and skips the
  // write-epoch invalidation check. The snapshot must outlive the
  // cursor. readahead > 1 prefetches that many data blocks per span,
  // continuing into the level's next file, split across foreground-read
  // lanes at read_queue_depth.
  std::unique_ptr<kv::KVStore::Iterator> NewIterator(
      const kv::ReadOptions& opts) override;
  // Freezes the current state: sequence bound + shared memtable + the
  // per-level file lists (each file pinned against physical deletion) +
  // the range-tombstone list. Compaction may still retire pinned files
  // from the live version; they become zombies on disk (accounted in
  // snapshot_pinned_bytes) until the last pinning snapshot drops.
  StatusOr<std::shared_ptr<const kv::Snapshot>> GetSnapshot() override;
  Status Flush() override;
  Status SettleBackgroundWork() override { return DrainCompactions(); }
  Status Close() override;
  // Concurrent Write callers group-commit; point reads run under the
  // group's commit-exclusion lock. Iterators and lifecycle calls still
  // expect a quiesced store.
  bool SupportsConcurrentWriters() const override { return true; }
  kv::KvStoreStats GetStats() const override {
    return write_group_.RunExclusive([&] { return stats_; });
  }
  std::string Name() const override { return "lsm(rocksdb-like)"; }
  uint64_t DiskBytesUsed() const override;

  // Introspection for tests and benches.
  const VersionSet& versions() const { return *versions_; }
  uint64_t MemtableBytes() const { return memtable_->ApproximateBytes(); }
  bool CompactionPending() const { return compaction_ != nullptr; }
  // Runs compaction to completion (tests; also used by Flush).
  Status DrainCompactions();
  // Manual full compaction (RocksDB CompactRange analog): pushes all data
  // to a single bottom level, dropping every shadowed version and
  // tombstone on the way.
  Status CompactAll();
  std::string DebugString() const;

 private:
  class MergingIterator;
  class SnapshotImpl;

  LsmStore(fs::SimpleFs* fs, const LsmOptions& options, std::string dir);

  // The commit function the write group's leader runs: the old Write
  // body, applied to the merged batch of `n_user_batches` user Writes.
  Status WriteInternal(const kv::WriteBatch& batch, size_t n_user_batches);
  // Get's body, run under the group's commit-exclusion lock.
  Status GetInternal(std::string_view key, std::string* value);
  Status FlushMemtable();
  // Runs up to `budget` bytes of compaction work on pool_, starting a
  // compaction if one is due. With background_io on (and a clock), the
  // work runs on the pool's background lanes: the foreground clock does
  // not advance, and the completion horizon is joined back only where
  // the user genuinely waits (MaybeStall, DrainCompactions, Close).
  Status CompactionWork(uint64_t budget);
  // Partitioned subcompaction: the picked input set is cut into up to
  // pool->lanes() disjoint key subranges; each runs as its own
  // CompactionJob on its own lane, so reads/writes from different
  // subranges overlap in virtual device time. One lane is the unsplit
  // compaction. All subranges' outputs install as ONE atomic
  // VersionSet edit.
  Status StartCompaction(CompactionPick pick, kv::BackgroundPool* pool);
  // Runs about `budget` bytes of the in-flight compaction, split across
  // its live subranges; installs it once every subrange has drained.
  Status StepCompaction(uint64_t budget, kv::BackgroundPool* pool);
  Status InstallCompaction(kv::BackgroundPool* pool);
  Status MaybeStall();
  StatusOr<SstReader*> GetReader(uint64_t number);
  void EvictReaders(const std::vector<uint64_t>& numbers);
  void ChargeCpu(int64_t ns) const;

  // Snapshot Get's body: newest version of `key` at the snapshot's
  // sequence bound across its pinned memtable + frozen file lists,
  // filtered by its range tombstones. Runs under commit exclusion.
  Status SnapshotGetInternal(const SnapshotImpl& snap, std::string_view key,
                             std::string* value);
  // The CompactionJob input-disposal hook: pinned inputs become on-disk
  // zombies (snapshot_pinned_bytes grows) instead of being deleted.
  FileDeleter MakeFileDeleter();
  // Snapshot deleter body: un-pins every file the snapshot held and
  // physically deletes zombies whose last pin dropped.
  void ReleaseSnapshot(const SnapshotImpl& snap);
  void UnpinFile(uint64_t number);

  fs::SimpleFs* fs_;
  LsmOptions options_;
  std::string dir_;

  std::unique_ptr<VersionSet> versions_;
  // shared_ptr: a snapshot keeps the memtable it froze alive across
  // rotations (flush swaps in a fresh one; pinned versions stay readable).
  std::shared_ptr<Memtable> memtable_;
  std::unique_ptr<WalWriter> wal_;
  fs::File* wal_file_ = nullptr;
  uint64_t wal_number_ = 0;

  // In-flight compaction: one pick, the shared input readers (each
  // input table opened once), and one job per key subrange.
  struct Compaction {
    CompactionPick pick;
    std::vector<std::unique_ptr<SstReader>> input_readers;
    std::vector<std::unique_ptr<CompactionJob>> jobs;
  };
  std::unique_ptr<Compaction> compaction_;
  // Background lanes for compaction (queue background_queue + i): timed
  // only with background_io, compaction_parallelism lanes only then.
  kv::BackgroundPool pool_;

  // Table cache: open readers with pinned index+bloom (never evicted while
  // the file is live, as RocksDB effectively does for filter/index blocks).
  std::map<uint64_t, std::unique_ptr<SstReader>> readers_;

  // Range tombstones, oldest first: {begin, end, seq} hides every version
  // of a covered key older than seq. They live beside the key space (WAL
  // records until the next flush, then the manifest's full-list edit) and
  // are filtered on the read path, never merged into SSTs.
  std::vector<RangeTombstone> tombstones_;
  // How many of tombstones_ the manifest already holds (they are only
  // appended, so a count is a full description).
  size_t tombstones_persisted_ = 0;

  // Snapshot pinning. pins_: file number -> number of open snapshots
  // whose frozen file lists include it. zombies_: pinned files the live
  // version already dropped (compaction inputs) -> their byte size; they
  // stay on the filesystem until the last pin drops.
  std::map<uint64_t, int> pins_;
  std::map<uint64_t, uint64_t> zombies_;
  // Sequence bounds of the open snapshots: a memtable write may
  // overwrite a version in place only if it is above the newest one.
  std::multiset<SequenceNumber> snapshot_seqs_;

  SequenceNumber seq_ = 0;
  // Bumped by every mutating entry point (Write, Flush, compaction
  // drains). Debug builds compare it against the value captured at
  // iterator creation to fail fast on use-after-write instead of reading
  // freed memtables/SSTs.
  uint64_t write_epoch_ = 0;
  kv::KvStoreStats stats_;
  // Cross-thread group commit queue; also provides the commit-exclusion
  // lock the read paths (and const stats snapshots) run under. mutable:
  // taking the exclusion lock is not logically a mutation.
  mutable kv::WriteGroup write_group_;
  bool closed_ = false;
};

// Registers the "lsm" engine factory with kv::EngineRegistry. Recognized
// params mirror LsmOptions field names (e.g. "memtable_bytes",
// "wal_enabled", "level_size_ratio"); the factory starts from default
// LsmOptions and applies overrides.
void RegisterLsmEngine();

// Encodes every numeric/bool LsmOptions field into an EngineOptions param
// map (the inverse of what the factory parses); the clock is carried by
// EngineOptions itself, not the map.
std::map<std::string, std::string> EncodeEngineParams(const LsmOptions& o);

}  // namespace ptsb::lsm

#endif  // PTSB_LSM_LSM_STORE_H_
