// BTreeStore: the WiredTiger-analog key-value store. A single-file paged
// B+Tree with a leaf page cache, copy-on-write block management, periodic
// checkpoints (alternating header slots), and an optional journal.
#ifndef PTSB_BTREE_BTREE_STORE_H_
#define PTSB_BTREE_BTREE_STORE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "btree/block_manager.h"
#include "btree/journal.h"
#include "btree/node.h"
#include "btree/options.h"
#include "fs/filesystem.h"
#include "kv/background_pool.h"
#include "kv/kvstore.h"
#include "kv/registry.h"
#include "kv/write_group.h"

namespace ptsb::btree {

class BTreeStore : public kv::KVStore {
 public:
  // Opens (or creates) the tree file at `file_name`, recovering from the
  // newest valid checkpoint and replaying the journal if enabled.
  static StatusOr<std::unique_ptr<BTreeStore>> Open(
      fs::SimpleFs* fs, const BTreeOptions& options,
      std::string file_name = "btree/tree.db");
  ~BTreeStore() override;

  // kv::KVStore interface. Write is the group-commit path: one journal
  // record for the whole batch, then all leaf updates applied with page
  // writebacks deferred (dirty pages sit in the cache; checkpoint/evict
  // pacing runs once per batch).
  Status Write(const kv::WriteBatch& batch) override;
  // Runs the commit in a submission lane on options().io_queue, so
  // back-to-back WriteAsync calls on distinct queues overlap in virtual
  // time (see kv::KVStore::WriteAsync).
  kv::WriteHandle WriteAsync(const kv::WriteBatch& batch) override;
  Status Get(std::string_view key, std::string* value) override;
  // Snapshot-aware point lookup: with a snapshot, walks the pinned
  // checkpoint's on-disk tree privately (never touching the live cache).
  Status Get(const kv::ReadOptions& opts, std::string_view key,
             std::string* value) override;
  // Fans the lookups out across foreground-read submission lanes at
  // options().read_queue_depth, so independent leaf reads overlap in
  // virtual device time (see kv::KVStore::MultiGet).
  std::vector<Status> MultiGet(std::span<const std::string_view> keys,
                               std::vector<std::string>* values) override;
  // Runs the lookup in a foreground-read lane on options().io_queue (see
  // kv::KVStore::ReadAsync).
  kv::ReadHandle ReadAsync(std::string_view key, std::string* value) override;
  // Leaf-walking cursor in key order. Invalidated by any write to the
  // store (splits and evictions move items between pages).
  std::unique_ptr<kv::KVStore::Iterator> NewIterator() override;
  // With a snapshot: a disk-walking cursor over the pinned checkpoint's
  // tree, immune to concurrent writes (it never touches the live cache).
  // opts.readahead > 1 batches that many sibling-leaf reads per span
  // across foreground-read submission lanes (capped at
  // read_queue_depth), so the leaf fetches overlap in virtual device
  // time. Without a snapshot, falls back to the live cursor.
  std::unique_ptr<kv::KVStore::Iterator> NewIterator(
      const kv::ReadOptions& opts) override;
  // Pins the current state as a checkpoint: runs a foreground checkpoint
  // and holds its generation's blocks out of reuse (quarantine cohorts
  // in the block manager) until the snapshot drops.
  StatusOr<std::shared_ptr<const kv::Snapshot>> GetSnapshot() override;
  Status Flush() override;  // checkpoint
  // Waits out a background-lane checkpoint in flight (background_io);
  // checkpoints have no deferred debt beyond that, so nothing else to do.
  Status SettleBackgroundWork() override;
  Status Close() override;
  // Concurrent Write callers group-commit; point reads run under the
  // group's commit-exclusion lock (they touch the shared leaf cache).
  // Iterators and lifecycle calls still expect a quiesced store.
  bool SupportsConcurrentWriters() const override { return true; }
  kv::KvStoreStats GetStats() const override {
    return write_group_.RunExclusive([&] {
      kv::KvStoreStats s = stats_;
      // Live gauge: bytes the block manager holds out of reuse for
      // snapshots (returns to 0 when the last snapshot drops).
      s.snapshot_pinned_bytes = blocks_->quarantined_bytes();
      return s;
    });
  }
  std::string Name() const override { return "btree(wiredtiger-like)"; }
  uint64_t DiskBytesUsed() const override;

  // Introspection for tests and benches.
  uint64_t checkpoint_count() const { return checkpoint_count_; }
  uint64_t CacheBytes() const { return cache_leaf_bytes_; }
  const BlockManager& block_manager() const { return *blocks_; }
  // Structural invariants: sorted keys, route consistency, uniform depth.
  Status CheckStructure();

 private:
  class Cursor;
  class SnapshotImpl;
  class SnapCursor;

  BTreeStore(fs::SimpleFs* fs, const BTreeOptions& options,
             std::string file_name);

  // The commit function the write group's leader runs: the old Write
  // body, applied to the merged batch of `n_user_batches` user Writes.
  Status WriteInternal(const kv::WriteBatch& batch, size_t n_user_batches);
  // Get's body, run under the group's commit-exclusion lock (descends
  // the tree, faulting and LRU-touching leaves in the shared cache).
  Status GetInternal(std::string_view key, std::string* value);

  // Applies one batch entry to its leaf (insert/overwrite/erase + split).
  Status ApplyEntry(const kv::WriteBatch::Entry& entry);
  // Eagerly erases every key in [begin, end): B+Trees keep no tombstones,
  // so a range delete is the per-leaf erasure of the covered spans.
  Status ApplyDeleteRange(std::string_view begin, std::string_view end);

  // Snapshot Get's body: a private root-to-leaf walk of the pinned
  // checkpoint's on-disk tree (runs under the commit-exclusion lock).
  Status SnapshotGetInternal(const SnapshotImpl& snap, std::string_view key,
                             std::string* value);
  // Called by ~SnapshotImpl: drops the generation pin and releases any
  // quarantine cohorts no remaining snapshot needs.
  void ReleaseSnapshot(const SnapshotImpl& snap);

  Status Recover();
  StatusOr<std::unique_ptr<Node>> ReadNode(const BlockAddr& addr);
  // Ensures children[idx] of `parent` is loaded; returns the child.
  StatusOr<Node*> FetchChild(Node* parent, size_t idx);
  StatusOr<Node*> DescendToLeaf(std::string_view key);

  // One deferred checkpoint block write: a node's bytes at its freshly
  // allocated offset, device write postponed so a batch of them can fan
  // out across background lanes. `node` is kept so a failed checkpoint
  // can mark it dirty again.
  struct PendingWrite {
    Node* node = nullptr;
    uint64_t offset = 0;
    std::string data;
  };
  // Writes a node to a fresh block, frees the old one, updates the parent
  // address cell (or the pending root address). With `deferred` set (a
  // checkpoint), all of that bookkeeping still happens in order but the
  // device write is appended to the list instead of issued; without it
  // (an eviction writeback), the write is issued now.
  Status WriteNode(Node* node, std::vector<PendingWrite>* deferred = nullptr);
  // Post-order: defers the writes of every dirty node in the loaded
  // subtree.
  Status WriteDirtySubtree(Node* node, std::vector<PendingWrite>* deferred);
  // Checkpoint on `pool`: collects the dirty nodes' block writes, fans
  // them across the pool's lanes, then runs the free-list blob, header
  // and journal rotation on lane 0 behind a background-side barrier —
  // header last, frees after it. If it fails before the header is
  // durable, every node it marked clean is dirty again, so a retry
  // rewrites them. Paced checkpoints pass pool_; the user-facing ones
  // (Flush, GetSnapshot, Close) run through ForegroundCheckpoint.
  Status Checkpoint(kv::BackgroundPool* pool);
  // Checkpoint on an untimed one-lane pool: on the foreground timeline.
  Status ForegroundCheckpoint();
  Status WriteHeader();

  // Leaf cache management.
  void TouchLeaf(Node* leaf);
  void ForgetLeaf(Node* leaf);  // remove from LRU accounting
  Status EvictIfNeeded();

  // Split path after an insert made `node` oversized.
  Status SplitIfNeeded(Node* node);

  void ChargeCpu(int64_t ns) const;

  static int Depth(const Node* n);
  Status CheckSubtree(Node* node, int depth, int expect_depth,
                      std::string_view lower_bound);

  fs::SimpleFs* fs_;
  BTreeOptions options_;
  std::string file_name_;
  fs::File* file_ = nullptr;
  std::unique_ptr<BlockManager> blocks_;
  std::unique_ptr<Node> root_;
  BlockAddr root_addr_;      // as of the last write of the root
  BlockAddr freelist_addr_;  // current persisted free list blob
  uint64_t checkpoint_gen_ = 0;
  uint64_t checkpoint_count_ = 0;
  uint64_t bytes_since_checkpoint_ = 0;
  // Lanes for paced checkpoints (queue background_queue + i): timed
  // only with background_io, compaction_parallelism lanes only then.
  kv::BackgroundPool pool_;

  std::list<Node*> lru_;  // front = least recently used
  uint64_t cache_leaf_bytes_ = 0;

  std::unique_ptr<JournalWriter> journal_;
  fs::File* journal_file_ = nullptr;
  bool replaying_ = false;
  // Set when a journal rotation failed mid-way: the tree state is durable
  // but new commits would have no durable record, so Write fail-stops
  // until a reopen rebuilds the journal.
  bool journal_lost_ = false;

  // Bumped by every mutating entry point (Write, Flush). Debug builds
  // compare it against the value captured at cursor creation to fail
  // fast on use-after-write instead of walking moved/evicted leaves.
  uint64_t write_epoch_ = 0;
  // checkpoint generation -> number of live snapshots pinning it.
  std::map<uint64_t, int> snapshot_pins_;
  kv::KvStoreStats stats_;
  // Cross-thread group commit queue; also provides the commit-exclusion
  // lock the read paths (and const stats snapshots) run under.
  mutable kv::WriteGroup write_group_;
  bool closed_ = false;
};

// Registers the "btree" engine factory with kv::EngineRegistry. Recognized
// params mirror BTreeOptions field names (e.g. "cache_bytes",
// "journal_enabled"); the factory starts from default BTreeOptions and
// applies overrides.
void RegisterBTreeEngine();

// Encodes every numeric/bool BTreeOptions field into an EngineOptions
// param map (the inverse of what the factory parses); the clock is
// carried by EngineOptions itself, not the map.
std::map<std::string, std::string> EncodeEngineParams(const BTreeOptions& o);

}  // namespace ptsb::btree

#endif  // PTSB_BTREE_BTREE_STORE_H_
