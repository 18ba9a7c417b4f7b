#include "lsm/lsm_store.h"

#include <algorithm>
#include <span>

#include "util/human.h"
#include "util/logging.h"

namespace ptsb::lsm {

LsmStore::LsmStore(fs::SimpleFs* fs, const LsmOptions& options,
                   std::string dir)
    : fs_(fs), options_(options), dir_(std::move(dir)),
      pool_(kv::BackgroundPool::ForEngine(
          options.clock, options.background_io, options.background_queue,
          options.compaction_parallelism)),
      write_group_(options.max_write_group_bytes) {}

LsmStore::~LsmStore() {
  if (!closed_) {
    // Best-effort shutdown; errors are not recoverable in a destructor.
    Close().ok();
  }
}

StatusOr<std::unique_ptr<LsmStore>> LsmStore::Open(fs::SimpleFs* fs,
                                                   const LsmOptions& options,
                                                   std::string dir) {
  auto store =
      std::unique_ptr<LsmStore>(new LsmStore(fs, options, std::move(dir)));
  store->versions_ = std::make_unique<VersionSet>(fs, store->dir_,
                                                  options.max_levels);
  PTSB_RETURN_IF_ERROR(store->versions_->Recover());
  store->memtable_ = std::make_shared<Memtable>();
  store->seq_ = store->versions_->last_sequence();
  // Manifest-recovered range tombstones are the flushed baseline; WAL
  // replay re-appends anything newer.
  store->tombstones_ = store->versions_->range_tombstones();
  store->tombstones_persisted_ = store->tombstones_.size();

  // Sweep orphan SSTs: a crash mid-flush/compaction can leave a created
  // but never-installed file whose number the recovered manifest will
  // hand out again (next_file_number is only durable as of the last
  // edit) — the next flush would then collide on Create. Files the
  // manifest doesn't reference are dead by construction; delete them.
  {
    std::vector<std::string> files = fs->List(store->dir_ + "/");
    for (const std::string& name : files) {
      const size_t slash = name.rfind('/');
      if (name.ends_with(".log")) {
        // Kept and replayed below, but its allocation may not be durable:
        // never hand the number out again.
        store->versions_->EnsureFileNumberPast(
            std::stoull(name.substr(slash + 1)));
        continue;
      }
      if (!name.ends_with(".sst")) continue;
      const uint64_t number = std::stoull(name.substr(slash + 1));
      store->versions_->EnsureFileNumberPast(number);
      bool live = false;
      for (int level = 0; level < store->versions_->num_levels() && !live;
           level++) {
        for (const FileMeta& f : store->versions_->LevelFiles(level)) {
          if (f.number == number) {
            live = true;
            break;
          }
        }
      }
      if (!live) PTSB_RETURN_IF_ERROR(fs->Delete(name));
    }
  }

  // Replay WALs at or above the manifest's log number, in file order.
  std::vector<std::string> logs = fs->List(store->dir_ + "/");
  std::erase_if(logs, [](const std::string& n) {
    return !n.ends_with(".log");
  });
  std::sort(logs.begin(), logs.end());
  fs::File* newest_wal = nullptr;
  uint64_t newest_number = 0;
  for (const std::string& name : logs) {
    const size_t slash = name.rfind('/');
    const uint64_t number = std::stoull(name.substr(slash + 1));
    if (number < store->versions_->log_number()) {
      // Obsolete: already flushed.
      PTSB_RETURN_IF_ERROR(fs->Delete(name));
      continue;
    }
    PTSB_ASSIGN_OR_RETURN(fs::File * file, fs->Open(name));
    SequenceNumber max_seq = store->seq_;
    PTSB_RETURN_IF_ERROR(ReplayWal(
        file, [&](std::string_view key, SequenceNumber seq, EntryType type,
                  std::string_view value) {
          if (type == EntryType::kRangeDelete) {
            // Range tombstones never enter the memtable: they live in the
            // store's side list (key=begin, value=exclusive end).
            store->tombstones_.push_back(RangeTombstone{
                std::string(key), std::string(value), seq});
          } else {
            store->memtable_->Add(key, seq, type, value, /*snapshot_seq=*/0);
          }
          max_seq = std::max(max_seq, seq);
        }));
    store->seq_ = max_seq;
    newest_wal = file;
    newest_number = number;
  }
  if (options.wal_enabled) {
    if (newest_wal == nullptr) {
      newest_number = store->versions_->NewFileNumber();
      PTSB_ASSIGN_OR_RETURN(
          newest_wal,
          fs->Create(VersionSet::WalFileName(store->dir_, newest_number)));
      VersionEdit edit;
      edit.log_number = newest_number;
      PTSB_RETURN_IF_ERROR(store->versions_->LogAndApply(edit));
    }
    store->wal_file_ = newest_wal;
    store->wal_number_ = newest_number;
    store->wal_ = std::make_unique<WalWriter>(newest_wal,
                                              options.wal_sync_every_bytes,
                                              options.wal_buffer_bytes);
  }
  return store;
}

void LsmStore::ChargeCpu(int64_t ns) const {
  if (options_.clock != nullptr) options_.clock->Advance(ns);
}

kv::WriteHandle LsmStore::WriteAsync(const kv::WriteBatch& batch) {
  return kv::AsyncCommit(options_.clock, options_.io_queue,
                         [&] { return Write(batch); });
}

Status LsmStore::Write(const kv::WriteBatch& batch) {
  PTSB_CHECK(!closed_);
  if (batch.empty()) return Status::OK();
  // Cross-thread group commit: a single caller passes straight through
  // (group of one, no copy); concurrent callers elect a leader that
  // merges their batches into one WAL record.
  return write_group_.Commit(
      batch, [this](const kv::WriteBatch& merged, size_t n_user_batches) {
        return WriteInternal(merged, n_user_batches);
      });
}

Status LsmStore::WriteInternal(const kv::WriteBatch& batch,
                               size_t n_user_batches) {
  write_epoch_++;
  ChargeCpu(options_.cpu_put_ns * static_cast<int64_t>(batch.Count()));
  stats_.user_batches += n_user_batches;
  stats_.write_groups++;
  stats_.write_group_batches += n_user_batches;
  for (const kv::WriteBatch::Entry& e : batch.entries()) {
    switch (e.kind) {
      case kv::WriteBatch::EntryKind::kPut:
        stats_.user_puts++;
        stats_.user_bytes_written += e.key.size() + e.value.size();
        break;
      case kv::WriteBatch::EntryKind::kDelete:
        stats_.user_deletes++;
        stats_.user_bytes_written += e.key.size();
        break;
      case kv::WriteBatch::EntryKind::kDeleteRange:
        stats_.user_deletes++;
        stats_.user_bytes_written += e.key.size() + e.value.size();
        break;
    }
  }

  const SequenceNumber first_seq = seq_ + 1;
  seq_ += batch.Count();
  auto now = [this]() {
    return options_.clock != nullptr ? options_.clock->NowNanos() : 0;
  };
  if (wal_ != nullptr) {
    // Group commit: one record, one crc, for the whole batch.
    const int64_t t0 = now();
    const uint64_t wal_before = wal_->bytes_written();
    PTSB_RETURN_IF_ERROR(wal_->AddBatch(batch, first_seq));
    stats_.time_wal_ns += now() - t0;
    stats_.wal_bytes_written += wal_->bytes_written() - wal_before;
    stats_.wal_records++;
  }
  SequenceNumber seq = first_seq;
  const SequenceNumber snapshot_seq =
      snapshot_seqs_.empty() ? 0 : *snapshot_seqs_.rbegin();
  for (const kv::WriteBatch::Entry& e : batch.entries()) {
    const SequenceNumber s = seq++;
    switch (e.kind) {
      case kv::WriteBatch::EntryKind::kPut:
        memtable_->Add(e.key, s, EntryType::kPut, e.value, snapshot_seq);
        break;
      case kv::WriteBatch::EntryKind::kDelete:
        memtable_->Add(e.key, s, EntryType::kDelete, e.value, snapshot_seq);
        break;
      case kv::WriteBatch::EntryKind::kDeleteRange:
        // Range tombstones live beside the key space: WAL-logged above,
        // persisted in full by the next manifest edit, filtered on the
        // read paths (never merged into SSTs).
        tombstones_.push_back(RangeTombstone{e.key, e.value, s});
        break;
    }
  }

  if (memtable_->ApproximateBytes() >= options_.memtable_bytes) {
    const int64_t t0 = now();
    PTSB_RETURN_IF_ERROR(FlushMemtable());
    stats_.time_flush_ns += now() - t0;
  }
  // Background compaction's share of the device, paced by user traffic.
  const int64_t t1 = now();
  PTSB_RETURN_IF_ERROR(CompactionWork(
      batch.ByteSize() * options_.compaction_work_per_user_write));
  PTSB_RETURN_IF_ERROR(MaybeStall());
  stats_.time_compaction_ns += now() - t1;
  return Status::OK();
}

Status LsmStore::FlushMemtable() {
  if (memtable_->empty()) {
    if (tombstones_persisted_ == tombstones_.size()) return Status::OK();
    // Nothing to flush, but range tombstones the manifest has not seen
    // yet: persist them in an edit of their own (a DeleteRange-only
    // workload must survive WAL rotation and Close like any other write).
    VersionEdit edit;
    edit.range_tombstones = tombstones_;
    edit.last_sequence = seq_;
    PTSB_RETURN_IF_ERROR(versions_->LogAndApply(edit));
    tombstones_persisted_ = tombstones_.size();
    return Status::OK();
  }
  const uint64_t number = versions_->NewFileNumber();
  PTSB_ASSIGN_OR_RETURN(fs::File * file,
                        fs_->Create(VersionSet::SstFileName(dir_, number)));
  SstBuilder builder(file, options_.block_bytes, options_.bloom_bits_per_key);
  // Only each key's newest version is written, the rule compaction
  // applies: a snapshot that reads an older one pins this memtable, not
  // the new table.
  Memtable::Iterator it(memtable_.get());
  for (it.SeekToFirst(); it.Valid(); it.Next()) {
    if (builder.num_entries() > 0 && it.key() == builder.largest()) continue;
    PTSB_RETURN_IF_ERROR(builder.Add(it.key(), it.seq(), it.type(),
                                     it.value()));
  }
  PTSB_RETURN_IF_ERROR(builder.Finish());
  stats_.flush_bytes_written += builder.file_bytes();

  FileMeta meta;
  meta.number = number;
  meta.file_bytes = builder.file_bytes();
  meta.num_entries = builder.num_entries();
  meta.smallest = builder.smallest();
  meta.largest = builder.largest();

  VersionEdit edit;
  edit.added.emplace_back(0, std::move(meta));
  edit.last_sequence = seq_;
  // Every flush re-writes the full tombstone list (replace-on-apply), so
  // the rotated-away WAL's range deletes stay durable.
  edit.range_tombstones = tombstones_;

  // Rotate the WAL: the flushed SST covers everything in the old log.
  uint64_t old_wal = wal_number_;
  if (wal_ != nullptr) {
    wal_number_ = versions_->NewFileNumber();
    PTSB_ASSIGN_OR_RETURN(
        wal_file_, fs_->Create(VersionSet::WalFileName(dir_, wal_number_)));
    wal_ = std::make_unique<WalWriter>(wal_file_,
                                       options_.wal_sync_every_bytes,
                                       options_.wal_buffer_bytes);
    edit.log_number = wal_number_;
  }
  PTSB_RETURN_IF_ERROR(versions_->LogAndApply(edit));
  tombstones_persisted_ = tombstones_.size();
  if (wal_ != nullptr) {
    PTSB_RETURN_IF_ERROR(
        fs_->Delete(VersionSet::WalFileName(dir_, old_wal)));
  }
  // Rotate, not reset: a snapshot's shared_ptr keeps the old memtable
  // (and the versions it froze) readable after the swap.
  memtable_ = std::make_shared<Memtable>();
  return Status::OK();
}

Status LsmStore::CompactionWork(uint64_t budget) {
  // A zero budget requests no background progress at all (e.g.
  // compaction_work_per_user_write=0 defers every compaction to the
  // explicit drains); without this, picking and preparing a job would
  // still do device reads.
  if (budget == 0) return Status::OK();
  if (compaction_ == nullptr) {
    CompactionPick pick = PickCompaction(*versions_, options_);
    if (!pick.valid) return Status::OK();
    if (pick.trivial_move) {
      // Relink the file into the next level: no table I/O, only the
      // manifest append (charged on a background lane).
      kv::BackgroundResult r = pool_.Run(0, [&] {
        VersionEdit edit;
        edit.removed.emplace_back(pick.level, pick.inputs0[0].number);
        edit.added.emplace_back(pick.level + 1, pick.inputs0[0]);
        return versions_->LogAndApply(edit);
      });
      stats_.time_background_ns += r.busy_ns;
      return r.status;
    }
    PTSB_RETURN_IF_ERROR(StartCompaction(std::move(pick), &pool_));
  }
  return StepCompaction(budget, &pool_);
}

Status LsmStore::StartCompaction(CompactionPick pick,
                                 kv::BackgroundPool* pool) {
  auto c = std::make_unique<Compaction>();
  c->pick = std::move(pick);
  const size_t n0 = c->pick.inputs0.size();
  c->input_readers.resize(n0 + c->pick.inputs1.size());
  // Each input table is opened once, on first use: the subjobs share
  // the readers, so footer/index/bloom reads are paid once, not per
  // subrange.
  const CompactionJob::InputReader reader =
      [&](size_t i) -> StatusOr<SstReader*> {
    std::unique_ptr<SstReader>& r = c->input_readers[i];
    if (r == nullptr) {
      const FileMeta& f =
          i < n0 ? c->pick.inputs0[i] : c->pick.inputs1[i - n0];
      PTSB_ASSIGN_OR_RETURN(
          fs::File * file, fs_->Open(VersionSet::SstFileName(dir_, f.number)));
      PTSB_ASSIGN_OR_RETURN(r, SstReader::Open(file));
    }
    return r.get();
  };

  // Cutting the key range into one subrange per lane needs every
  // input's block index: open them all on lane 0 first (every subrange
  // depends on the opens). One lane has nothing to cut; its job opens
  // each input as it positions it.
  std::vector<std::string> bounds;
  if (pool->lanes() > 1) {
    std::vector<SstReader*> raw;
    kv::BackgroundResult open_r = pool->Run(0, [&]() -> Status {
      for (size_t i = 0; i < c->input_readers.size(); i++) {
        PTSB_ASSIGN_OR_RETURN(SstReader * r, reader(i));
        raw.push_back(r);
      }
      return Status::OK();
    });
    stats_.time_background_ns += open_r.busy_ns;
    PTSB_RETURN_IF_ERROR(open_r.status);
    pool->Barrier();
    bounds = SplitCompactionRange(raw, pool->lanes());
  }
  const size_t k = bounds.size() + 1;
  for (size_t i = 0; i < k; i++) {
    auto job = std::make_unique<CompactionJob>(fs_, dir_, versions_.get(),
                                               options_, c->pick);
    job->SetKeyBounds(i == 0 ? std::string() : bounds[i - 1],
                      i == bounds.size() ? std::string() : bounds[i]);
    c->jobs.push_back(std::move(job));
  }
  // Seed each subrange on its own lane: the initial Seek loads data
  // blocks, and those reads already overlap across channels.
  for (size_t i = 0; i < k; i++) {
    kv::BackgroundResult r =
        pool->Run(static_cast<int>(i),
                  [&] { return c->jobs[i]->PrepareWithReaders(reader); });
    stats_.time_background_ns += r.busy_ns;
    PTSB_RETURN_IF_ERROR(r.status);
  }
  compaction_ = std::move(c);
  return Status::OK();
}

Status LsmStore::StepCompaction(uint64_t budget, kv::BackgroundPool* pool) {
  auto& jobs = compaction_->jobs;
  int live = 0;
  for (const auto& j : jobs) {
    if (!j->finished()) live++;
  }
  if (live > 0) {
    // Split the pacing budget across the live subranges: one call here
    // advances every lane, so a slice still represents `budget` bytes
    // of input overall — the same pacing an unsplit job gets.
    const uint64_t share =
        std::max<uint64_t>(1, budget / static_cast<uint64_t>(live));
    for (size_t i = 0; i < jobs.size(); i++) {
      if (jobs[i]->finished()) continue;
      kv::BackgroundResult r = pool->Run(
          static_cast<int>(i),
          [&]() -> Status { return jobs[i]->Step(share).status(); });
      stats_.time_background_ns += r.busy_ns;
      PTSB_RETURN_IF_ERROR(r.status);
    }
  }
  for (const auto& j : jobs) {
    if (!j->finished()) return Status::OK();
  }
  return InstallCompaction(pool);
}

Status LsmStore::InstallCompaction(kv::BackgroundPool* pool) {
  Compaction& c = *compaction_;
  for (const auto& job : c.jobs) {
    stats_.compaction_bytes_read += job->io_stats().bytes_read;
    stats_.compaction_bytes_written += job->io_stats().bytes_written;
  }
  // The install depends on every subrange: line the lanes up first,
  // then commit on lane 0.
  pool->Barrier();
  std::vector<uint64_t> deleted;
  kv::BackgroundResult r = pool->Run(0, [&]() -> Status {
    // ONE atomic VersionEdit covering all subranges: removals for the
    // shared inputs, additions for every subrange's outputs. A crash
    // before this record leaves only orphan SSTs (the recovery sweep
    // reclaims them); after it, the new version is complete.
    VersionEdit edit;
    for (const FileMeta& f : c.pick.inputs0) {
      edit.removed.emplace_back(c.pick.level, f.number);
    }
    for (const FileMeta& f : c.pick.inputs1) {
      edit.removed.emplace_back(c.pick.level + 1, f.number);
    }
    for (const auto& job : c.jobs) {
      for (const auto& [meta, number] : job->outputs()) {
        edit.added.emplace_back(c.pick.level + 1, meta);
      }
    }
    PTSB_RETURN_IF_ERROR(versions_->LogAndApply(edit));
    // Close the shared readers, then dispose the inputs once, as one
    // group delete (the deleter parks snapshot-pinned inputs as on-disk
    // zombies; only physical deletions reach the eviction list).
    c.jobs.clear();
    c.input_readers.clear();
    return DisposeInputs(fs_, dir_, c.pick, MakeFileDeleter(), &deleted);
  });
  stats_.time_background_ns += r.busy_ns;
  compaction_.reset();
  EvictReaders(deleted);
  return r.status;
}

Status LsmStore::MaybeStall() {
  // RocksDB's stop-writes condition: too many L0 files. The user write
  // blocks while compaction catches up (device time accrues through the
  // compaction's I/O).
  while (static_cast<int>(versions_->LevelFiles(0).size()) >=
         options_.l0_stall_trigger) {
    stats_.stall_count++;
    PTSB_RETURN_IF_ERROR(CompactionWork(options_.compaction_budget_bytes));
    // A stall IS the user waiting for compaction: with background_io the
    // wait shows up as an explicit join of the background horizon (and
    // therefore as commit tail latency), not as per-write compaction
    // time.
    pool_.Join();
    if (!CompactionPending() &&
        static_cast<int>(versions_->LevelFiles(0).size()) >=
            options_.l0_stall_trigger) {
      // Compaction pressure resolved elsewhere or nothing to do; avoid a
      // livelock.
      break;
    }
  }
  return Status::OK();
}

Status LsmStore::DrainCompactions() {
  write_epoch_++;  // compaction deletes SSTs open iterators may hold
  // Finish the in-flight job and keep compacting until no level is over
  // its trigger. Draining means waiting the work out: join the
  // background horizon before reporting settled.
  for (;;) {
    PTSB_RETURN_IF_ERROR(
        CompactionWork(options_.compaction_budget_bytes * 8));
    if (CompactionPending()) continue;
    CompactionPick pick = PickCompaction(*versions_, options_);
    if (!pick.valid) {
      pool_.Join();
      return Status::OK();
    }
  }
}

Status LsmStore::CompactAll() {
  PTSB_RETURN_IF_ERROR(FlushMemtable());
  PTSB_RETURN_IF_ERROR(DrainCompactions());
  const int bottom = versions_->MaxPopulatedLevel();
  if (bottom < 0) return Status::OK();

  // Force every level (including the current bottom, so its own tombstones
  // get a chance to drop) down one step, top to bottom. The user waits
  // for a manual compaction: it runs unsplit on the foreground timeline,
  // through an untimed one-lane pool.
  kv::BackgroundPool foreground(nullptr, options_.background_queue, 1);
  const int last_forced = std::min(bottom, versions_->num_levels() - 2);
  for (int level = 0; level <= last_forced; level++) {
    while (!versions_->LevelFiles(level).empty()) {
      CompactionPick pick;
      pick.valid = true;
      pick.level = level;
      pick.inputs0 = versions_->LevelFiles(level);
      std::string smallest, largest;
      for (const FileMeta& f : pick.inputs0) {
        if (smallest.empty() || f.smallest < smallest) smallest = f.smallest;
        if (largest.empty() || f.largest > largest) largest = f.largest;
      }
      pick.inputs1 = versions_->Overlapping(level + 1, smallest, largest);
      pick.drop_tombstones = CanDropTombstones(*versions_, level + 1);
      PTSB_RETURN_IF_ERROR(StartCompaction(std::move(pick), &foreground));
      while (compaction_ != nullptr) {
        PTSB_RETURN_IF_ERROR(
            StepCompaction(options_.compaction_budget_bytes * 8, &foreground));
      }
    }
  }
  return Status::OK();
}

StatusOr<SstReader*> LsmStore::GetReader(uint64_t number) {
  auto it = readers_.find(number);
  if (it != readers_.end()) return it->second.get();
  PTSB_ASSIGN_OR_RETURN(fs::File * file,
                        fs_->Open(VersionSet::SstFileName(dir_, number)));
  PTSB_ASSIGN_OR_RETURN(auto reader, SstReader::Open(file));
  SstReader* raw = reader.get();
  readers_[number] = std::move(reader);
  return raw;
}

void LsmStore::EvictReaders(const std::vector<uint64_t>& numbers) {
  for (const uint64_t n : numbers) readers_.erase(n);
}

namespace {

// True when some range tombstone visible at `bound` hides a version of
// `key` written at `entry_seq`.
bool CoveredByRange(const std::vector<RangeTombstone>& tombstones,
                    std::string_view key, SequenceNumber entry_seq,
                    SequenceNumber bound) {
  for (const RangeTombstone& t : tombstones) {
    if (t.seq <= bound && RangeCovers(t, key, entry_seq)) return true;
  }
  return false;
}

// Index of the first file in a sorted, disjoint run of files whose
// largest key is >= key (files.size() if none): the only file that can
// hold `key`, and the file a seek to `key` starts in.
size_t FirstFileAtOrAbove(std::span<const FileMeta> files,
                          std::string_view key) {
  return static_cast<size_t>(
      std::partition_point(
          files.begin(), files.end(),
          [key](const FileMeta& f) { return f.largest < key; }) -
      files.begin());
}

// Files of `level` a point read of `key` probes, in order: every L0
// file, newest first (they overlap; the caller range-checks each), or
// the one deeper-level file whose range covers `key` (none if it falls
// between files).
std::span<const FileMeta> CandidateFiles(const std::vector<FileMeta>& files,
                                         size_t level, std::string_view key) {
  if (level == 0) return files;
  const size_t i = FirstFileAtOrAbove(files, key);
  if (i == files.size() || key < files[i].smallest) return {};
  return std::span<const FileMeta>(files).subspan(i, 1);
}

// Newest version of `key` with seq <= bound in one table. SstReader::Get
// only surfaces the newest version outright, so bounded lookups walk the
// versions (internal order: newest first) through an iterator.
StatusOr<SstReader::GetResult> BoundedSstGet(SstReader* reader,
                                             std::string_view key,
                                             SequenceNumber bound) {
  SstReader::GetResult result;
  SstReader::Iterator it(reader);
  PTSB_RETURN_IF_ERROR(it.Seek(key));
  while (it.Valid() && it.key() == key) {
    if (it.seq() <= bound) {
      result.found = true;
      result.type = it.type();
      result.seq = it.seq();
      result.value.assign(it.value().data(), it.value().size());
      break;
    }
    PTSB_RETURN_IF_ERROR(it.Next());
  }
  return result;
}

}  // namespace

// A frozen view: the sequence bound plus owning references to everything
// a read at that bound can touch — the memtable of the moment (shared_ptr
// keeps it alive across rotations) and a copy of the per-level file lists
// (each file pinned in the store against physical deletion) and range
// tombstones. Destruction releases the pins under commit exclusion; the
// snapshot must be released before the store is destroyed.
class LsmStore::SnapshotImpl : public kv::Snapshot {
 public:
  explicit SnapshotImpl(LsmStore* store) : store_(store) {}
  ~SnapshotImpl() override { store_->ReleaseSnapshot(*this); }
  uint64_t sequence() const override { return seq_; }

  LsmStore* store_;
  SequenceNumber seq_ = 0;
  std::shared_ptr<Memtable> memtable_;
  std::vector<std::vector<FileMeta>> levels_;
  std::vector<RangeTombstone> tombstones_;
};

StatusOr<std::shared_ptr<const kv::Snapshot>> LsmStore::GetSnapshot() {
  PTSB_CHECK(!closed_);
  return write_group_.RunExclusive(
      [&]() -> StatusOr<std::shared_ptr<const kv::Snapshot>> {
        auto snap = std::make_shared<SnapshotImpl>(this);
        snap->seq_ = seq_;
        snapshot_seqs_.insert(seq_);
        snap->memtable_ = memtable_;
        snap->tombstones_ = tombstones_;
        snap->levels_.resize(versions_->num_levels());
        for (int l = 0; l < versions_->num_levels(); l++) {
          snap->levels_[l] = versions_->LevelFiles(l);
          for (const FileMeta& f : snap->levels_[l]) pins_[f.number]++;
        }
        stats_.snapshots_created++;
        stats_.snapshots_open++;
        return std::shared_ptr<const kv::Snapshot>(std::move(snap));
      });
}

void LsmStore::ReleaseSnapshot(const SnapshotImpl& snap) {
  write_group_.RunExclusive([&] {
    for (const auto& level : snap.levels_) {
      for (const FileMeta& f : level) UnpinFile(f.number);
    }
    snapshot_seqs_.erase(snapshot_seqs_.find(snap.seq_));
    stats_.snapshots_open--;
  });
}

void LsmStore::UnpinFile(uint64_t number) {
  auto it = pins_.find(number);
  PTSB_CHECK(it != pins_.end());
  if (--it->second > 0) return;
  pins_.erase(it);
  auto z = zombies_.find(number);
  if (z == zombies_.end()) return;  // still in the live version
  stats_.snapshot_pinned_bytes -= z->second;
  zombies_.erase(z);
  readers_.erase(number);
  // Runs inside the snapshot's destructor, so a failure cannot
  // propagate. On a healthy simulated filesystem the delete cannot
  // fail; on a dying device (fault injection) it can — the file is then
  // left behind as an orphan for the open-time sweep instead of
  // crashing in a destructor.
  fs_->Delete(VersionSet::SstFileName(dir_, number)).ok();
}

FileDeleter LsmStore::MakeFileDeleter() {
  return [this](const FileMeta& f) {
    if (pins_.count(f.number) == 0) return true;
    // A snapshot still reads this input: park it as an on-disk zombie.
    zombies_[f.number] = f.file_bytes;
    stats_.snapshot_pinned_bytes += f.file_bytes;
    return false;
  };
}

Status LsmStore::SnapshotGetInternal(const SnapshotImpl& snap,
                                     std::string_view key,
                                     std::string* value) {
  ChargeCpu(options_.cpu_get_ns);
  stats_.user_gets++;

  const auto mem = snap.memtable_->Get(key, snap.seq_);
  if (mem.found) {
    if (mem.deleted ||
        CoveredByRange(snap.tombstones_, key, mem.seq, snap.seq_)) {
      return Status::NotFound("deleted");
    }
    *value = mem.value;
    stats_.user_bytes_read += value->size();
    return Status::OK();
  }
  for (size_t level = 0; level < snap.levels_.size(); level++) {
    for (const FileMeta& f : CandidateFiles(snap.levels_[level], level, key)) {
      if (key < f.smallest || key > f.largest) continue;
      PTSB_ASSIGN_OR_RETURN(SstReader * reader, GetReader(f.number));
      PTSB_ASSIGN_OR_RETURN(auto result, BoundedSstGet(reader, key, snap.seq_));
      if (result.found) {
        if (result.type == EntryType::kDelete ||
            CoveredByRange(snap.tombstones_, key, result.seq, snap.seq_)) {
          return Status::NotFound("deleted");
        }
        *value = std::move(result.value);
        stats_.user_bytes_read += value->size();
        return Status::OK();
      }
    }
  }
  return Status::NotFound("no such key");
}

Status LsmStore::Get(std::string_view key, std::string* value) {
  PTSB_CHECK(!closed_);
  // Exclude in-flight group commits: a leader may be rotating the
  // memtable or retiring SSTs for followers on another thread.
  return write_group_.RunExclusive([&] { return GetInternal(key, value); });
}

Status LsmStore::Get(const kv::ReadOptions& opts, std::string_view key,
                     std::string* value) {
  if (opts.snapshot == nullptr) return Get(key, value);
  PTSB_CHECK(!closed_);
  const auto* snap = static_cast<const SnapshotImpl*>(opts.snapshot);
  PTSB_CHECK(snap->store_ == this) << "snapshot from a different store";
  return write_group_.RunExclusive(
      [&] { return SnapshotGetInternal(*snap, key, value); });
}

Status LsmStore::GetInternal(std::string_view key, std::string* value) {
  ChargeCpu(options_.cpu_get_ns);
  stats_.user_gets++;

  constexpr SequenceNumber kNoBound = ~SequenceNumber{0};
  const auto mem = memtable_->Get(key);
  if (mem.found) {
    if (mem.deleted || CoveredByRange(tombstones_, key, mem.seq, kNoBound)) {
      return Status::NotFound("deleted");
    }
    *value = mem.value;
    stats_.user_bytes_read += value->size();
    return Status::OK();
  }
  // L0 newest-first, then deeper levels.
  for (int level = 0; level < versions_->num_levels(); level++) {
    for (const FileMeta& f :
         CandidateFiles(versions_->LevelFiles(level), level, key)) {
      if (key < f.smallest || key > f.largest) continue;
      PTSB_ASSIGN_OR_RETURN(SstReader * reader, GetReader(f.number));
      PTSB_ASSIGN_OR_RETURN(auto result, reader->Get(key));
      if (result.bloom_negative) stats_.bloom_negatives++;
      if (result.bloom_false_positive) stats_.bloom_false_positives++;
      if (result.found) {
        if (result.type == EntryType::kDelete ||
            CoveredByRange(tombstones_, key, result.seq, kNoBound)) {
          return Status::NotFound("deleted");
        }
        *value = std::move(result.value);
        stats_.user_bytes_read += value->size();
        return Status::OK();
      }
    }
  }
  return Status::NotFound("no such key");
}

std::vector<Status> LsmStore::MultiGet(std::span<const std::string_view> keys,
                                       std::vector<std::string>* values) {
  PTSB_CHECK(!closed_);
  return kv::FanOutMultiGet(this, options_.clock, options_.io_queue,
                            options_.read_queue_depth, keys, values);
}

kv::ReadHandle LsmStore::ReadAsync(std::string_view key, std::string* value) {
  return kv::AsyncRead(options_.clock, options_.io_queue,
                       [&] { return Get(key, value); });
}

// Streaming merge over the memtable and the SSTs: picks the smallest
// entry in internal order, surfaces the newest visible version of each
// user key, skips point and range tombstones. The merge inputs are the
// memtable, one source per L0 file (L0 files overlap) and one per
// non-empty deeper level. A deeper level is sorted and disjoint, so its
// source concatenates the level's files through ONE lazily opened file
// cursor (RocksDB's LevelIterator): Seek binary-searches the first file
// whose largest key reaches the target and reads only that file, and a
// cursor that runs off a file's end opens the next one. A Seek thus
// reads at most one file per L0 file and per deeper level. With
// readahead, a level cursor's window is `readahead` data blocks; one
// that runs past a file's end opens the level's next files and reads
// their first blocks in the same round trip (SstReader::Iterator::
// ContinueInto), so a scan pays no extra round trip per file boundary.
//
// In live mode the sources are the store's current memtable and a copy
// of its file lists — any write invalidates the iterator (memtable
// rotation, compaction file deletion). In snapshot mode the sources are
// the snapshot's pinned memtable and frozen file lists, entries above
// the snapshot's sequence bound are invisible, and every cursor move
// takes the commit-exclusion lock — so the cursor survives (and
// serializes against) concurrent writers. The snapshot must outlive the
// cursor.
class LsmStore::MergingIterator : public kv::KVStore::Iterator {
 public:
  MergingIterator(LsmStore* store, const SnapshotImpl* snap, int readahead)
      : store_(store),
        snap_(snap),
        epoch_(store->write_epoch_),
        bound_(snap != nullptr ? snap->seq_ : ~SequenceNumber{0}),
        tombstones_(snap != nullptr ? snap->tombstones_
                                    : store->tombstones_) {
    // readahead > 1: prefetch that many data blocks per span, continuing
    // into the level's next file, split across foreground-read lanes at
    // the engine's read_queue_depth so one span's chunks overlap across
    // SSD channels.
    if (readahead > 1) {
      ra_.blocks = static_cast<size_t>(readahead);
      ra_.depth = std::min(readahead,
                           std::max(1, store_->options_.read_queue_depth));
      if (ra_.depth > 1) ra_.clock = store_->options_.clock;
      ra_.base_queue = store_->options_.io_queue;
    }
    const Memtable* mt = snap != nullptr ? snap->memtable_.get()
                                         : store_->memtable_.get();
    sources_.emplace_back().mem = std::make_unique<Memtable::Iterator>(mt);
    if (snap == nullptr) {
      for (int level = 0; level < store_->versions_->num_levels(); level++) {
        live_levels_.push_back(store_->versions_->LevelFiles(level));
      }
    }
    const auto& levels = snap != nullptr ? snap->levels_ : live_levels_;
    for (size_t level = 0; level < levels.size(); level++) {
      const std::span<const FileMeta> files = levels[level];
      if (files.empty()) continue;
      if (level == 0) {
        for (size_t i = 0; i < files.size(); i++) {
          sources_.emplace_back().files = files.subspan(i, 1);
        }
      } else {
        sources_.emplace_back().files = files;
      }
    }
  }

  void SeekToFirst() override { Seek(""); }

  void Seek(std::string_view target) override {
    if (snap_ != nullptr) {
      store_->write_group_.RunExclusive([&] { SeekImpl(target); });
    } else {
      SeekImpl(target);
    }
  }

  bool Valid() const override {
    CheckEpoch();
    return valid_;
  }

  void Next() override {
    if (snap_ != nullptr) {
      store_->write_group_.RunExclusive([&] { NextImpl(); });
    } else {
      NextImpl();
    }
  }

  std::string_view key() const override {
    CheckEpoch();
    return key_;
  }
  std::string_view value() const override {
    CheckEpoch();
    return value_;
  }
  Status status() const override { return status_; }

 private:
  // One merge input: the memtable, or a sorted, disjoint run of SSTs (one
  // L0 file, or a whole deeper level) read through one file cursor at a
  // time, plus cursors on the next files a readahead span already read
  // into.
  struct Source {
    std::unique_ptr<Memtable::Iterator> mem;  // memtable source only
    std::span<const FileMeta> files;          // SST source only
    size_t file = 0;  // index in `files` of the file `sst` reads
    // Null until the first Seek, and when no file reaches the target.
    std::unique_ptr<SstReader::Iterator> sst;
    // Cursors on files[file + 1], files[file + 2], ... opened by a span
    // that continued past the current file's end.
    std::vector<std::unique_ptr<SstReader::Iterator>> ahead;
    bool Valid() const {
      return mem ? mem->Valid() : sst != nullptr && sst->Valid();
    }
    std::string_view key() const { return mem ? mem->key() : sst->key(); }
    SequenceNumber seq() const { return mem ? mem->seq() : sst->seq(); }
    EntryType type() const { return mem ? mem->type() : sst->type(); }
    std::string_view value() const {
      return mem ? mem->value() : sst->value();
    }
  };

  void SeekImpl(std::string_view target) {
    CheckEpoch();
    if (!status_.ok()) return;
    valid_ = false;
    have_last_ = false;
    for (Source& s : sources_) {
      const Status st = SeekSource(s, target);
      if (!st.ok()) {
        status_ = st;
        return;
      }
    }
    FindNextLiveEntry();
  }

  void NextImpl() {
    CheckEpoch();
    if (!valid_) return;
    valid_ = false;
    status_ = AdvanceSource(sources_[current_]);
    if (!status_.ok()) return;
    FindNextLiveEntry();
  }

  Status SeekSource(Source& s, std::string_view target) {
    if (s.mem) {
      s.mem->Seek(target);
      return Status::OK();
    }
    // Files entirely below the target are skipped without an index
    // search or a block read; only the first file that reaches it opens.
    s.sst.reset();
    s.ahead.clear();
    s.file = FirstFileAtOrAbove(s.files, target);
    if (s.file == s.files.size()) return Status::OK();
    PTSB_ASSIGN_OR_RETURN(s.sst, OpenCursor(s, s.file));
    PTSB_RETURN_IF_ERROR(s.sst->Seek(target));
    return SkipExhaustedFiles(s);
  }

  Status AdvanceSource(Source& s) {
    if (s.mem) {
      s.mem->Next();
      return Status::OK();
    }
    PTSB_RETURN_IF_ERROR(s.sst->Next());
    return SkipExhaustedFiles(s);
  }

  // Moves an exhausted file cursor on to the first entry of the next file.
  // A cursor a span already read into enters that span without a read.
  Status SkipExhaustedFiles(Source& s) {
    while (!s.sst->Valid() && s.file + 1 < s.files.size()) {
      s.file++;
      if (s.ahead.empty()) {
        PTSB_ASSIGN_OR_RETURN(s.sst, OpenCursor(s, s.file));
      } else {
        s.sst = std::move(s.ahead.front());
        s.ahead.erase(s.ahead.begin());
      }
      PTSB_RETURN_IF_ERROR(s.sst->SeekToFirst());
    }
    return Status::OK();
  }

  // A new cursor on s.files[file] with the scan's readahead, continuing
  // its spans into the level's next files. The table cache is shared
  // with point reads, so live mode takes the commit-exclusion lock that
  // snapshot mode already holds.
  StatusOr<std::unique_ptr<SstReader::Iterator>> OpenCursor(Source& s,
                                                            size_t file) {
    const uint64_t number = s.files[file].number;
    StatusOr<SstReader*> reader =
        snap_ != nullptr ? store_->GetReader(number)
                         : store_->write_group_.RunExclusive(
                               [&] { return store_->GetReader(number); });
    PTSB_RETURN_IF_ERROR(reader.status());
    auto cursor = std::make_unique<SstReader::Iterator>(*reader, ra_);
    cursor->ContinueInto([this, &s](const SstReader::Iterator* after)
                             -> StatusOr<SstReader::Iterator*> {
      // `after` is s.sst or s.ahead[i]; the file behind it is next.
      size_t i = 0;
      if (after != s.sst.get()) {
        while (s.ahead[i].get() != after) i++;
        i++;
      }
      if (i < s.ahead.size()) return s.ahead[i].get();
      if (s.file + i + 1 >= s.files.size()) return nullptr;
      PTSB_ASSIGN_OR_RETURN(auto next, OpenCursor(s, s.file + i + 1));
      s.ahead.push_back(std::move(next));
      return s.ahead.back().get();
    });
    return cursor;
  }

  // Debug-build fail-fast on use-after-write: a write can rotate the
  // memtable or delete the SSTs this iterator's sources point into, so
  // continuing would silently read stale (or freed) state. Snapshot
  // cursors are exempt: their sources are pinned, and their visibility
  // bound filters what concurrent writers append to the shared memtable.
  void CheckEpoch() const {
    PTSB_DCHECK(snap_ != nullptr || epoch_ == store_->write_epoch_)
        << "LSM iterator used after a write to the store; iterators "
           "observe the store as of creation and are invalidated by "
           "writes (create, consume, discard)";
  }

  // Advances past shadowed versions and tombstones until positioned on
  // the newest live version of the next user key (or exhausts sources).
  void FindNextLiveEntry() {
    while (status_.ok()) {
      int best = -1;
      for (size_t i = 0; i < sources_.size(); i++) {
        if (!sources_[i].Valid()) continue;
        if (best < 0 ||
            CompareInternal(sources_[i].key(), sources_[i].seq(),
                            sources_[best].key(), sources_[best].seq()) < 0) {
          best = static_cast<int>(i);
        }
      }
      if (best < 0) return;  // all sources exhausted: clean end
      Source& src = sources_[best];
      if (src.seq() > bound_) {
        // Written after the snapshot: invisible, and it does NOT shadow —
        // an older visible version of the same key may follow.
        status_ = AdvanceSource(src);
        continue;
      }
      const bool shadowed = have_last_ && src.key() == last_user_key_;
      if (!shadowed) {
        last_user_key_.assign(src.key().data(), src.key().size());
        have_last_ = true;
        if (src.type() == EntryType::kPut &&
            !CoveredByRange(tombstones_, src.key(), src.seq(), bound_)) {
          key_ = last_user_key_;
          value_.assign(src.value().data(), src.value().size());
          current_ = static_cast<size_t>(best);
          valid_ = true;
          store_->stats_.user_bytes_read += key_.size() + value_.size();
          return;
        }
      }
      status_ = AdvanceSource(src);
    }
  }

  LsmStore* store_;
  const SnapshotImpl* snap_;  // null: live mode
  const uint64_t epoch_;  // store_->write_epoch_ at creation
  const SequenceNumber bound_;  // newest visible sequence
  const std::vector<RangeTombstone> tombstones_;
  // Live mode: the version's file lists as of creation (the sources'
  // spans point into them). Snapshot mode reads the snapshot's own.
  std::vector<std::vector<FileMeta>> live_levels_;
  // The file cursors' span window: one block by default.
  SstReadahead ra_;
  std::vector<Source> sources_;
  size_t current_ = 0;  // source providing the current entry
  std::string last_user_key_;
  bool have_last_ = false;
  bool valid_ = false;
  std::string key_;
  std::string value_;
  Status status_;
};

std::unique_ptr<kv::KVStore::Iterator> LsmStore::NewIterator() {
  PTSB_CHECK(!closed_);
  // Construction snapshots sources, so it excludes in-flight commits;
  // iteration itself still requires a quiesced writer (epoch-checked).
  return write_group_.RunExclusive(
      [&]() -> std::unique_ptr<kv::KVStore::Iterator> {
        stats_.user_scans++;
        return std::make_unique<MergingIterator>(this, nullptr, 0);
      });
}

std::unique_ptr<kv::KVStore::Iterator> LsmStore::NewIterator(
    const kv::ReadOptions& opts) {
  PTSB_CHECK(!closed_);
  const auto* snap = static_cast<const SnapshotImpl*>(opts.snapshot);
  if (snap != nullptr) {
    PTSB_CHECK(snap->store_ == this) << "snapshot from a different store";
  }
  return write_group_.RunExclusive(
      [&]() -> std::unique_ptr<kv::KVStore::Iterator> {
        stats_.user_scans++;
        return std::make_unique<MergingIterator>(this, snap, opts.readahead);
      });
}

Status LsmStore::Flush() {
  PTSB_CHECK(!closed_);
  write_epoch_++;  // memtable rotation invalidates open iterators
  // The user asked for durability: wait out in-flight background
  // compaction before flushing, like the other engines' Flush does.
  pool_.Join();
  PTSB_RETURN_IF_ERROR(FlushMemtable());
  return Status::OK();
}

Status LsmStore::Close() {
  if (closed_) return Status::OK();
  pool_.Join();  // shutdown waits out in-flight compaction
  PTSB_RETURN_IF_ERROR(FlushMemtable());
  if (wal_ != nullptr) PTSB_RETURN_IF_ERROR(wal_->Sync());
  closed_ = true;
  return Status::OK();
}

uint64_t LsmStore::DiskBytesUsed() const {
  uint64_t total = 0;
  for (const std::string& name : fs_->List(dir_ + "/")) {
    auto size = fs_->FileSize(name);
    if (size.ok()) total += *size;
  }
  return total;
}

namespace {

LsmOptions LsmOptionsFromEngineOptions(const kv::EngineOptions& eo) {
  LsmOptions o;
  o.memtable_bytes = kv::ParamUint64(eo, "memtable_bytes", o.memtable_bytes);
  o.l0_compaction_trigger =
      kv::ParamInt(eo, "l0_compaction_trigger", o.l0_compaction_trigger);
  o.l0_stall_trigger =
      kv::ParamInt(eo, "l0_stall_trigger", o.l0_stall_trigger);
  o.l1_target_bytes =
      kv::ParamUint64(eo, "l1_target_bytes", o.l1_target_bytes);
  o.level_size_ratio =
      kv::ParamDouble(eo, "level_size_ratio", o.level_size_ratio);
  o.max_levels = kv::ParamInt(eo, "max_levels", o.max_levels);
  o.sst_target_bytes =
      kv::ParamUint64(eo, "sst_target_bytes", o.sst_target_bytes);
  o.block_bytes = kv::ParamUint64(eo, "block_bytes", o.block_bytes);
  o.bloom_bits_per_key =
      kv::ParamInt(eo, "bloom_bits_per_key", o.bloom_bits_per_key);
  o.wal_enabled = kv::ParamBool(eo, "wal_enabled", o.wal_enabled);
  o.wal_sync_every_bytes =
      kv::ParamUint64(eo, "wal_sync_every_bytes", o.wal_sync_every_bytes);
  o.wal_buffer_bytes =
      kv::ParamUint64(eo, "wal_buffer_bytes", o.wal_buffer_bytes);
  o.compaction_readahead_bytes = kv::ParamUint64(
      eo, "compaction_readahead_bytes", o.compaction_readahead_bytes);
  o.compaction_work_per_user_write =
      kv::ParamUint64(eo, "compaction_work_per_user_write",
                      o.compaction_work_per_user_write);
  o.compaction_budget_bytes = kv::ParamUint64(eo, "compaction_budget_bytes",
                                              o.compaction_budget_bytes);
  o.compaction_parallelism =
      kv::ParamInt(eo, "compaction_parallelism", o.compaction_parallelism);
  o.cpu_put_ns = kv::ParamInt64(eo, "cpu_put_ns", o.cpu_put_ns);
  o.cpu_get_ns = kv::ParamInt64(eo, "cpu_get_ns", o.cpu_get_ns);
  o.max_write_group_bytes = kv::ParamUint64(eo, "max_write_group_bytes",
                                            o.max_write_group_bytes);
  o.read_queue_depth =
      kv::ParamInt(eo, "read_queue_depth", o.read_queue_depth);
  o.background_io = kv::ParamBool(eo, "background_io", o.background_io);
  o.clock = eo.clock;
  o.io_queue = eo.io_queue;
  o.background_queue = eo.background_queue;
  return o;
}

}  // namespace

void RegisterLsmEngine() {
  kv::EngineRegistry::Global().Register(
      "lsm",
      [](const kv::EngineOptions& eo)
          -> StatusOr<std::unique_ptr<kv::KVStore>> {
        auto opened =
            LsmStore::Open(eo.fs, LsmOptionsFromEngineOptions(eo),
                           eo.root.empty() ? "lsm" : eo.root);
        if (!opened.ok()) return opened.status();
        return std::unique_ptr<kv::KVStore>(std::move(*opened));
      });
}

std::map<std::string, std::string> EncodeEngineParams(const LsmOptions& o) {
  std::map<std::string, std::string> p;
  p["memtable_bytes"] = std::to_string(o.memtable_bytes);
  p["l0_compaction_trigger"] = std::to_string(o.l0_compaction_trigger);
  p["l0_stall_trigger"] = std::to_string(o.l0_stall_trigger);
  p["l1_target_bytes"] = std::to_string(o.l1_target_bytes);
  p["level_size_ratio"] = std::to_string(o.level_size_ratio);
  p["max_levels"] = std::to_string(o.max_levels);
  p["sst_target_bytes"] = std::to_string(o.sst_target_bytes);
  p["block_bytes"] = std::to_string(o.block_bytes);
  p["bloom_bits_per_key"] = std::to_string(o.bloom_bits_per_key);
  p["wal_enabled"] = o.wal_enabled ? "1" : "0";
  p["wal_sync_every_bytes"] = std::to_string(o.wal_sync_every_bytes);
  p["wal_buffer_bytes"] = std::to_string(o.wal_buffer_bytes);
  p["compaction_readahead_bytes"] =
      std::to_string(o.compaction_readahead_bytes);
  p["compaction_work_per_user_write"] =
      std::to_string(o.compaction_work_per_user_write);
  p["compaction_budget_bytes"] = std::to_string(o.compaction_budget_bytes);
  p["compaction_parallelism"] = std::to_string(o.compaction_parallelism);
  p["cpu_put_ns"] = std::to_string(o.cpu_put_ns);
  p["cpu_get_ns"] = std::to_string(o.cpu_get_ns);
  p["max_write_group_bytes"] = std::to_string(o.max_write_group_bytes);
  p["read_queue_depth"] = std::to_string(o.read_queue_depth);
  p["background_io"] = o.background_io ? "1" : "0";
  return p;
}

std::string LsmStore::DebugString() const {
  std::string out = StrPrintf("LsmStore seq=%llu memtable=%s\n",
                              static_cast<unsigned long long>(seq_),
                              HumanBytes(memtable_->ApproximateBytes()).c_str());
  for (int l = 0; l < versions_->num_levels(); l++) {
    const auto& files = versions_->LevelFiles(l);
    if (files.empty()) continue;
    out += StrPrintf("  L%d: %3zu files  %s\n", l, files.size(),
                     HumanBytes(versions_->LevelBytes(l)).c_str());
  }
  return out;
}

}  // namespace ptsb::lsm
