#include "lsm/version.h"

#include "fs/file.h"

#include <algorithm>

#include "util/crc32.h"
#include "util/encoding.h"
#include "util/human.h"
#include "util/logging.h"

namespace ptsb::lsm {

namespace {
enum EditTag : uint32_t {
  kNextFileNumber = 1,
  kLastSequence = 2,
  kLogNumber = 3,
  kAddedFile = 4,
  kRemovedFile = 5,
  kRangeTombstones = 6,  // full-list replacement (count + entries)
};
}  // namespace

std::string VersionEdit::Encode() const {
  std::string out;
  if (next_file_number) {
    PutVarint32(&out, kNextFileNumber);
    PutVarint64(&out, *next_file_number);
  }
  if (last_sequence) {
    PutVarint32(&out, kLastSequence);
    PutVarint64(&out, *last_sequence);
  }
  if (log_number) {
    PutVarint32(&out, kLogNumber);
    PutVarint64(&out, *log_number);
  }
  for (const auto& [level, f] : added) {
    PutVarint32(&out, kAddedFile);
    PutVarint32(&out, static_cast<uint32_t>(level));
    PutVarint64(&out, f.number);
    PutVarint64(&out, f.file_bytes);
    PutVarint64(&out, f.num_entries);
    PutLengthPrefixed(&out, f.smallest);
    PutLengthPrefixed(&out, f.largest);
  }
  for (const auto& [level, number] : removed) {
    PutVarint32(&out, kRemovedFile);
    PutVarint32(&out, static_cast<uint32_t>(level));
    PutVarint64(&out, number);
  }
  if (range_tombstones) {
    PutVarint32(&out, kRangeTombstones);
    PutVarint32(&out, static_cast<uint32_t>(range_tombstones->size()));
    for (const RangeTombstone& t : *range_tombstones) {
      PutLengthPrefixed(&out, t.begin);
      PutLengthPrefixed(&out, t.end);
      PutVarint64(&out, t.seq);
    }
  }
  return out;
}

StatusOr<VersionEdit> VersionEdit::Decode(std::string_view in) {
  VersionEdit edit;
  while (!in.empty()) {
    uint32_t tag;
    if (!GetVarint32(&in, &tag)) {
      return Status::Corruption("bad edit tag");
    }
    uint64_t v64;
    switch (tag) {
      case kNextFileNumber:
        if (!GetVarint64(&in, &v64)) return Status::Corruption("bad edit");
        edit.next_file_number = v64;
        break;
      case kLastSequence:
        if (!GetVarint64(&in, &v64)) return Status::Corruption("bad edit");
        edit.last_sequence = v64;
        break;
      case kLogNumber:
        if (!GetVarint64(&in, &v64)) return Status::Corruption("bad edit");
        edit.log_number = v64;
        break;
      case kAddedFile: {
        uint32_t level;
        FileMeta f;
        std::string_view smallest, largest;
        if (!GetVarint32(&in, &level) || !GetVarint64(&in, &f.number) ||
            !GetVarint64(&in, &f.file_bytes) ||
            !GetVarint64(&in, &f.num_entries) ||
            !GetLengthPrefixed(&in, &smallest) ||
            !GetLengthPrefixed(&in, &largest)) {
          return Status::Corruption("bad added-file edit");
        }
        f.smallest.assign(smallest.data(), smallest.size());
        f.largest.assign(largest.data(), largest.size());
        edit.added.emplace_back(static_cast<int>(level), std::move(f));
        break;
      }
      case kRemovedFile: {
        uint32_t level;
        if (!GetVarint32(&in, &level) || !GetVarint64(&in, &v64)) {
          return Status::Corruption("bad removed-file edit");
        }
        edit.removed.emplace_back(static_cast<int>(level), v64);
        break;
      }
      case kRangeTombstones: {
        uint32_t count;
        if (!GetVarint32(&in, &count)) {
          return Status::Corruption("bad range-tombstone edit");
        }
        std::vector<RangeTombstone> list;
        list.reserve(count);
        for (uint32_t i = 0; i < count; i++) {
          std::string_view begin, end;
          uint64_t seq;
          if (!GetLengthPrefixed(&in, &begin) ||
              !GetLengthPrefixed(&in, &end) || !GetVarint64(&in, &seq)) {
            return Status::Corruption("bad range-tombstone edit");
          }
          RangeTombstone t;
          t.begin.assign(begin.data(), begin.size());
          t.end.assign(end.data(), end.size());
          t.seq = seq;
          list.push_back(std::move(t));
        }
        edit.range_tombstones = std::move(list);
        break;
      }
      default:
        return Status::Corruption("unknown edit tag");
    }
  }
  return edit;
}

VersionSet::VersionSet(fs::SimpleFs* fs, std::string dir, int max_levels)
    : fs_(fs),
      dir_(std::move(dir)),
      levels_(max_levels),
      level_bytes_(max_levels, 0) {}

std::string VersionSet::SstFileName(const std::string& dir, uint64_t number) {
  return StrPrintf("%s/%06llu.sst", dir.c_str(),
                   static_cast<unsigned long long>(number));
}

std::string VersionSet::WalFileName(const std::string& dir, uint64_t number) {
  return StrPrintf("%s/%06llu.log", dir.c_str(),
                   static_cast<unsigned long long>(number));
}

std::string VersionSet::ManifestName(uint64_t number) const {
  return StrPrintf("%s/MANIFEST-%06llu", dir_.c_str(),
                   static_cast<unsigned long long>(number));
}

std::string VersionSet::CurrentName() const { return dir_ + "/CURRENT"; }

namespace {

// Level order: L0 newest-first, L1+ by smallest key. Both orders are
// total (L0 file numbers are unique, L1+ key ranges are disjoint), so
// inserting each file at its upper bound yields exactly the sequence a
// full sort of the level would.
bool LevelOrderLess(int level, const FileMeta& a, const FileMeta& b) {
  return level == 0 ? a.number > b.number : a.smallest < b.smallest;
}

}  // namespace

void VersionSet::Apply(const VersionEdit& edit) {
  if (edit.next_file_number) next_file_number_ = *edit.next_file_number;
  if (edit.last_sequence) last_sequence_ = *edit.last_sequence;
  if (edit.log_number) log_number_ = *edit.log_number;
  if (edit.range_tombstones) tombstones_ = *edit.range_tombstones;
  for (const auto& [level, number] : edit.removed) {
    auto& files = levels_[level];
    for (auto it = files.begin(); it != files.end();) {
      if (it->number == number) {
        level_bytes_[level] -= it->file_bytes;
        it = files.erase(it);
      } else {
        ++it;
      }
    }
  }
  // One edit may carry many additions (a memtable flush, or a
  // partitioned subcompaction installing every subrange's outputs as
  // one atomic record); ordered insertion makes the order they arrive
  // in irrelevant, but each file number must appear at most once.
#ifndef NDEBUG
  {
    std::vector<uint64_t> nums;
    for (const auto& [level, f] : edit.added) nums.push_back(f.number);
    std::sort(nums.begin(), nums.end());
    PTSB_DCHECK(std::adjacent_find(nums.begin(), nums.end()) == nums.end())
        << "duplicate file number added by one VersionEdit";
  }
#endif
  for (const auto& [level, f] : edit.added) {
    // Never hand out a number at or below one we have seen in use.
    next_file_number_ = std::max(next_file_number_, f.number + 1);
    auto& files = levels_[level];
    const auto pos = std::upper_bound(
        files.begin(), files.end(), f,
        [l = level](const FileMeta& a, const FileMeta& b) {
          return LevelOrderLess(l, a, b);
        });
    files.insert(pos, f);
    level_bytes_[level] += f.file_bytes;
  }
  if (edit.log_number) {
    next_file_number_ = std::max(next_file_number_, *edit.log_number + 1);
  }
}

Status VersionSet::Recover() {
  if (!fs_->Exists(CurrentName())) {
    // Fresh store.
    manifest_number_ = next_file_number_++;
    return WriteSnapshot();
  }
  // Read CURRENT.
  PTSB_ASSIGN_OR_RETURN(fs::File * current, fs_->Open(CurrentName()));
  std::string manifest_name(current->size(), '\0');
  PTSB_ASSIGN_OR_RETURN(const uint64_t got,
                        current->ReadAt(0, manifest_name.size(),
                                        manifest_name.data()));
  manifest_name.resize(got);
  if (manifest_name.empty()) return Status::Corruption("empty CURRENT");

  PTSB_ASSIGN_OR_RETURN(fs::File * manifest, fs_->Open(manifest_name));
  std::string data(manifest->size(), '\0');
  PTSB_ASSIGN_OR_RETURN(const uint64_t mgot,
                        manifest->ReadAt(0, data.size(), data.data()));
  std::string_view in(data.data(), mgot);
  while (!in.empty()) {
    uint32_t crc, len;
    if (!GetFixed32(&in, &crc) || !GetVarint32(&in, &len) ||
        in.size() < len) {
      break;  // torn tail
    }
    const std::string_view payload = in.substr(0, len);
    in.remove_prefix(len);
    if (UnmaskCrc(crc) != Crc32c(payload)) break;
    PTSB_ASSIGN_OR_RETURN(VersionEdit edit, VersionEdit::Decode(payload));
    Apply(edit);
  }
  // Parse the manifest number back out of its name for rotation.
  const size_t dash = manifest_name.rfind('-');
  manifest_number_ = std::stoull(manifest_name.substr(dash + 1));
  manifest_file_ = manifest;
  return Status::OK();
}

Status VersionSet::WriteSnapshot() {
  // Full state as one edit, into a fresh manifest.
  VersionEdit snapshot;
  snapshot.next_file_number = next_file_number_;
  snapshot.last_sequence = last_sequence_;
  snapshot.log_number = log_number_;
  snapshot.range_tombstones = tombstones_;
  for (int level = 0; level < num_levels(); level++) {
    for (const FileMeta& f : levels_[level]) {
      snapshot.added.emplace_back(level, f);
    }
  }
  const uint64_t new_number = manifest_number_;
  const std::string name = ManifestName(new_number);
  if (fs_->Exists(name)) PTSB_RETURN_IF_ERROR(fs_->Delete(name));
  PTSB_ASSIGN_OR_RETURN(fs::File * file, fs_->Create(name));

  const std::string payload = snapshot.Encode();
  std::string record;
  PutFixed32(&record, MaskCrc(Crc32c(payload)));
  PutVarint32(&record, static_cast<uint32_t>(payload.size()));
  record.append(payload);
  PTSB_RETURN_IF_ERROR(file->Sync(record));

  // Point CURRENT at it.
  const std::string tmp = CurrentName() + ".tmp";
  if (fs_->Exists(tmp)) PTSB_RETURN_IF_ERROR(fs_->Delete(tmp));
  PTSB_ASSIGN_OR_RETURN(fs::File * cur, fs_->Create(tmp));
  PTSB_RETURN_IF_ERROR(cur->Sync(name));
  PTSB_RETURN_IF_ERROR(fs_->Rename(tmp, CurrentName()));

  manifest_file_ = file;
  manifest_edits_ = 0;
  return Status::OK();
}

Status VersionSet::LogAndApply(const VersionEdit& edit) {
  Apply(edit);
  // Rotate the manifest periodically so it does not grow unboundedly.
  constexpr uint64_t kEditsPerManifest = 512;
  if (manifest_file_ == nullptr || manifest_edits_ >= kEditsPerManifest) {
    const uint64_t old_number = manifest_number_;
    const bool had_manifest = manifest_file_ != nullptr;
    manifest_number_ = next_file_number_++;
    PTSB_RETURN_IF_ERROR(WriteSnapshot());
    if (had_manifest) {
      PTSB_RETURN_IF_ERROR(fs_->Delete(ManifestName(old_number)));
    }
    return Status::OK();
  }
  // Stamp the counters so that a crash right after this record replays to
  // a state that never reuses a file number or a sequence number.
  VersionEdit stamped = edit;
  stamped.next_file_number = next_file_number_;
  stamped.last_sequence = last_sequence_;
  const std::string payload = stamped.Encode();
  std::string record;
  PutFixed32(&record, MaskCrc(Crc32c(payload)));
  PutVarint32(&record, static_cast<uint32_t>(payload.size()));
  record.append(payload);
  PTSB_RETURN_IF_ERROR(manifest_file_->Sync(record));
  manifest_edits_++;
  return Status::OK();
}

uint64_t VersionSet::TotalSstBytes() const {
  uint64_t n = 0;
  for (int l = 0; l < num_levels(); l++) n += LevelBytes(l);
  return n;
}

uint64_t VersionSet::TotalEntries() const {
  uint64_t n = 0;
  for (const auto& level : levels_) {
    for (const FileMeta& f : level) n += f.num_entries;
  }
  return n;
}

int VersionSet::MaxPopulatedLevel() const {
  for (int l = num_levels() - 1; l >= 0; l--) {
    if (!levels_[l].empty()) return l;
  }
  return -1;
}

template <typename Fn>
void VersionSet::ForEachOverlapping(int level, std::string_view smallest,
                                    std::string_view largest, Fn&& fn) const {
  const auto& files = levels_[level];
  if (level == 0) {
    for (const FileMeta& f : files) {
      if (f.largest < smallest || f.smallest > largest) continue;
      fn(f);
    }
    return;
  }
  // L1+ is sorted by smallest key and disjoint, so it is sorted by
  // largest key too: skip the files that end before the range, then
  // take files until one starts after it.
  auto it = std::partition_point(
      files.begin(), files.end(),
      [smallest](const FileMeta& f) { return f.largest < smallest; });
  for (; it != files.end() && !(it->smallest > largest); ++it) fn(*it);
}

std::vector<FileMeta> VersionSet::Overlapping(int level,
                                              std::string_view smallest,
                                              std::string_view largest) const {
  std::vector<FileMeta> out;
  ForEachOverlapping(level, smallest, largest,
                     [&out](const FileMeta& f) { out.push_back(f); });
  return out;
}

uint64_t VersionSet::OverlappingBytes(int level, std::string_view smallest,
                                      std::string_view largest) const {
  uint64_t bytes = 0;
  ForEachOverlapping(level, smallest, largest,
                     [&bytes](const FileMeta& f) { bytes += f.file_bytes; });
  return bytes;
}

Status VersionSet::CheckInvariants() const {
  for (size_t i = 1; i < levels_[0].size(); i++) {
    if (levels_[0][i - 1].number <= levels_[0][i].number) {
      return Status::Corruption("L0 not newest-first");
    }
  }
  for (size_t l = 1; l < levels_.size(); l++) {
    const auto& files = levels_[l];
    for (size_t i = 0; i < files.size(); i++) {
      if (files[i].smallest > files[i].largest) {
        return Status::Corruption("file with inverted range");
      }
      if (i > 0 && files[i - 1].largest >= files[i].smallest) {
        return Status::Corruption("overlapping files in L" +
                                  std::to_string(l));
      }
    }
  }
  return Status::OK();
}

}  // namespace ptsb::lsm
