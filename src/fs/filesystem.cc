#include "fs/filesystem.h"

#include <algorithm>
#include <cstring>

#include "fs/file.h"
#include "util/logging.h"

namespace ptsb::fs {

SimpleFs::SimpleFs(block::BlockDevice* device, const FsOptions& options)
    : device_(device),
      options_(options),
      page_bytes_(device->lba_bytes()) {
  PTSB_CHECK_GT(device->num_lbas(), options.metadata_pages);
  allocator_ = std::make_unique<ExtentAllocator>(
      options.metadata_pages, device->num_lbas() - options.metadata_pages);
}

SimpleFs::~SimpleFs() = default;

Status SimpleFs::TouchMetadata() {
  if (options_.metadata_pages == 0) return Status::OK();
  PTSB_RETURN_IF_ERROR(CheckFault(""));
  const uint64_t lba = metadata_cursor_;
  metadata_cursor_ = (metadata_cursor_ + 1) % options_.metadata_pages;
  return device_->Write(lba, 1, nullptr);
}

uint64_t SimpleFs::PageToLba(const Inode& inode, uint64_t file_page) const {
  uint64_t skipped = 0;
  for (const Extent& e : inode.extents) {
    if (file_page < skipped + e.num_pages) {
      return e.first_page + (file_page - skipped);
    }
    skipped += e.num_pages;
  }
  PTSB_CHECK(false) << "file page " << file_page << " beyond allocation of "
                    << inode.name;
  return 0;
}

Status SimpleFs::ExtendInode(Inode* inode, uint64_t min_pages) {
  if (min_pages <= inode->allocated_pages) return Status::OK();
  const uint64_t want = min_pages - inode->allocated_pages;
  std::lock_guard<std::mutex> lock(mu_);
  auto extents = allocator_->Allocate(want, options_.max_extent_pages);
  if (!extents.ok()) return extents.status();
  for (Extent& e : *extents) {
    // Merge with the trailing extent when physically contiguous.
    if (!inode->extents.empty() && inode->extents.back().end() == e.first_page) {
      inode->extents.back().num_pages += e.num_pages;
    } else {
      inode->extents.push_back(e);
    }
    inode->allocated_pages += e.num_pages;
  }
  return Status::OK();
}

void SimpleFs::FreeInodeExtents(Inode* inode) {
  for (const Extent& e : inode->extents) {
    allocator_->Free(e);
    if (!options_.nodiscard) {
      // discard mount option: tell the device the LBAs are dead.
      PTSB_CHECK_OK(device_->Trim(e.first_page, e.num_pages));
    }
  }
  inode->extents.clear();
  inode->allocated_pages = 0;
}

StatusOr<File*> SimpleFs::CreateLocked(const std::string& name) {
  if (directory_.contains(name)) {
    return Status::InvalidArgument("file exists: " + name);
  }
  auto inode = std::make_unique<Inode>();
  inode->id = next_inode_id_++;
  inode->name = name;
  inode->tail = std::make_unique<uint8_t[]>(page_bytes_);
  inode->handle.reset(new File(this, inode.get()));
  File* handle = inode->handle.get();
  directory_[name] = inode->id;
  inodes_[inode->id] = std::move(inode);
  PTSB_RETURN_IF_ERROR(TouchMetadata());
  return handle;
}

StatusOr<File*> SimpleFs::Create(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return CreateLocked(name);
}

StatusOr<File*> SimpleFs::OpenLocked(const std::string& name) {
  auto it = directory_.find(name);
  if (it == directory_.end()) {
    return Status::NotFound("no such file: " + name);
  }
  return inodes_.at(it->second)->handle.get();
}

StatusOr<File*> SimpleFs::Open(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return OpenLocked(name);
}

StatusOr<File*> SimpleFs::OpenOrCreate(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (directory_.contains(name)) return OpenLocked(name);
  return CreateLocked(name);
}

Status SimpleFs::DeleteLocked(std::span<const std::string> names) {
  Status status;
  size_t removed = 0;
  for (const std::string& name : names) {
    auto it = directory_.find(name);
    if (it == directory_.end()) {
      status = Status::NotFound("no such file: " + name);
      break;
    }
    auto node_it = inodes_.find(it->second);
    FreeInodeExtents(node_it->second.get());
    inodes_.erase(node_it);
    directory_.erase(it);
    removed++;
  }
  if (removed > 0) PTSB_RETURN_IF_ERROR(TouchMetadata());
  return status;
}

Status SimpleFs::Delete(std::span<const std::string> names) {
  std::lock_guard<std::mutex> lock(mu_);
  return DeleteLocked(names);
}

Status SimpleFs::Rename(const std::string& from, const std::string& to) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = directory_.find(from);
  if (it == directory_.end()) {
    return Status::NotFound("no such file: " + from);
  }
  if (from == to) return Status::OK();
  // POSIX rename: silently replaces the target.
  if (directory_.contains(to)) {
    PTSB_RETURN_IF_ERROR(DeleteLocked({&to, 1}));
    it = directory_.find(from);
  }
  const uint64_t id = it->second;
  directory_.erase(it);
  directory_[to] = id;
  inodes_.at(id)->name = to;
  return TouchMetadata();
}

bool SimpleFs::Exists(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return directory_.contains(name);
}

std::vector<std::string> SimpleFs::List(const std::string& prefix) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  for (const auto& [name, id] : directory_) {
    if (name.starts_with(prefix)) out.push_back(name);
  }
  return out;
}

StatusOr<uint64_t> SimpleFs::FileSize(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = directory_.find(name);
  if (it == directory_.end()) {
    return Status::NotFound("no such file: " + name);
  }
  return inodes_.at(it->second)->size_bytes;
}

void SimpleFs::SimulateCrash() {
  // Whole-fs inspection: expects writers quiesced (it mutates per-file
  // state the files' owners otherwise own).
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [id, inode] : inodes_) {
    if (inode->size_bytes == inode->synced_bytes) continue;
    inode->size_bytes = inode->synced_bytes;
    const uint64_t tail_off = inode->size_bytes % page_bytes_;
    std::memset(inode->tail.get(), 0, page_bytes_);
    if (tail_off != 0) {
      // Recover the durable prefix of the tail page from the device.
      const uint64_t file_page = inode->size_bytes / page_bytes_;
      uint8_t page_buf[64 * 1024];
      PTSB_CHECK_LE(page_bytes_, sizeof(page_buf));
      PTSB_CHECK_OK(
          device_->Read(PageToLba(*inode, file_page), 1, page_buf));
      std::memcpy(inode->tail.get(), page_buf, tail_off);
    }
  }
}

FsStats SimpleFs::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  FsStats s;
  s.capacity_bytes = device_->capacity_bytes();
  const uint64_t data_pages = allocator_->total_pages();
  s.free_bytes = allocator_->free_pages() * page_bytes_;
  s.used_bytes =
      (options_.metadata_pages + (data_pages - allocator_->free_pages())) *
      page_bytes_;
  s.num_files = directory_.size();
  s.free_extents = allocator_->FreeExtentCount();
  s.largest_free_extent_bytes = allocator_->LargestFreeExtent() * page_bytes_;
  return s;
}

Status SimpleFs::CheckConsistency() const {
  std::lock_guard<std::mutex> lock(mu_);
  PTSB_RETURN_IF_ERROR(allocator_->CheckConsistency());
  // Extents of all files must be disjoint, in range, and match counters.
  std::vector<std::pair<uint64_t, uint64_t>> ranges;  // (start, end)
  uint64_t allocated = 0;
  for (const auto& [id, inode] : inodes_) {
    uint64_t pages = 0;
    for (const Extent& e : inode->extents) {
      if (e.num_pages == 0) return Status::Corruption("empty extent");
      if (e.first_page < options_.metadata_pages ||
          e.end() > device_->num_lbas()) {
        return Status::Corruption("extent out of range");
      }
      ranges.emplace_back(e.first_page, e.end());
      pages += e.num_pages;
    }
    if (pages != inode->allocated_pages) {
      return Status::Corruption("allocated_pages mismatch");
    }
    if (inode->size_bytes > inode->allocated_pages * page_bytes_) {
      return Status::Corruption("size beyond allocation");
    }
    if (inode->synced_bytes > inode->size_bytes) {
      return Status::Corruption("synced beyond size");
    }
    allocated += pages;
  }
  std::sort(ranges.begin(), ranges.end());
  for (size_t i = 1; i < ranges.size(); i++) {
    if (ranges[i].first < ranges[i - 1].second) {
      return Status::Corruption("overlapping file extents");
    }
  }
  if (allocated + allocator_->free_pages() != allocator_->total_pages()) {
    return Status::Corruption("page accounting mismatch");
  }
  return Status::OK();
}

}  // namespace ptsb::fs
