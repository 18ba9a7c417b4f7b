#include "fs/file.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <mutex>

#include "fs/filesystem.h"
#include "sim/clock.h"
#include "util/logging.h"

namespace ptsb::fs {

namespace {
// Writes a run of logically-consecutive file pages, batching device writes
// over physically-contiguous LBA runs. Takes no filesystem lock: the
// device serializes its own command processing, and the extent list is
// per-file state owned by the file's single user. The fault-policy check
// happens here — one consult per device write command, so a counting
// policy sees every distinct write the filesystem issues.
Status WriteFilePages(SimpleFs* fs, const Inode& inode, uint64_t first_page,
                      uint64_t num_pages, const uint8_t* src,
                      uint64_t page_bytes) {
  block::BlockDevice* device = fs->device();
  const std::vector<Extent>& extents = inode.extents;
  uint64_t skipped = 0;
  uint64_t page = first_page;
  uint64_t remaining = num_pages;
  const uint8_t* p = src;
  for (const Extent& e : extents) {
    if (remaining == 0) break;
    if (page >= skipped + e.num_pages) {
      skipped += e.num_pages;
      continue;
    }
    const uint64_t offset_in_extent = page - skipped;
    const uint64_t run =
        std::min(remaining, e.num_pages - offset_in_extent);
    PTSB_RETURN_IF_ERROR(fs->CheckFault(inode.name));
    PTSB_RETURN_IF_ERROR(
        device->Write(e.first_page + offset_in_extent, run, p));
    p += run * page_bytes;
    page += run;
    remaining -= run;
    skipped += e.num_pages;
  }
  if (remaining != 0) return Status::IoError("write beyond allocation");
  return Status::OK();
}

}  // namespace

block::IoTicket File::SubmitAppend(std::string_view data, uint32_t queue,
                                   sim::IoClass io_class) {
  const sim::LaneResult r =
      sim::RunInLane(fs_->device_->clock(), queue, io_class,
                     [&] { return AppendImpl(data); });
  return block::IoTicket{r.status, r.complete_ns};
}

block::IoTicket File::SubmitWriteAt(uint64_t offset, std::string_view data,
                                    uint32_t queue, sim::IoClass io_class) {
  const sim::LaneResult r =
      sim::RunInLane(fs_->device_->clock(), queue, io_class,
                     [&] { return WriteAtImpl(offset, data); });
  return block::IoTicket{r.status, r.complete_ns};
}

block::IoTicket File::SubmitReadAt(uint64_t offset, uint64_t n, char* dst,
                                   uint32_t queue, sim::IoClass io_class) {
  const sim::LaneResult r =
      sim::RunInLane(fs_->device_->clock(), queue, io_class, [&] {
        auto got = ReadAt(offset, n, dst);
        if (!got.ok()) return got.status();
        if (*got != n) return Status::IoError("short read in SubmitReadAt");
        return Status::OK();
      });
  return block::IoTicket{r.status, r.complete_ns};
}

Status File::Wait(const block::IoTicket& ticket) {
  return fs_->device_->Wait(ticket);
}

Status File::Append(std::string_view data) {
  return Wait(SubmitAppend(data));
}

Status File::WriteAt(uint64_t offset, std::string_view data) {
  return Wait(SubmitWriteAt(offset, data));
}

Status File::GrowForAppend(uint64_t file_page, uint64_t npages) {
  return fs_->ExtendInode(
      inode_, file_page + std::max(npages, fs_->options_.append_alloc_pages));
}

Status File::AppendImpl(std::string_view data) {
  Inode& inode = *inode_;
  const uint64_t page = fs_->page_bytes_;
  while (!data.empty()) {
    const uint64_t tail_off = inode.size_bytes % page;
    const uint64_t file_page = inode.size_bytes / page;
    if (tail_off == 0 && data.size() >= page) {
      // Bulk path: whole pages write through directly.
      const uint64_t npages = data.size() / page;
      PTSB_RETURN_IF_ERROR(GrowForAppend(file_page, npages));
      PTSB_RETURN_IF_ERROR(WriteFilePages(
          fs_, inode, file_page, npages,
          reinterpret_cast<const uint8_t*>(data.data()), page));
      inode.size_bytes += npages * page;
      inode.synced_bytes = inode.size_bytes;
      data.remove_prefix(npages * page);
      continue;
    }
    // Buffered path: fill the tail page (no lock -- per-file state).
    const uint64_t take = std::min<uint64_t>(page - tail_off, data.size());
    std::memcpy(inode.tail.get() + tail_off, data.data(), take);
    inode.size_bytes += take;
    data.remove_prefix(take);
    if (inode.size_bytes % page == 0) {
      // Tail page completed: materialize it.
      PTSB_RETURN_IF_ERROR(GrowForAppend(file_page, 1));
      PTSB_RETURN_IF_ERROR(WriteFilePages(fs_, inode, file_page, 1,
                                          inode.tail.get(), page));
      inode.synced_bytes = inode.size_bytes;
      std::memset(inode.tail.get(), 0, page);
    }
  }
  return Status::OK();
}

StatusOr<uint64_t> File::ReadAt(uint64_t offset, uint64_t n, char* dst) const {
  const Inode& inode = *inode_;
  const uint64_t page = fs_->page_bytes_;
  if (offset >= inode.size_bytes) return uint64_t{0};
  n = std::min(n, inode.size_bytes - offset);

  // Bytes in [0, tail_start) are device-backed; bytes in [tail_start, size)
  // live in the in-memory tail buffer (which always mirrors the current
  // partial tail page, synced or not).
  const uint64_t tail_start = inode.size_bytes - inode.size_bytes % page;
  const uint64_t end = offset + n;

  uint64_t done = 0;
  uint64_t pos = offset;
  const uint64_t device_end = std::min(end, tail_start);
  if (pos < device_end) {
    // Read every page covering [pos, device_end) with one device command
    // per physically-contiguous LBA run, as a kernel pread would. Aligned
    // reads land in dst directly; unaligned ones go through one scratch
    // buffer and are copied out once.
    const uint64_t first_page = pos / page;
    const uint64_t num_pages = (device_end + page - 1) / page - first_page;
    const bool aligned = pos % page == 0 && device_end % page == 0;
    std::unique_ptr<uint8_t[]> scratch;
    uint8_t* buf = reinterpret_cast<uint8_t*>(dst);
    if (!aligned) {
      scratch.reset(new uint8_t[num_pages * page]);
      buf = scratch.get();
    }
    for (uint64_t p = 0; p < num_pages;) {
      const uint64_t first_lba = fs_->PageToLba(inode, first_page + p);
      uint64_t run = 1;
      while (p + run < num_pages &&
             fs_->PageToLba(inode, first_page + p + run) == first_lba + run) {
        run++;
      }
      PTSB_RETURN_IF_ERROR(
          fs_->device_->Read(first_lba, run, buf + p * page));
      p += run;
    }
    if (!aligned) std::memcpy(dst, buf + pos % page, device_end - pos);
    done = device_end - pos;
    pos = device_end;
  }
  if (pos < end) {
    // Tail portion (per-file memory; no lock).
    PTSB_DCHECK(pos >= tail_start);
    const uint64_t take = end - pos;
    std::memcpy(dst + done, inode.tail.get() + (pos - tail_start), take);
    done += take;
  }
  return done;
}

Status File::WriteAtImpl(uint64_t offset, std::string_view data) {
  Inode& inode = *inode_;
  const uint64_t page = fs_->page_bytes_;
  if (offset % page != 0 || data.size() % page != 0) {
    return Status::InvalidArgument("WriteAt requires page alignment");
  }
  if (offset + data.size() > inode.allocated_pages * page) {
    return Status::InvalidArgument("WriteAt beyond allocation");
  }
  return WriteFilePages(fs_, inode, offset / page, data.size() / page,
                        reinterpret_cast<const uint8_t*>(data.data()), page);
}

Status File::Extend(uint64_t bytes) {
  Inode& inode = *inode_;
  const uint64_t page = fs_->page_bytes_;
  const uint64_t pages = (bytes + page - 1) / page;
  PTSB_RETURN_IF_ERROR(fs_->ExtendInode(&inode, pages));
  if (bytes > inode.size_bytes) {
    inode.size_bytes = bytes;
    inode.synced_bytes = std::max(inode.synced_bytes, bytes);
  }
  return Status::OK();
}

Status File::Sync(std::string_view data) {
  Inode& inode = *inode_;
  const uint64_t page = fs_->page_bytes_;
  const uint64_t first_page = inode.size_bytes / page;
  const uint64_t tail_off = inode.size_bytes % page;
  const bool tail_dirty =
      tail_off != 0 && inode.synced_bytes < inode.size_bytes;
  if (!data.empty() || tail_dirty) {
    // Allocate as Append(data) + Sync() would, so the file lands on the
    // same LBAs: chunked growth for the completed old tail page, then for
    // the whole pages, then the new partial tail page alone.
    const uint64_t end = inode.size_bytes + data.size();
    uint64_t file_page = first_page;
    uint64_t left = data.size();
    if (tail_off != 0 && tail_off + left >= page) {
      PTSB_RETURN_IF_ERROR(GrowForAppend(file_page, 1));
      left -= page - tail_off;
      file_page++;
    }
    if (left >= page) {
      PTSB_RETURN_IF_ERROR(GrowForAppend(file_page, left / page));
    }
    if (end % page != 0) {
      PTSB_RETURN_IF_ERROR(fs_->ExtendInode(&inode, end / page + 1));
    }

    // The unsynced range, page-aligned: old tail prefix, data, zero pad.
    const uint64_t num_pages = (end + page - 1) / page - first_page;
    const uint64_t used = tail_off + data.size();
    auto buf = std::make_unique_for_overwrite<uint8_t[]>(num_pages * page);
    std::memcpy(buf.get(), inode.tail.get(), tail_off);
    if (!data.empty()) {
      std::memcpy(buf.get() + tail_off, data.data(), data.size());
    }
    std::memset(buf.get() + used, 0, num_pages * page - used);
    PTSB_RETURN_IF_ERROR(
        WriteFilePages(fs_, inode, first_page, num_pages, buf.get(), page));
    inode.size_bytes = end;
    std::memset(inode.tail.get(), 0, page);
    std::memcpy(inode.tail.get(), buf.get() + (num_pages - 1) * page,
                end % page);
  }
  inode.synced_bytes = inode.size_bytes;
  return fs_->device_->Flush();
}

Status File::ShrinkToFit() {
  Inode& inode = *inode_;
  const uint64_t page = fs_->page_bytes_;
  const uint64_t needed = (inode.size_bytes + page - 1) / page;
  // Returning extents mutates the shared allocator: that is fs-wide
  // allocation state, guarded by the filesystem mutex.
  std::lock_guard<std::mutex> lock(fs_->mu_);
  while (inode.allocated_pages > needed) {
    Extent& last = inode.extents.back();
    const uint64_t excess =
        std::min(inode.allocated_pages - needed, last.num_pages);
    const Extent freed{last.first_page + last.num_pages - excess, excess};
    last.num_pages -= excess;
    inode.allocated_pages -= excess;
    if (last.num_pages == 0) inode.extents.pop_back();
    fs_->allocator_->Free(freed);
    if (!fs_->options_.nodiscard) {
      PTSB_RETURN_IF_ERROR(
          fs_->device_->Trim(freed.first_page, freed.num_pages));
    }
  }
  return Status::OK();
}

uint64_t File::size() const { return inode_->size_bytes; }

uint64_t File::synced_size() const { return inode_->synced_bytes; }

uint64_t File::allocated_bytes() const {
  return inode_->allocated_pages * fs_->page_bytes_;
}

const std::string& File::name() const { return inode_->name; }

uint64_t File::ExtentCount() const { return inode_->extents.size(); }

}  // namespace ptsb::fs
