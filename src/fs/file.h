// File handle for SimpleFs. Safe to use from one thread per file while
// other threads operate on OTHER files: per-file state (tail buffer,
// sizes, extents) is touched only by this file's user, the shared
// allocator is guarded by the filesystem mutex, and device commands take
// no filesystem lock (the device serializes its own command processing)
// — the locking split kv::ShardedStore's per-shard engines rely on.
// A single File shared by two unsynchronized threads is a bug: appends
// would interleave unpredictably.
#ifndef PTSB_FS_FILE_H_
#define PTSB_FS_FILE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "block/block_device.h"
#include "sim/io_class.h"
#include "util/status.h"

namespace ptsb::fs {

class SimpleFs;
struct Inode;

class File {
 public:
  // Appends bytes at the end of the file (buffered; full pages are written
  // through to the device, the partial tail stays in memory until Sync).
  // Equivalent to Wait(SubmitAppend(data)).
  Status Append(std::string_view data);

  // ---- Async submission. SubmitAppend/SubmitWriteAt apply the write
  // immediately (data is visible to subsequent reads) but run its device
  // commands in a virtual-time submission lane tagged with `queue` and
  // `io_class`: the latency lands in the returned ticket instead of the
  // shared clock, and the simulated SSD serializes the commands on
  // channel `queue % channels` only, accounting busy time under the
  // class. Wait(ticket) joins the completion time into the clock
  // (monotonic max), so submissions on distinct queues issued from the
  // same instant overlap in virtual time. On an untimed device the calls
  // degrade to their synchronous equivalents. The per-file single-user
  // contract is unchanged: submissions on ONE file must come from its
  // one user.
  block::IoTicket SubmitAppend(
      std::string_view data, uint32_t queue = 0,
      sim::IoClass io_class = sim::IoClass::kForegroundWrite);
  block::IoTicket SubmitWriteAt(
      uint64_t offset, std::string_view data, uint32_t queue = 0,
      sim::IoClass io_class = sim::IoClass::kForegroundWrite);
  // Reads EXACTLY [offset, offset+n) into dst inside a submission lane
  // (the read-side counterpart of SubmitAppend; see kv MultiGet fan-out).
  // Unlike ReadAt, a short read — the range extending past EOF — is an
  // error in the ticket, since the caller cannot learn a byte count from
  // an IoTicket.
  block::IoTicket SubmitReadAt(
      uint64_t offset, uint64_t n, char* dst, uint32_t queue = 0,
      sim::IoClass io_class = sim::IoClass::kForegroundRead);
  Status Wait(const block::IoTicket& ticket);

  // Reads [offset, offset+n) into dst. Reads through the device but serves
  // the buffered tail from memory, like the page cache would. Returns the
  // number of bytes read (short reads happen at EOF).
  StatusOr<uint64_t> ReadAt(uint64_t offset, uint64_t n, char* dst) const;

  // Overwrites existing bytes. The range must be page-aligned on both ends
  // (direct-I/O style), and must lie within the allocated space (use
  // Extend first). Used by the B+Tree block manager. Equivalent to
  // Wait(SubmitWriteAt(offset, data)).
  Status WriteAt(uint64_t offset, std::string_view data);

  // Ensures at least `bytes` of allocated capacity; sets size to at least
  // `bytes` (newly allocated space reads as zeros).
  Status Extend(uint64_t bytes);

  // Appends `data`, then makes the whole unsynced range durable, as an
  // fsync after buffered writes would: the dirty buffered tail, the new
  // whole pages and the zero-padded new tail go out as ONE device write
  // per physically contiguous LBA run, followed by one device flush.
  // Sync() is the same call with no data: it writes just the dirty tail
  // page (if any) and flushes. The file lands on the same LBAs as with
  // Append(data) + Sync(). If a write fails, nothing of `data` is
  // appended. After Sync, size() == synced_size().
  Status Sync(std::string_view data = {});

  // Releases allocated-but-unused whole pages past the end of the file
  // (appends over-allocate in chunks; call this after finishing a file).
  Status ShrinkToFit();

  uint64_t size() const;
  uint64_t synced_size() const;
  uint64_t allocated_bytes() const;
  const std::string& name() const;

  // Number of extents backing this file (fragmentation diagnostic).
  uint64_t ExtentCount() const;

 private:
  friend class SimpleFs;
  File(SimpleFs* fs, Inode* inode) : fs_(fs), inode_(inode) {}

  // Synchronous bodies; the public entry points wrap them in submission
  // lanes (submit-then-wait).
  Status AppendImpl(std::string_view data);
  // Grows the allocation for `npages` completed pages starting at
  // `file_page`, in append_alloc_pages chunks (delayed allocation).
  Status GrowForAppend(uint64_t file_page, uint64_t npages);
  Status WriteAtImpl(uint64_t offset, std::string_view data);

  SimpleFs* fs_;
  Inode* inode_;
};

}  // namespace ptsb::fs

#endif  // PTSB_FS_FILE_H_
