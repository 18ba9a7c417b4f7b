#include "lsm/wal.h"

#include <vector>

#include "util/crc32.h"
#include "util/encoding.h"

namespace ptsb::lsm {

WalWriter::WalWriter(fs::File* file, uint64_t sync_every_bytes,
                     uint64_t buffer_bytes)
    : file_(file),
      sync_every_bytes_(sync_every_bytes),
      buffer_bytes_(buffer_bytes) {}

Status WalWriter::FlushBuffer() {
  if (buffer_.empty()) return Status::OK();
  PTSB_RETURN_IF_ERROR(file_->Append(buffer_));
  buffer_.clear();
  return Status::OK();
}

namespace {

void AppendEntry(std::string* payload, std::string_view key,
                 SequenceNumber seq, EntryType type, std::string_view value) {
  PutFixed64(payload, PackSeqType(seq, type));
  PutVarint32(payload, static_cast<uint32_t>(key.size()));
  payload->append(key.data(), key.size());
  PutVarint32(payload, static_cast<uint32_t>(value.size()));
  payload->append(value.data(), value.size());
}

}  // namespace

Status WalWriter::Add(std::string_view key, SequenceNumber seq,
                      EntryType type, std::string_view value) {
  std::string payload;
  payload.reserve(key.size() + value.size() + 24);
  AppendEntry(&payload, key, seq, type, value);
  return EmitRecord(payload);
}

Status WalWriter::AddBatch(const kv::WriteBatch& batch,
                           SequenceNumber first_seq) {
  std::string payload;
  payload.reserve(batch.ByteSize() + batch.Count() * 24);
  SequenceNumber seq = first_seq;
  for (const kv::WriteBatch::Entry& e : batch.entries()) {
    EntryType type = EntryType::kDelete;
    switch (e.kind) {
      case kv::WriteBatch::EntryKind::kPut:
        type = EntryType::kPut;
        break;
      case kv::WriteBatch::EntryKind::kDelete:
        type = EntryType::kDelete;
        break;
      case kv::WriteBatch::EntryKind::kDeleteRange:
        // key = range begin, value = exclusive end; same framing as a Put.
        type = EntryType::kRangeDelete;
        break;
    }
    AppendEntry(&payload, e.key, seq++, type, e.value);
  }
  return EmitRecord(payload);
}

Status WalWriter::EmitRecord(std::string_view payload) {
  const size_t framed_start = buffer_.size();
  PutFixed32(&buffer_, MaskCrc(Crc32c(payload)));
  PutVarint32(&buffer_, static_cast<uint32_t>(payload.size()));
  buffer_.append(payload.data(), payload.size());
  bytes_written_ += buffer_.size() - framed_start;

  if (sync_every_bytes_ > 0) {
    unsynced_ += payload.size();
    // A due sync takes the whole buffer with it (one fused write).
    if (unsynced_ >= sync_every_bytes_) return Sync();
  }
  if (buffer_.size() >= buffer_bytes_) return FlushBuffer();
  return Status::OK();
}

Status WalWriter::Sync() {
  unsynced_ = 0;
  PTSB_RETURN_IF_ERROR(file_->Sync(buffer_));
  buffer_.clear();
  return Status::OK();
}

Status ReplayWal(fs::File* file,
                 const std::function<void(std::string_view, SequenceNumber,
                                          EntryType, std::string_view)>& fn) {
  const uint64_t size = file->size();
  std::string data(size, '\0');
  PTSB_ASSIGN_OR_RETURN(const uint64_t got,
                        file->ReadAt(0, size, data.data()));
  std::string_view in(data.data(), got);
  while (!in.empty()) {
    uint32_t stored_crc, len;
    std::string_view record = in;  // to restore nothing; parse copies
    if (!GetFixed32(&record, &stored_crc) || !GetVarint32(&record, &len) ||
        record.size() < len) {
      break;  // truncated tail: normal after a crash
    }
    const std::string_view payload = record.substr(0, len);
    if (UnmaskCrc(stored_crc) != Crc32c(payload)) {
      break;  // torn record: stop replay here
    }
    // A record holds one entry per batched operation (group commit);
    // legacy single-op records are one-entry batches. Parse the whole
    // record before applying anything: a batch must replay atomically,
    // never as a prefix.
    struct ParsedEntry {
      std::string_view key;
      uint64_t tag;
      std::string_view value;
    };
    std::vector<ParsedEntry> entries;
    std::string_view p = payload;
    bool parsed_ok = true;
    while (!p.empty()) {
      uint64_t tag;
      uint32_t klen, vlen;
      if (!GetFixed64(&p, &tag) || !GetVarint32(&p, &klen) ||
          p.size() < klen) {
        parsed_ok = false;
        break;
      }
      const std::string_view key = p.substr(0, klen);
      p.remove_prefix(klen);
      if (!GetVarint32(&p, &vlen) || p.size() < vlen) {
        parsed_ok = false;
        break;
      }
      const std::string_view value = p.substr(0, vlen);
      p.remove_prefix(vlen);
      entries.push_back({key, tag, value});
    }
    if (!parsed_ok) break;  // crc passed but malformed: treat as torn
    for (const ParsedEntry& e : entries) {
      fn(e.key, UnpackSeq(e.tag), UnpackType(e.tag), e.value);
    }
    in = record.substr(len);
  }
  return Status::OK();
}

}  // namespace ptsb::lsm
