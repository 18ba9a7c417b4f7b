#include "tracing.h"

#include <utility>

namespace perfbench {

namespace kv = ptsb::kv;
using ptsb::Status;

// ---- TimedDevice ----------------------------------------------------------

template <typename Fn>
Status TimedDevice::Forward(Command command, Fn&& fn) {
  LayerTotals& t = tracer_->totals();
  const auto start = Tracer::SteadyClock::now();
  if (level_ == Level::kSsd) {
    const int64_t before = t.ssd_ns;
    Status s = fn();
    Tracer::AddSince(start, &t.ssd_ns);
    if (tracer_->block_depth_ == 0) t.ssd_outside_block_ns += t.ssd_ns - before;
    return s;
  }
  tracer_->block_depth_++;
  const int64_t before = t.block_ns;
  Status s = fn();
  Tracer::AddSince(start, &t.block_ns);
  tracer_->block_depth_--;
  if (tracer_->kv_depth_ == 0) t.block_outside_kv_ns += t.block_ns - before;
  const int cause = static_cast<int>(tracer_->cause_);
  if (command == Command::kRead) t.block_reads[cause]++;
  if (command == Command::kWrite) t.block_writes[cause]++;
  return s;
}

Status TimedDevice::Read(uint64_t lba, uint64_t count, uint8_t* dst) {
  return Forward(Command::kRead,
                 [&] { return base_->Read(lba, count, dst); });
}

Status TimedDevice::Write(uint64_t lba, uint64_t count, const uint8_t* src) {
  return Forward(Command::kWrite,
                 [&] { return base_->Write(lba, count, src); });
}

Status TimedDevice::Trim(uint64_t lba, uint64_t count) {
  return Forward(Command::kOther, [&] { return base_->Trim(lba, count); });
}

Status TimedDevice::Flush() {
  return Forward(Command::kOther, [&] { return base_->Flush(); });
}

// ---- TracedStore ----------------------------------------------------------

namespace {

// Times every cursor call, and the cursor's release, as scan work.
class TracedIterator : public kv::KVStore::Iterator {
 public:
  TracedIterator(std::unique_ptr<kv::KVStore::Iterator> inner,
                 Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}
  ~TracedIterator() override {
    Tracer::KvSpan span(tracer_, Cause::kScan);
    inner_.reset();
  }
  TracedIterator(const TracedIterator&) = delete;
  TracedIterator& operator=(const TracedIterator&) = delete;

  void SeekToFirst() override {
    Tracer::KvSpan span(tracer_, Cause::kScan);
    inner_->SeekToFirst();
  }
  void Seek(std::string_view target) override {
    Tracer::KvSpan span(tracer_, Cause::kScan);
    inner_->Seek(target);
  }
  bool Valid() const override {
    Tracer::KvSpan span(tracer_, Cause::kScan);
    return inner_->Valid();
  }
  void Next() override {
    Tracer::KvSpan span(tracer_, Cause::kScan);
    inner_->Next();
  }
  std::string_view key() const override {
    Tracer::KvSpan span(tracer_, Cause::kScan);
    return inner_->key();
  }
  std::string_view value() const override {
    Tracer::KvSpan span(tracer_, Cause::kScan);
    return inner_->value();
  }
  Status status() const override {
    Tracer::KvSpan span(tracer_, Cause::kScan);
    return inner_->status();
  }

 private:
  std::unique_ptr<kv::KVStore::Iterator> inner_;
  Tracer* tracer_;
};

// Owns the inner store's snapshot; dropping the last reference releases
// it inside a timed span. The handle given out aliases the inner
// snapshot object, so ReadOptions::snapshot still points at it.
struct SnapshotHolder {
  std::shared_ptr<const kv::Snapshot> inner;
  Tracer* tracer = nullptr;
  ~SnapshotHolder() {
    Tracer::KvSpan span(tracer, Cause::kScan);
    inner.reset();
  }
};

}  // namespace

Status TracedStore::Write(const kv::WriteBatch& batch) {
  Tracer::KvSpan span(tracer_, Cause::kPut);
  return inner_->Write(batch);
}

kv::WriteHandle TracedStore::WriteAsync(const kv::WriteBatch& batch) {
  Tracer::KvSpan span(tracer_, Cause::kPut);
  return inner_->WriteAsync(batch);
}

Status TracedStore::Get(std::string_view key, std::string* value) {
  Tracer::KvSpan span(tracer_, Cause::kGet);
  return inner_->Get(key, value);
}

Status TracedStore::Get(const kv::ReadOptions& opts, std::string_view key,
                        std::string* value) {
  Tracer::KvSpan span(tracer_, Cause::kGet);
  return inner_->Get(opts, key, value);
}

std::vector<Status> TracedStore::MultiGet(
    std::span<const std::string_view> keys,
    std::vector<std::string>* values) {
  Tracer::KvSpan span(tracer_, Cause::kGet);
  return inner_->MultiGet(keys, values);
}

std::vector<Status> TracedStore::MultiGet(
    const kv::ReadOptions& opts, std::span<const std::string_view> keys,
    std::vector<std::string>* values) {
  Tracer::KvSpan span(tracer_, Cause::kGet);
  return inner_->MultiGet(opts, keys, values);
}

kv::ReadHandle TracedStore::ReadAsync(std::string_view key,
                                      std::string* value) {
  Tracer::KvSpan span(tracer_, Cause::kGet);
  return inner_->ReadAsync(key, value);
}

std::unique_ptr<kv::KVStore::Iterator> TracedStore::NewIterator() {
  Tracer::KvSpan span(tracer_, Cause::kScan);
  return std::make_unique<TracedIterator>(inner_->NewIterator(), tracer_);
}

std::unique_ptr<kv::KVStore::Iterator> TracedStore::NewIterator(
    const kv::ReadOptions& opts) {
  Tracer::KvSpan span(tracer_, Cause::kScan);
  return std::make_unique<TracedIterator>(inner_->NewIterator(opts),
                                          tracer_);
}

// Snapshots are only taken for scans here, so their cost is scan work.
ptsb::StatusOr<std::shared_ptr<const kv::Snapshot>>
TracedStore::GetSnapshot() {
  Tracer::KvSpan span(tracer_, Cause::kScan);
  auto got = inner_->GetSnapshot();
  if (!got.ok()) return got.status();
  auto holder = std::make_shared<SnapshotHolder>();
  holder->inner = *std::move(got);
  holder->tracer = tracer_;
  const kv::Snapshot* raw = holder->inner.get();
  return std::shared_ptr<const kv::Snapshot>(std::move(holder), raw);
}

Status TracedStore::Flush() {
  Tracer::KvSpan span(tracer_, Cause::kOther);
  return inner_->Flush();
}

Status TracedStore::SettleBackgroundWork() {
  Tracer::KvSpan span(tracer_, Cause::kOther);
  return inner_->SettleBackgroundWork();
}

Status TracedStore::Close() {
  Tracer::KvSpan span(tracer_, Cause::kOther);
  return inner_->Close();
}

}  // namespace perfbench
