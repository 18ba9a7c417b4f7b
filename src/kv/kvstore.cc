#include "kv/kvstore.h"

#include "sim/clock.h"

namespace ptsb::kv {

Status WriteHandle::Wait() {
  Settle();
  return status_;
}

void WriteHandle::OnComplete(Callback cb) {
  if (joined_) {
    if (cb) cb(status_);
    return;
  }
  callback_ = std::move(cb);
}

void WriteHandle::Settle() {
  if (!joined_) {
    if (clock_ != nullptr && complete_ns_ > 0) {
      clock_->AdvanceTo(complete_ns_);
    }
    joined_ = true;
  }
  if (callback_) {
    Callback cb = std::move(callback_);
    callback_ = nullptr;
    cb(status_);
  }
}

WriteHandle AsyncCommit(sim::SimClock* clock, uint32_t queue,
                        const std::function<Status()>& commit) {
  sim::LaneResult r =
      sim::RunInLane(clock, queue, sim::IoClass::kForegroundWrite, commit);
  return WriteHandle(std::move(r.status), r.complete_ns, clock);
}

Status ReadHandle::Wait() {
  Settle();
  return status_;
}

void ReadHandle::OnComplete(Callback cb) {
  if (joined_) {
    if (cb) cb(status_);
    return;
  }
  callback_ = std::move(cb);
}

void ReadHandle::Settle() {
  if (!joined_) {
    if (clock_ != nullptr && complete_ns_ > 0) {
      clock_->AdvanceTo(complete_ns_);
    }
    joined_ = true;
  }
  if (callback_) {
    Callback cb = std::move(callback_);
    callback_ = nullptr;
    cb(status_);
  }
}

ReadHandle AsyncRead(sim::SimClock* clock, uint32_t queue,
                     const std::function<Status()>& read) {
  sim::LaneResult r =
      sim::RunInLane(clock, queue, sim::IoClass::kForegroundRead, read);
  return ReadHandle(std::move(r.status), r.complete_ns, clock);
}

namespace {

class FailedIteratorImpl : public KVStore::Iterator {
 public:
  explicit FailedIteratorImpl(Status status) : status_(std::move(status)) {}
  void SeekToFirst() override {}
  void Seek(std::string_view) override {}
  bool Valid() const override { return false; }
  void Next() override {}
  std::string_view key() const override { return {}; }
  std::string_view value() const override { return {}; }
  Status status() const override { return status_; }

 private:
  Status status_;
};

}  // namespace

std::unique_ptr<KVStore::Iterator> FailedIterator(Status status) {
  return std::make_unique<FailedIteratorImpl>(std::move(status));
}

std::unique_ptr<KVStore::Iterator> KVStore::NewIterator(
    const ReadOptions& opts) {
  if (opts.snapshot != nullptr) {
    return FailedIterator(
        Status::NotSupported(Name() + ": snapshot iterators not supported"));
  }
  return NewIterator();
}

std::vector<Status> KVStore::MultiGet(std::span<const std::string_view> keys,
                                      std::vector<std::string>* values) {
  // No clock and depth 1: FanOutMultiGet's sequential path, the one
  // per-key Get loop in the codebase.
  return FanOutMultiGet(this, nullptr, 0, 1, keys, values);
}

std::vector<Status> FanOutMultiGet(KVStore* store, sim::SimClock* clock,
                                   uint32_t base_queue, int depth,
                                   std::span<const std::string_view> keys,
                                   std::vector<std::string>* values) {
  values->assign(keys.size(), std::string());
  std::vector<Status> statuses(keys.size());
  if (clock == nullptr || depth <= 1) {
    for (size_t i = 0; i < keys.size(); i++) {
      statuses[i] = store->Get(keys[i], &(*values)[i]);
    }
    return statuses;
  }
  // Bounded fan-out: keep at most `depth` lookups in flight. Waiting the
  // oldest joins its completion into the clock, so later submissions
  // start no earlier than its finish. The in-flight window spans `depth`
  // consecutive indices, so the mod-depth queue ids are distinct within
  // it and lookups stripe across channels.
  std::vector<ReadHandle> handles;
  handles.reserve(keys.size());
  size_t waited = 0;
  for (size_t i = 0; i < keys.size(); i++) {
    const uint32_t queue =
        base_queue + static_cast<uint32_t>(i % static_cast<size_t>(depth));
    handles.push_back(AsyncRead(
        clock, queue, [&, i] { return store->Get(keys[i], &(*values)[i]); }));
    if (handles.size() - waited >= static_cast<size_t>(depth)) {
      statuses[waited] = handles[waited].Wait();
      waited++;
    }
  }
  for (; waited < handles.size(); waited++) {
    statuses[waited] = handles[waited].Wait();
  }
  return statuses;
}

}  // namespace ptsb::kv
