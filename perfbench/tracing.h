// Per-layer host-time accounting from outside the product: forwarding
// decorators around the public interfaces of the kv and block layers.
// Each decorator times its calls into the layer below with steady_clock
// and adds them to a shared Tracer; a layer's self time is its boundary
// time minus the boundary below it. The decorators only forward, so a
// traced stack produces exactly the virtual times and counts of an
// untraced one (the benchmark checks this on every traced run).
//
// Single-threaded by design: the benchmark is a one-client closed loop
// and none of the engines it runs starts a thread.
#ifndef PERFBENCH_TRACING_H_
#define PERFBENCH_TRACING_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "block/block_device.h"
#include "kv/kvstore.h"

namespace perfbench {

// The kv call a block command was issued under, for per-cause ratios.
enum class Cause { kNone, kPut, kGet, kScan, kOther };
inline constexpr int kNumCauses = 5;

struct LayerTotals {
  int64_t kv_ns = 0;     // inside KVStore calls
  int64_t block_ns = 0;  // inside the block device the filesystem sees
  int64_t ssd_ns = 0;    // inside SsdDevice
  // Time no boundary above accounts for: block commands issued outside
  // any kv call, and SsdDevice commands that bypass the block probe.
  // Both stay zero in the measured phase, where the engines do all their
  // I/O inside a kv call and through the filesystem.
  int64_t block_outside_kv_ns = 0;
  int64_t ssd_outside_block_ns = 0;
  uint64_t block_reads[kNumCauses] = {};
  uint64_t block_writes[kNumCauses] = {};
};

class Tracer {
 public:
  using SteadyClock = std::chrono::steady_clock;

  // Adds the time since `start` to `*slot`.
  static void AddSince(SteadyClock::time_point start, int64_t* slot) {
    *slot += std::chrono::duration_cast<std::chrono::nanoseconds>(
                 SteadyClock::now() - start)
                 .count();
  }

  LayerTotals& totals() { return totals_; }
  // Returns the totals so far and starts a new phase from zero.
  LayerTotals TakeTotals() {
    LayerTotals t = totals_;
    totals_ = LayerTotals{};
    return t;
  }

  // RAII span around one kv call: times it and sets the active cause.
  class KvSpan {
   public:
    KvSpan(Tracer* tracer, Cause cause)
        : tracer_(tracer), saved_(tracer->cause_),
          start_(SteadyClock::now()) {
      tracer_->cause_ = cause;
      tracer_->kv_depth_++;
    }
    ~KvSpan() {
      tracer_->kv_depth_--;
      tracer_->cause_ = saved_;
      if (tracer_->kv_depth_ == 0) AddSince(start_, &tracer_->totals_.kv_ns);
    }
    KvSpan(const KvSpan&) = delete;
    KvSpan& operator=(const KvSpan&) = delete;

   private:
    Tracer* tracer_;
    Cause saved_;
    SteadyClock::time_point start_;
  };

 private:
  friend class TimedDevice;

  LayerTotals totals_;
  Cause cause_ = Cause::kNone;
  int kv_depth_ = 0;
  int block_depth_ = 0;
};

// Forwarding BlockDevice that times every command. kBlock sits between
// the filesystem and the partition and also counts commands per cause;
// kSsd sits directly above the SsdDevice.
class TimedDevice : public ptsb::block::BlockDevice {
 public:
  enum class Level { kBlock, kSsd };
  TimedDevice(ptsb::block::BlockDevice* base, Level level, Tracer* tracer)
      : base_(base), level_(level), tracer_(tracer) {}

  uint64_t lba_bytes() const override { return base_->lba_bytes(); }
  uint64_t num_lbas() const override { return base_->num_lbas(); }
  ptsb::sim::SimClock* clock() const override { return base_->clock(); }
  ptsb::Status Read(uint64_t lba, uint64_t count, uint8_t* dst) override;
  ptsb::Status Write(uint64_t lba, uint64_t count,
                     const uint8_t* src) override;
  ptsb::Status Trim(uint64_t lba, uint64_t count) override;
  ptsb::Status Flush() override;

 private:
  enum class Command { kRead, kWrite, kOther };
  // Runs one command on the base device and accounts for it.
  template <typename Fn>
  ptsb::Status Forward(Command command, Fn&& fn);

  ptsb::block::BlockDevice* base_;
  Level level_;
  Tracer* tracer_;
};

// Forwarding KVStore that times every call (and every iterator move)
// and tags it with its cause. Snapshots and iterators of the inner store
// pass through unchanged, so ReadOptions built from them stay valid.
class TracedStore : public ptsb::kv::KVStore {
 public:
  TracedStore(std::unique_ptr<ptsb::kv::KVStore> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  ptsb::Status Write(const ptsb::kv::WriteBatch& batch) override;
  ptsb::kv::WriteHandle WriteAsync(
      const ptsb::kv::WriteBatch& batch) override;
  ptsb::Status Get(std::string_view key, std::string* value) override;
  ptsb::Status Get(const ptsb::kv::ReadOptions& opts, std::string_view key,
                   std::string* value) override;
  std::vector<ptsb::Status> MultiGet(
      std::span<const std::string_view> keys,
      std::vector<std::string>* values) override;
  std::vector<ptsb::Status> MultiGet(
      const ptsb::kv::ReadOptions& opts,
      std::span<const std::string_view> keys,
      std::vector<std::string>* values) override;
  ptsb::kv::ReadHandle ReadAsync(std::string_view key,
                                 std::string* value) override;
  std::unique_ptr<Iterator> NewIterator() override;
  std::unique_ptr<Iterator> NewIterator(
      const ptsb::kv::ReadOptions& opts) override;
  ptsb::StatusOr<std::shared_ptr<const ptsb::kv::Snapshot>> GetSnapshot()
      override;
  ptsb::Status Flush() override;
  ptsb::Status SettleBackgroundWork() override;
  ptsb::Status Close() override;
  bool SupportsConcurrentWriters() const override {
    return inner_->SupportsConcurrentWriters();
  }
  ptsb::kv::KvStoreStats GetStats() const override {
    return inner_->GetStats();
  }
  std::string Name() const override { return inner_->Name(); }
  uint64_t DiskBytesUsed() const override { return inner_->DiskBytesUsed(); }

 private:
  std::unique_ptr<ptsb::kv::KVStore> inner_;
  Tracer* tracer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACING_H_
