// Shared test helpers: a reference model (std::map oracle) and common
// fixtures for engine tests.
#ifndef PTSB_TESTS_TEST_SUPPORT_H_
#define PTSB_TESTS_TEST_SUPPORT_H_

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "block/block_device.h"
#include "kv/kvstore.h"
#include "util/random.h"
#include "util/status.h"

namespace ptsb::testing {

// Collects up to `count` pairs with key >= start via NewIterator() (what
// the deprecated KVStore::Scan shim used to do; tests that want a
// materialized range use this, production code streams the iterator).
inline Status CollectRange(
    kv::KVStore* store, std::string_view start, size_t count,
    std::vector<std::pair<std::string, std::string>>* out) {
  out->clear();
  std::unique_ptr<kv::KVStore::Iterator> it = store->NewIterator();
  for (it->Seek(start); it->Valid() && out->size() < count; it->Next()) {
    out->emplace_back(std::string(it->key()), std::string(it->value()));
  }
  return it->status();
}

// Oracle for property tests: mirrors every mutation applied to an engine.
class ReferenceModel {
 public:
  void Put(const std::string& key, const std::string& value) {
    map_[key] = value;
  }
  void Delete(const std::string& key) { map_.erase(key); }
  // Erases [begin, end); mirrors WriteBatch::DeleteRange's build-time
  // normalization of begin >= end to a no-op.
  void DeleteRange(const std::string& begin, const std::string& end) {
    if (begin >= end) return;
    map_.erase(map_.lower_bound(begin), map_.lower_bound(end));
  }
  std::optional<std::string> Get(const std::string& key) const {
    auto it = map_.find(key);
    if (it == map_.end()) return std::nullopt;
    return it->second;
  }
  size_t size() const { return map_.size(); }
  const std::map<std::string, std::string>& map() const { return map_; }

 private:
  std::map<std::string, std::string> map_;
};

// Applies `ops` random operations to both the engine and the model;
// periodically cross-checks random keys. put_bias in [0,1], delete the rest.
inline void RunRandomOps(kv::KVStore* store, ReferenceModel* model,
                         Rng* rng, int ops, uint64_t key_space,
                         size_t value_bytes, double put_bias = 0.8) {
  for (int i = 0; i < ops; i++) {
    const std::string key = "k" + std::to_string(rng->Uniform(key_space));
    if (rng->Bernoulli(put_bias)) {
      std::string value(value_bytes, '\0');
      rng->FillBytes(value.data(), value.size());
      ASSERT_TRUE(store->Put(key, value).ok()) << "put " << key;
      model->Put(key, value);
    } else {
      const Status s = store->Delete(key);
      ASSERT_TRUE(s.ok()) << "delete " << key << ": " << s.ToString();
      model->Delete(key);
    }
    if (i % 97 == 0) {
      const std::string probe = "k" + std::to_string(rng->Uniform(key_space));
      std::string got;
      const Status s = store->Get(probe, &got);
      const auto expected = model->Get(probe);
      if (expected.has_value()) {
        ASSERT_TRUE(s.ok()) << "missing " << probe << " at op " << i;
        ASSERT_EQ(got, *expected) << "wrong value for " << probe;
      } else {
        ASSERT_TRUE(s.IsNotFound()) << "phantom " << probe << " at op " << i;
      }
    }
  }
}

// Verifies every key in the model against the engine.
inline void VerifyAll(kv::KVStore* store, const ReferenceModel& model) {
  for (const auto& [key, expected] : model.map()) {
    std::string got;
    const Status s = store->Get(key, &got);
    ASSERT_TRUE(s.ok()) << "missing " << key << ": " << s.ToString();
    ASSERT_EQ(got, expected) << "wrong value for " << key;
  }
}

// Pass-through block device that counts write commands by where they
// start, so a test can tell the filesystem's metadata region (LBAs below
// FsOptions::metadata_pages) from file data.
class WriteLogDevice : public block::BlockDevice {
 public:
  explicit WriteLogDevice(block::BlockDevice* base) : base_(base) {}

  uint64_t lba_bytes() const override { return base_->lba_bytes(); }
  uint64_t num_lbas() const override { return base_->num_lbas(); }
  sim::SimClock* clock() const override { return base_->clock(); }
  Status Read(uint64_t lba, uint64_t count, uint8_t* dst) override {
    return base_->Read(lba, count, dst);
  }
  Status Write(uint64_t lba, uint64_t count, const uint8_t* src) override {
    Status s = base_->Write(lba, count, src);
    if (s.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      write_lbas_.push_back(lba);
    }
    return s;
  }
  Status Trim(uint64_t lba, uint64_t count) override {
    return base_->Trim(lba, count);
  }
  Status Flush() override {
    Status s = base_->Flush();
    if (s.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      flushes_++;
    }
    return s;
  }

  // Successful write commands and flushes so far, and the write commands
  // starting below `lba`.
  uint64_t writes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return write_lbas_.size();
  }
  uint64_t flushes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return flushes_;
  }
  uint64_t WritesBelow(uint64_t lba) const {
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t n = 0;
    for (const uint64_t l : write_lbas_) n += l < lba ? 1 : 0;
    return n;
  }

 private:
  block::BlockDevice* base_;
  mutable std::mutex mu_;
  std::vector<uint64_t> write_lbas_;
  uint64_t flushes_ = 0;
};

}  // namespace ptsb::testing

#endif  // PTSB_TESTS_TEST_SUPPORT_H_
