// In-memory write buffer: a skiplist in INTERNAL order (user key
// ascending, sequence descending). A write overwrites the key's newest
// version in place unless an open snapshot can still read that version;
// only then does it insert a new one. Multi-versioning is what lets a
// snapshot at sequence S keep reading the value a later write
// overwrote: lookups and scans take a sequence bound and surface the
// newest version at or below it. With no snapshot open the memtable
// holds one version per key, as a store without snapshots needs.
#ifndef PTSB_LSM_MEMTABLE_H_
#define PTSB_LSM_MEMTABLE_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>

#include "lsm/format.h"
#include "util/random.h"

namespace ptsb::lsm {

class Memtable {
 public:
  Memtable();
  ~Memtable();  // defined out of line: Node is an incomplete type here

  Memtable(const Memtable&) = delete;
  Memtable& operator=(const Memtable&) = delete;

  // Writes a version. Delete is an Add with EntryType::kDelete.
  // Sequences for one user key must arrive in ascending order (they do:
  // the store assigns them monotonically under the commit lock).
  // `snapshot_seq` is the newest sequence an open snapshot reads at (0:
  // none open): the key's newest version is overwritten in place when it
  // is above that, since no snapshot can see it; otherwise the new
  // version is inserted in front of it. The default keeps every version.
  void Add(std::string_view key, SequenceNumber seq, EntryType type,
           std::string_view value,
           SequenceNumber snapshot_seq = ~SequenceNumber{0});

  // Lookup result semantics: found=true + deleted=false -> value set;
  // found=true + deleted=true -> key has a tombstone here.
  struct LookupResult {
    bool found = false;
    bool deleted = false;
    std::string value;
    SequenceNumber seq = 0;
  };
  // Newest version with seq <= max_seq (snapshot reads pass their bound;
  // live reads pass the default, which sees everything).
  LookupResult Get(std::string_view key,
                   SequenceNumber max_seq = ~SequenceNumber{0}) const;

  // Approximate memory footprint (keys + values + node overhead).
  uint64_t ApproximateBytes() const { return bytes_; }
  uint64_t entries() const { return entries_; }
  bool empty() const { return entries_ == 0; }

  // Ordered forward iteration (for flush and scans).
  class Iterator {
   public:
    explicit Iterator(const Memtable* mt);
    bool Valid() const;
    void SeekToFirst();
    void Seek(std::string_view key);  // first entry with key >= target
    void Next();
    std::string_view key() const;
    SequenceNumber seq() const;
    EntryType type() const;
    std::string_view value() const;

   private:
    friend class Memtable;
    const Memtable* mt_;
    const void* node_;  // Memtable::Node*
  };

 private:
  struct Node;
  static constexpr int kMaxHeight = 12;

  Node* NewNode(std::string_view key, int height);
  // Returns the last node with key < target at each level (prev array).
  Node* FindGreaterOrEqual(std::string_view key, Node** prev) const;
  int RandomHeight();

  std::deque<std::unique_ptr<Node>> arena_;
  Node* head_;
  int height_ = 1;
  Rng rng_;
  uint64_t bytes_ = 0;
  uint64_t entries_ = 0;
};

}  // namespace ptsb::lsm

#endif  // PTSB_LSM_MEMTABLE_H_
