#include "lsm/memtable.h"

#include "util/logging.h"

namespace ptsb::lsm {

struct Memtable::Node {
  std::string key;
  std::string value;
  SequenceNumber seq = 0;
  EntryType type = EntryType::kPut;
  int height = 1;
  Node* next[kMaxHeight] = {};
};

namespace {
// Per-entry bookkeeping overhead (node, pointers) used for the memtable
// size trigger; mirrors the arena accounting a real engine does.
constexpr uint64_t kNodeOverhead = 64;
}  // namespace

Memtable::~Memtable() = default;

Memtable::Memtable() : rng_(0x9e3779b97f4a7c15ULL) {
  auto head = std::make_unique<Node>();
  head->height = kMaxHeight;
  head_ = head.get();
  arena_.push_back(std::move(head));
}

Memtable::Node* Memtable::NewNode(std::string_view key, int height) {
  auto node = std::make_unique<Node>();
  node->key.assign(key.data(), key.size());
  node->height = height;
  Node* raw = node.get();
  arena_.push_back(std::move(node));
  return raw;
}

int Memtable::RandomHeight() {
  // Increase height with probability 1/4 per level, as in LevelDB.
  int height = 1;
  while (height < kMaxHeight && (rng_.Next() & 3) == 0) height++;
  return height;
}

Memtable::Node* Memtable::FindGreaterOrEqual(std::string_view key,
                                             Node** prev) const {
  Node* x = head_;
  int level = height_ - 1;
  for (;;) {
    Node* next = x->next[level];
    if (next != nullptr && next->key < key) {
      x = next;
    } else {
      if (prev != nullptr) prev[level] = x;
      if (level == 0) return next;
      level--;
    }
  }
}

void Memtable::Add(std::string_view key, SequenceNumber seq, EntryType type,
                   std::string_view value, SequenceNumber snapshot_seq) {
  Node* prev[kMaxHeight];
  // FindGreaterOrEqual stops at the key's newest version, if any.
  Node* node = FindGreaterOrEqual(key, prev);
  if (node != nullptr && node->key == key) {
    PTSB_DCHECK(seq > node->seq);
    if (node->seq > snapshot_seq) {
      // No snapshot reads this version: overwrite it. The node keeps its
      // place, since it stays the key's newest version.
      bytes_ -= node->value.size();
      node->value.assign(value.data(), value.size());
      node->seq = seq;
      node->type = type;
      bytes_ += value.size();
      return;
    }
  }
  // Insert: the new node lands BEFORE any existing versions of the same
  // user key, and since sequences per key arrive ascending, level-0
  // order is exactly internal order — key ascending, seq descending.
  const int height = RandomHeight();
  if (height > height_) {
    for (int i = height_; i < height; i++) prev[i] = head_;
    height_ = height;
  }
  Node* fresh = NewNode(key, height);
  fresh->value.assign(value.data(), value.size());
  fresh->seq = seq;
  fresh->type = type;
  for (int i = 0; i < height; i++) {
    fresh->next[i] = prev[i]->next[i];
    prev[i]->next[i] = fresh;
  }
  entries_++;
  bytes_ += key.size() + value.size() + kNodeOverhead;
}

Memtable::LookupResult Memtable::Get(std::string_view key,
                                     SequenceNumber max_seq) const {
  LookupResult r;
  const Node* node = FindGreaterOrEqual(key, nullptr);
  // Versions of one key sit newest-first; skip those above the bound.
  while (node != nullptr && node->key == key && node->seq > max_seq) {
    node = node->next[0];
  }
  if (node == nullptr || node->key != key) return r;
  r.found = true;
  r.seq = node->seq;
  if (node->type == EntryType::kDelete) {
    r.deleted = true;
  } else {
    r.value = node->value;
  }
  return r;
}

Memtable::Iterator::Iterator(const Memtable* mt) : mt_(mt), node_(nullptr) {}

bool Memtable::Iterator::Valid() const { return node_ != nullptr; }

void Memtable::Iterator::SeekToFirst() { node_ = mt_->head_->next[0]; }

void Memtable::Iterator::Seek(std::string_view key) {
  node_ = mt_->FindGreaterOrEqual(key, nullptr);
}

void Memtable::Iterator::Next() {
  PTSB_DCHECK(Valid());
  node_ = static_cast<const Node*>(node_)->next[0];
}

std::string_view Memtable::Iterator::key() const {
  return static_cast<const Node*>(node_)->key;
}
SequenceNumber Memtable::Iterator::seq() const {
  return static_cast<const Node*>(node_)->seq;
}
EntryType Memtable::Iterator::type() const {
  return static_cast<const Node*>(node_)->type;
}
std::string_view Memtable::Iterator::value() const {
  return static_cast<const Node*>(node_)->value;
}

}  // namespace ptsb::lsm
