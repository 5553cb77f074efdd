// Arena-backed skiplist, the memtable's core index. One writer, many
// readers: Insert needs external synchronization (the memtable's only
// writer is the commit-group leader, and leadership handoff goes through
// the WriteQueue mutex, DESIGN.md §2.9), while readers traverse with
// acquire loads and never lock (DESIGN.md §2.7). A new node is fully built
// before the release-store that links it in at each level, so a reader
// either sees the node completely or not at all.
#ifndef TALUS_MEM_SKIPLIST_H_
#define TALUS_MEM_SKIPLIST_H_

#include <atomic>
#include <cassert>
#include <cstdlib>

#include "util/arena.h"
#include "util/random.h"

namespace talus {

template <typename Key, class Comparator>
class SkipList {
 private:
  struct Node;

 public:
  SkipList(Comparator cmp, Arena* arena)
      : compare_(cmp),
        arena_(arena),
        head_(NewNode(0 /* any key */, kMaxHeight)),
        max_height_(1),
        rnd_(0xdeadbeef) {
    for (int i = 0; i < kMaxHeight; i++) {
      head_->SetNext(i, nullptr);
    }
  }

  SkipList(const SkipList&) = delete;
  SkipList& operator=(const SkipList&) = delete;

  /// REQUIRES: external synchronization against other Inserts, and
  /// nothing that compares equal to key is in the list.
  void Insert(const Key& key) {
    Node* prev[kMaxHeight];
    Node* x = FindGreaterOrEqual(key, prev);
    assert(x == nullptr || !Equal(key, x->key));

    const int height = RandomHeight();
    if (height > GetMaxHeight()) {
      for (int i = GetMaxHeight(); i < height; i++) prev[i] = head_;
      // A reader that sees the new height before the node is linked just
      // falls through head_'s nullptr at the extra levels.
      max_height_.store(height, std::memory_order_relaxed);
    }

    x = NewNode(key, height);
    for (int i = 0; i < height; i++) {
      // The new node is not visible yet, so a relaxed store is enough; the
      // release-store into prev[i] publishes the whole node.
      x->NoBarrierSetNext(i, prev[i]->NoBarrierNext(i));
      prev[i]->SetNext(i, x);
    }
  }

  bool Contains(const Key& key) const {
    Node* x = FindGreaterOrEqual(key, nullptr);
    return x != nullptr && Equal(key, x->key);
  }

  class Iterator {
   public:
    explicit Iterator(const SkipList* list) : list_(list), node_(nullptr) {}

    bool Valid() const { return node_ != nullptr; }
    const Key& key() const {
      assert(Valid());
      return node_->key;
    }
    void Next() {
      assert(Valid());
      node_ = node_->Next(0);
    }
    void Prev() {
      assert(Valid());
      node_ = list_->FindLessThan(node_->key);
      if (node_ == list_->head_) node_ = nullptr;
    }
    void Seek(const Key& target) {
      node_ = list_->FindGreaterOrEqual(target, nullptr);
    }
    void SeekToFirst() { node_ = list_->head_->Next(0); }
    void SeekToLast() {
      node_ = list_->FindLast();
      if (node_ == list_->head_) node_ = nullptr;
    }

   private:
    const SkipList* list_;
    Node* node_;
  };

 private:
  static constexpr int kMaxHeight = 12;
  static constexpr int kBranching = 4;

  struct Node {
    explicit Node(const Key& k) : key(k) {}
    Key const key;

    Node* Next(int n) {
      assert(n >= 0);
      return slot(n)->load(std::memory_order_acquire);
    }
    void SetNext(int n, Node* x) {
      assert(n >= 0);
      slot(n)->store(x, std::memory_order_release);
    }
    Node* NoBarrierNext(int n) {
      return slot(n)->load(std::memory_order_relaxed);
    }
    void NoBarrierSetNext(int n, Node* x) {
      slot(n)->store(x, std::memory_order_relaxed);
    }

   private:
    // Trailing-array access through a decayed pointer (not next_[n]): the
    // node is allocated with its true height's worth of slots, and this
    // spelling keeps UBSan's array-bounds check off the flexible-array
    // idiom.
    std::atomic<Node*>* slot(int n) { return next_ + n; }

    // Flexible array: actual length equals the node's height.
    std::atomic<Node*> next_[1];
  };

  Node* NewNode(const Key& key, int height) {
    char* mem = arena_->AllocateAligned(
        sizeof(Node) + sizeof(std::atomic<Node*>) * (height - 1));
    return new (mem) Node(key);
  }

  int GetMaxHeight() const {
    return max_height_.load(std::memory_order_relaxed);
  }

  int RandomHeight() {
    int height = 1;
    while (height < kMaxHeight && rnd_.OneIn(kBranching)) {
      height++;
    }
    return height;
  }

  bool Equal(const Key& a, const Key& b) const { return compare_(a, b) == 0; }

  bool KeyIsAfterNode(const Key& key, Node* n) const {
    return (n != nullptr) && (compare_(n->key, key) < 0);
  }

  Node* FindGreaterOrEqual(const Key& key, Node** prev) const {
    Node* x = head_;
    int level = GetMaxHeight() - 1;
    while (true) {
      Node* next = x->Next(level);
      if (KeyIsAfterNode(key, next)) {
        x = next;
      } else {
        if (prev != nullptr) prev[level] = x;
        if (level == 0) return next;
        level--;
      }
    }
  }

  Node* FindLessThan(const Key& key) const {
    Node* x = head_;
    int level = GetMaxHeight() - 1;
    while (true) {
      Node* next = x->Next(level);
      if (next == nullptr || compare_(next->key, key) >= 0) {
        if (level == 0) return x;
        level--;
      } else {
        x = next;
      }
    }
  }

  Node* FindLast() const {
    Node* x = head_;
    int level = GetMaxHeight() - 1;
    while (true) {
      Node* next = x->Next(level);
      if (next == nullptr) {
        if (level == 0) return x;
        level--;
      } else {
        x = next;
      }
    }
  }

  Comparator const compare_;
  Arena* const arena_;
  Node* const head_;
  // Written only by Insert; read by readers, which tolerate a stale value.
  std::atomic<int> max_height_;
  Random rnd_;  // Only Insert draws from it.
};

}  // namespace talus

#endif  // TALUS_MEM_SKIPLIST_H_
