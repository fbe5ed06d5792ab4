// Intrusive doubly-linked list.
//
// The runtime's hot queues (ready queues, per-page waiter queues, retransmission lists) are
// intrusive so that linking and unlinking a server thread or request never allocates. An object
// may be on at most one list per ListNode member it embeds.
#ifndef DFIL_COMMON_INTRUSIVE_LIST_H_
#define DFIL_COMMON_INTRUSIVE_LIST_H_

#include <cstddef>

#include "src/common/check.h"

namespace dfil {

// Embed one of these (via a named member) in any type that participates in an IntrusiveList.
struct ListNode {
  ListNode* prev = nullptr;
  ListNode* next = nullptr;

  bool linked() const { return prev != nullptr; }
};

// A circular doubly-linked list of T, where `Member` points at the ListNode embedded in T.
// The list does not own its elements.
template <typename T, ListNode T::* Member>
class IntrusiveList {
 public:
  IntrusiveList() {
    head_.prev = &head_;
    head_.next = &head_;
  }
  IntrusiveList(const IntrusiveList&) = delete;
  IntrusiveList& operator=(const IntrusiveList&) = delete;

  bool empty() const { return head_.next == &head_; }
  size_t size() const { return size_; }

  void PushBack(T* item) { InsertBefore(&head_, item); }
  void PushFront(T* item) { InsertBefore(head_.next, item); }

  // Removes and returns the first element, or nullptr if empty.
  T* PopFront() {
    if (empty()) {
      return nullptr;
    }
    T* item = FromNode(head_.next);
    Remove(item);
    return item;
  }

  // Unlinks `item`, which must currently be on this list.
  void Remove(T* item) {
    ListNode* node = &(item->*Member);
    DFIL_DCHECK(node->linked());
    node->prev->next = node->next;
    node->next->prev = node->prev;
    node->prev = nullptr;
    node->next = nullptr;
    --size_;
  }

 private:
  static T* FromNode(ListNode* node) {
    // Recover the containing object from the embedded node.
    const auto offset = reinterpret_cast<size_t>(&(static_cast<T*>(nullptr)->*Member));
    return reinterpret_cast<T*>(reinterpret_cast<char*>(node) - offset);
  }

  void InsertBefore(ListNode* pos, T* item) {
    ListNode* node = &(item->*Member);
    DFIL_DCHECK(!node->linked());
    node->prev = pos->prev;
    node->next = pos;
    pos->prev->next = node;
    pos->prev = node;
    ++size_;
  }

  ListNode head_;
  size_t size_ = 0;
};

}  // namespace dfil

#endif  // DFIL_COMMON_INTRUSIVE_LIST_H_
