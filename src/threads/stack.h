// Stack allocation for server threads.
//
// Stacks are recycled through a free list (a node parks finished server threads and reuses them,
// paper §2.2), and each stack carries a canary word at its low end so overflows are caught when
// the stack is recycled or the pool is destroyed.
#ifndef DFIL_THREADS_STACK_H_
#define DFIL_THREADS_STACK_H_

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

namespace dfil::threads {

inline constexpr size_t kDefaultStackBytes = 256 * 1024;

class Stack {
 public:
  explicit Stack(size_t bytes = kDefaultStackBytes);

  // Usable region (excludes the canary words at the low end).
  std::span<std::byte> usable();

  // True while the canary below the usable region is intact.
  bool CanaryIntact() const;

 private:
  size_t bytes_;
  std::unique_ptr<std::byte[]> memory_;
};

// LIFO free list of equally sized stacks.
class StackPool {
 public:
  explicit StackPool(size_t bytes = kDefaultStackBytes) : stack_bytes_(bytes) {}

  // Returns a stack, reusing a recycled one when available.
  std::unique_ptr<Stack> Acquire();

  // Returns a stack to the pool. CHECK-fails if its canary was smashed.
  void Release(std::unique_ptr<Stack> stack);

  size_t allocated() const { return allocated_; }
  size_t pooled() const { return free_.size(); }

 private:
  size_t stack_bytes_;
  size_t allocated_ = 0;
  std::vector<std::unique_ptr<Stack>> free_;
};

}  // namespace dfil::threads

#endif  // DFIL_THREADS_STACK_H_
