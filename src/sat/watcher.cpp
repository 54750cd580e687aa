#include "msropm/sat/watcher.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>

namespace msropm::sat {

void WatchLists::reset(std::size_t num_lists) {
  release();
  lists_.assign(num_lists, WatchList{});
}

void WatchLists::reserve() {
  std::size_t total = 0;
  for (const WatchList& list : lists_) total += list.cap;
  if (total == 0) return;
  block_ = std::allocator<Watcher>().allocate(total);
  block_size_ = total;
  Watcher* next = block_;
  for (WatchList& list : lists_) {
    // An empty list keeps a null data pointer, so "data outside the block"
    // always means a heap buffer this table must free.
    list.data = list.cap == 0 ? nullptr : next;
    next += list.cap;
  }
}

void WatchLists::grow(WatchList& list) {
  if (list.cap > std::numeric_limits<std::uint32_t>::max() / 2) {
    throw std::length_error("WatchLists: watch list too long");
  }
  const std::uint32_t cap = std::max<std::uint32_t>(2 * list.cap, 4);
  // msropm-lint: allow(hot-path-alloc) amortized doubling: only learnt watchers outgrow an ingest slice, and each list reallocates O(log length) times
  Watcher* data = std::allocator<Watcher>().allocate(cap);
  std::uninitialized_copy_n(list.data, list.size, data);
  if (list.data != nullptr && !in_block(list.data)) {
    std::allocator<Watcher>().deallocate(list.data, list.cap);
  }
  list.data = data;
  list.cap = cap;
}

bool WatchLists::in_block(const Watcher* p) const noexcept {
  return std::greater_equal<>()(p, block_) &&
         std::less<>()(p, block_ + block_size_);
}

void WatchLists::release() noexcept {
  for (WatchList& list : lists_) {
    if (list.data != nullptr && !in_block(list.data)) {
      std::allocator<Watcher>().deallocate(list.data, list.cap);
    }
  }
  if (block_ != nullptr) std::allocator<Watcher>().deallocate(block_, block_size_);
  block_ = nullptr;
  block_size_ = 0;
  lists_.clear();
}

}  // namespace msropm::sat
