// Fixture: triggers msropm-lint rule `hot-path-alloc` and nothing else.
// Staged at src/sat/ — WatchLists::push and WatchLists::grow are configured
// hot functions: push grows an unreserved overflow vector, and grow reaches
// the allocator through std::allocator<T>::allocate.
#include <cstdint>
#include <memory>
#include <vector>

namespace msropm::sat {

struct Watcher {
  std::uint32_t cref;
  std::uint32_t blocker;
};

class WatchLists {
 public:
  void push(std::uint32_t i, Watcher w) {
    overflow_.push_back(w);  // BAD: unreserved growth on a hot path
    (void)i;
  }

 private:
  void grow(std::uint32_t cap);
  std::vector<Watcher> overflow_;
  Watcher* data_ = nullptr;
};

void WatchLists::grow(std::uint32_t cap) {
  data_ = std::allocator<Watcher>().allocate(cap);  // BAD: allocates
}

}  // namespace msropm::sat
