// analyze-as: src/core/raw_new_ok.cc
// True negatives for raw-new: placement new into storage something else
// owns, deleted functions, operator new/delete declarations, and the words
// in comments and string literals.

namespace dnsttl::core {

struct Slot {
  Slot() = default;
  Slot(const Slot&) = delete;
  Slot& operator=(const Slot&) = delete;
  static void* operator new(std::size_t size);
  static void operator delete(void* p);
};

void construct(void* buf) {
  ::new (buf) int(7);
}

std::unique_ptr<int> owned() { return std::make_unique<int>(9); }

// The old code called new Node and later delete node by hand.
constexpr std::string_view kHistory = "new Node, then delete node";

}  // namespace dnsttl::core
