// analyze-as: src/core/raw_new.cc
// True positives: raw new/delete hand ownership to whoever remembers to
// free; containers and smart pointers own memory in this codebase.

namespace dnsttl::core {

struct Node {
  int value = 0;
};

Node* make() {
  return new Node{};  // expect: raw-new
}

void drop(Node* node) {
  delete node;  // expect: raw-new
}

void drop_all(Node* nodes) {
  delete[] nodes;  // expect: raw-new
}

}  // namespace dnsttl::core
