// analyze-as: src/core/pointer_print.cc
// True positives: printf pointer conversions print addresses, and ASLR
// moves those on every run, so the output stops being byte-identical.

namespace dnsttl::core {

void dump(const Zone* zone) {
  std::printf("zone at %p\n", static_cast<const void*>(zone));  // expect: pointer-print
  std::fprintf(stderr, "%-18p|\n", static_cast<const void*>(zone));  // expect: pointer-print
}

}  // namespace dnsttl::core
