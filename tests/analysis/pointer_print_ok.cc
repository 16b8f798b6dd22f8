// analyze-as: src/core/pointer_print_ok.cc
// True negatives for pointer-print: an escaped percent, other conversions,
// and a %p that sits in a comment rather than a string literal.

namespace dnsttl::core {

void dump(const Zone& zone, std::size_t probes) {
  std::printf("100%%p of queries\n");
  std::printf("%s: %zu probes\n", zone.name().c_str(), probes);
  // std::printf("%p\n", &zone) would print an address.
}

}  // namespace dnsttl::core
