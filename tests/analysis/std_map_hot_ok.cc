// analyze-as: src/core/std_map_hot_ok.cc
// True negative for std-map-hot: outside src/cache and src/sim an ordered
// map is an ordinary choice.

namespace dnsttl::core {

std::size_t tally() {
  std::map<std::int64_t, int> by_time;
  return by_time.size();
}

}  // namespace dnsttl::core
