// analyze-as: src/sim/std_map_hot.cc
// True positives: std::map in the sim/cache hot paths, which use the
// open-addressing table and the slab instead.  The include, the comment
// and the unordered container below stay clean.
#include <map>

namespace dnsttl::sim {

std::size_t pending() {
  std::map<std::int64_t, int> by_time;  // expect: std-map-hot
  std::multimap<std::int64_t, int> ties;  // expect: std-map-hot
  std::unordered_map<int, int> slots;  // not a std::map<int, int>
  return by_time.size() + ties.size() + slots.size();
}

}  // namespace dnsttl::sim
