// analyze-as: src/core/unit_arith_ok.cc
// True negatives for unit-arith: same-unit escapes, explicit conversions,
// receivers with no unit-typed declaration in view, and calls that only
// share an escape's name.

namespace dnsttl::core {

std::int64_t same_unit(sim::Duration a, sim::Duration b) {
  return a.count() + b.count();
}

std::int64_t converted(dns::Ttl ttl, sim::Duration elapsed) {
  return sim::seconds(ttl.value()).count() + elapsed.count();
}

std::int64_t scaled(dns::Ttl ttl, sim::Duration elapsed) {
  // The `/` binds first: seconds plus (microseconds / 10^6) seconds.
  return ttl.value() + elapsed.count() / 1'000'000;
}

std::int64_t unknown_receivers(const Stats& stats, const Window& window) {
  return stats.hits.value() + window.span.count();
}

std::size_t not_escapes(const std::vector<int>& v,
                        const std::map<int, int>& m) {
  return v.size() + m.count(3);
}

}  // namespace dnsttl::core
