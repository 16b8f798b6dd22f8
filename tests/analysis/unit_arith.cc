// analyze-as: src/core/unit_arith.cc
// True positives: arithmetic between the raw escapes of two different
// units.  Both sides are plain integers by then, so the compiler accepts
// seconds plus microseconds without a word.

namespace dnsttl::core {

struct Budget {
  dns::Ttl max_ttl;
  sim::Duration slack;
};

std::int64_t deadline(const Budget& cfg, sim::Duration elapsed) {
  return cfg.max_ttl.value() + elapsed.count();  // expect: unit-arith
}

std::int64_t remaining(dns::Ttl ttl, sim::Time now) {
  return ttl.value() - now.ticks();  // expect: unit-arith
}

std::int64_t widened(dns::Ttl ttl, sim::Duration rtt) {
  return static_cast<std::int64_t>(ttl.value()) * rtt.count();  // expect: unit-arith
}

std::int64_t through_pointer(const Budget* cfg) {
  return (cfg->slack.count()) % cfg->max_ttl.value();  // expect: unit-arith
}

}  // namespace dnsttl::core
