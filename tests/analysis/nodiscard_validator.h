// analyze-as: src/check/validators.h
// True positives: a check:: validator whose result can be dropped silently
// turns the audit off without anyone noticing.

namespace dnsttl::check {

bool validate_cache(const cache::Cache& cache);  // expect: nodiscard-validator

std::size_t check_invariants(const sim::Simulation& sim);  // expect: nodiscard-validator

inline const char* validate_name(std::string_view name) {  // expect: nodiscard-validator
  return name.empty() ? "empty" : nullptr;
}

struct Auditor {
  bool validate() const;  // expect: nodiscard-validator
};

}  // namespace dnsttl::check
