// analyze-as: src/check/validators_ok.h
// True negatives for nodiscard-validator: the attribute present, a void
// validator (nothing to drop), calls rather than declarations, and
// validators outside the check namespace.

namespace dnsttl::check {

[[nodiscard]] bool validate_cache(const cache::Cache& cache);

[[nodiscard]] std::size_t check_invariants(const sim::Simulation& sim);

void check_all();

inline const bool kStartupOk = check_invariants(simulation());

inline bool run(const cache::Cache& cache) { return validate_cache(cache); }

}  // namespace dnsttl::check

namespace dnsttl::cache {

bool validate_entry(const Entry& entry);

}  // namespace dnsttl::cache
