#include "crawl/passive_workload.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "check/audit.h"
#include "resolver/population.h"
#include "sim/timer_wheel.h"

namespace dnsttl::crawl {
namespace {

/// Structure-of-arrays demand pool: per-resolver arrival state in parallel
/// arrays, driven by a cohort timer wheel instead of one slab-heap node and
/// EventFn closure per pending arrival (docs/architecture.md §Workload
/// engine).  Each resolver holds exactly one pending "next query" entry;
/// the payload is its pool index.  Sequence numbers come from
/// Simulation::allocate_seq in the same order the object-per-actor code
/// consumed them, so outputs at historical scales are byte-identical.
class DemandPool final : public sim::CohortSource {
 public:
  DemandPool(sim::Simulation& simulation, sim::Rng gap_rng, sim::Time end)
      : simulation_(simulation),
        wheel_(simulation.now()),
        gap_rng_(gap_rng),
        end_(end) {}

  void add(resolver::RecursiveResolver* resolver, double mean_gap_seconds) {
    resolvers_.push_back(resolver);
    mean_gap_seconds_.push_back(mean_gap_seconds);
    counters_.push_back(0);
  }

  [[nodiscard]] std::size_t size() const noexcept { return resolvers_.size(); }
  [[nodiscard]] std::size_t client_queries() const noexcept {
    return client_queries_;
  }

  /// Draws the first arrival for every resolver in index order — the same
  /// stream order the per-actor closures used.
  void seed_arrivals() {
    live_ = size();
    for (std::size_t i = 0; i < size(); ++i) {
      schedule_next(i, simulation_.now());
    }
  }

  bool peek(sim::Time& at, std::uint64_t& seq) override {
    if (wheel_.empty()) {
      return false;
    }
    const sim::TimerWheel::Entry& head = wheel_.head();
    at = head.at;
    seq = head.seq;
    return true;
  }

  void fire_until(sim::Time limit_at, std::uint64_t limit_seq) override {
    while (!wheel_.empty()) {
      const sim::TimerWheel::Entry& head = wheel_.head();
      const bool before_limit =
          head.at < limit_at || (head.at == limit_at && head.seq < limit_seq);
      if (!before_limit || simulation_.heap_interrupts(head.at, head.seq)) {
        break;
      }
      const sim::TimerWheel::Entry entry = wheel_.pop_head();
      simulation_.advance_clock(entry.at);
      const auto index = static_cast<std::size_t>(entry.payload);
      DNSTTL_AUDIT_CHECK("crawl::DemandPool", index < size(),
                         "fired entry references an orphaned resolver index");
      dns::Name qname = dns::Name::from_string(
          std::string("u")
              .append(std::to_string(counters_[index]++))
              .append("-r")
              .append(std::to_string(index))
              .append(".nl"));
      resolvers_[index]->resolve(
          dns::Question{qname, dns::RRType::kA, dns::RClass::kIN}, entry.at);
      ++client_queries_;
      schedule_next(index, entry.at);
      if constexpr (check::kAuditEnabled) {
        if (++fires_since_audit_ >= kAuditInterval) {
          fires_since_audit_ = 0;
          validate();
        }
      }
    }
  }

  /// Deep audit: SoA arrays in step, wheel/pool pending accounting in
  /// agreement, and the wheel's own structural invariants.
  void validate() const {
    constexpr const char* kWhat = "crawl::DemandPool";
    DNSTTL_AUDIT_CHECK(kWhat,
                       mean_gap_seconds_.size() == resolvers_.size() &&
                           counters_.size() == resolvers_.size(),
                       "SoA arrays out of step");
    DNSTTL_AUDIT_CHECK(kWhat, wheel_.pending() == live_,
                       "wheel pending entries disagree with live-resolver "
                       "accounting");
    DNSTTL_AUDIT_CHECK(kWhat, live_ <= resolvers_.size(),
                       "more live arrivals than resolvers in the pool");
    wheel_.validate();
    check::count_audit();
  }

 private:
  static constexpr std::uint64_t kAuditInterval = 4096;

  void schedule_next(std::size_t index, sim::Time from) {
    const double gap = gap_rng_.exponential(mean_gap_seconds_[index]);
    const sim::Time due = from + sim::approx_seconds(gap);
    if (due >= end_) {
      --live_;  // retires on first arrival past the horizon
      return;
    }
    wheel_.schedule(due, simulation_.allocate_seq(), entry_payload(index));
  }

  static std::uint64_t entry_payload(std::size_t index) noexcept {
    return static_cast<std::uint64_t>(index);
  }

  sim::Simulation& simulation_;
  sim::TimerWheel wheel_;
  sim::Rng gap_rng_;
  sim::Time end_;

  std::vector<resolver::RecursiveResolver*> resolvers_;
  std::vector<double> mean_gap_seconds_;
  std::vector<std::uint64_t> counters_;

  std::size_t client_queries_ = 0;
  /// Resolvers whose next arrival is still inside the horizon; equals the
  /// wheel's pending count at every mutation boundary.
  std::size_t live_ = 0;
  std::uint64_t fires_since_audit_ = 0;
};

}  // namespace

PassiveReport run_passive_nl(core::World& world, const PassiveConfig& config) {
  const auto nl = dns::Name::from_string("nl");
  const auto dnsnl = dns::Name::from_string("dns.nl");

  // The .nl zone and the dns.nl zone that carries the nameserver addresses,
  // both served by all four servers (as SIDN does).
  auto nl_zone = world.create_zone("nl", dns::Ttl{3600});
  auto dnsnl_zone = world.create_zone("dns.nl", dns::Ttl{3600});

  std::vector<std::pair<dns::Name, net::Address>> servers;
  std::vector<std::string> observed;  // we watch 2 of the 4
  for (int i = 1; i <= 4; ++i) {
    auto ns_name = dnsnl.prepend("ns" + std::to_string(i));
    auto& server = world.add_server(ns_name.to_string(),
                                    net::Location{net::Region::kEU, 1.0});
    server.add_zone(nl_zone);
    server.add_zone(dnsnl_zone);
    if (i == 1 || i == 3) {
      server.set_logging(true);
      observed.push_back(ns_name.to_string());
    }
    auto address = world.address_of(ns_name.to_string());
    servers.emplace_back(ns_name, address);

    nl_zone->add(dns::make_ns(nl, dns::Ttl{3600}, ns_name));
    dnsnl_zone->add(dns::make_ns(dnsnl, dns::Ttl{3600}, ns_name));
    // Child copy of the address: the 1-hour TTL the paper contrasts with
    // the root's 2-day glue.
    dnsnl_zone->add(dns::make_a(ns_name, config.child_a_ttl, address));
  }
  // dns.nl is a delegation inside .nl served by the same hosts.
  for (const auto& [ns_name, address] : servers) {
    nl_zone->add(dns::make_ns(dnsnl, dns::Ttl{3600}, ns_name));
  }
  // Root-side delegation with the 2-day glue.
  world.delegate(*world.root_zone(), nl, servers, config.parent_glue_ttl,
                 config.parent_glue_ttl);

  // The resolver population generating demand.
  sim::Rng rng = world.rng().fork(0x9a551e);
  auto population = resolver::ResolverPopulation::build(
      world.network(), world.hints(), world.root_zone(),
      resolver::paper_profiles(), config.resolver_count,
      resolver::atlas_region_weights(), rng);

  PassiveReport report;

  // Poisson demand per resolver, rate Pareto-distributed across resolvers,
  // held in a SoA pool driven by the cohort timer wheel: one pending
  // arrival per resolver, no heap node or closure per event.
  auto& simulation = world.simulation();
  DemandPool pool(simulation, rng.fork(0xdeaadd), sim::at(config.duration));
  for (auto& member : population.members()) {
    double per_day = std::min(config.demand_cap_per_day,
                              rng.pareto(config.demand_xm_per_day,
                                         config.demand_alpha));
    pool.add(member.resolver.get(), 86400.0 / per_day);
  }

  simulation.attach_source(&pool);
  const std::size_t audit_hook =
      simulation.add_audit_hook([&pool] { pool.validate(); });
  pool.seed_arrivals();
  simulation.run_until(sim::at(config.duration));
  simulation.remove_audit_hook(audit_hook);
  simulation.detach_source(&pool);
  report.client_queries = pool.client_queries();

  // ENTRADA-style analysis over the two observed servers: group queries
  // for the four nameserver address records by (source, qname).
  std::set<std::string> ns_names;
  for (const auto& [ns_name, address] : servers) {
    ns_names.insert(ns_name.to_string());
  }

  std::map<std::pair<std::uint32_t, std::string>, std::vector<sim::Time>>
      group_times;
  std::set<std::uint32_t> sources;
  for (const auto& ident : observed) {
    const auto& log = world.server(ident).log();
    for (const auto& entry : log.entries()) {
      ++report.logged_queries;
      sources.insert(entry.client.value());
      std::string qname = entry.qname.to_string();
      if ((entry.qtype == dns::RRType::kA ||
           entry.qtype == dns::RRType::kAAAA) &&
          ns_names.contains(qname)) {
        group_times[{entry.client.value(), qname}].push_back(entry.time);
      }
    }
  }
  report.unique_resolvers = sources.size();

  std::set<std::uint32_t> single_ips;
  std::set<std::uint32_t> multi_ips;
  for (auto& [key, times] : group_times) {
    std::sort(times.begin(), times.end());
    ++report.groups;
    report.queries_per_group.add(static_cast<double>(times.size()));

    // Figure 3's "filtered" curve: drop retransmission-like duplicates
    // (interarrival <= 2 s).
    std::size_t filtered = 1;
    sim::Duration min_gap{-1};
    for (std::size_t i = 1; i < times.size(); ++i) {
      sim::Duration gap = times[i] - times[i - 1];
      if (gap > 2 * sim::kSecond) {
        ++filtered;
      }
      if (min_gap.count() < 0 || gap < min_gap) {
        min_gap = gap;
      }
    }
    report.queries_per_group_filtered.add(static_cast<double>(filtered));

    if (times.size() == 1) {
      ++report.single_query_groups;
      single_ips.insert(key.first);
    } else {
      multi_ips.insert(key.first);
      report.min_interarrival_hours.add(sim::to_seconds(min_gap) / 3600.0);
    }
  }

  if (report.groups > 0) {
    report.single_fraction = static_cast<double>(report.single_query_groups) /
                             static_cast<double>(report.groups);
    report.multi_fraction = 1.0 - report.single_fraction;
  }
  if (!single_ips.empty()) {
    std::size_t also_multi = 0;
    for (std::uint32_t ip : single_ips) {
      if (multi_ips.contains(ip)) ++also_multi;
    }
    report.single_ips_also_multi =
        static_cast<double>(also_multi) / static_cast<double>(single_ips.size());
  }
  return report;
}

}  // namespace dnsttl::crawl
