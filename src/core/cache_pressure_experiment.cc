#include "core/cache_pressure_experiment.h"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "dns/name.h"
#include "dns/rr.h"
#include "par/pool.h"
#include "sim/rng.h"

namespace dnsttl::core {

namespace {

/// RNG stream id for the demand generator; every grid point forks the same
/// stream from the same seed, so all points see one identical workload and
/// differ only in cache configuration.
constexpr std::uint64_t kDemandStream = 0x6361'6368'6500'0001ULL;

/// One synthetic client query.
struct Demand {
  std::size_t idx = 0;       ///< catalog index of the qname
  bool negative = false;     ///< AAAA probe of a name with no AAAA data
  sim::Time at{};
};

/// Deterministic Pareto-popular demand generator with exponential
/// inter-arrival gaps.  The catalog index distribution is heavy-headed:
/// index 0 is the hottest name, the tail is cold — the shape that makes
/// LRU/LFU behave differently.
class DemandStream {
 public:
  DemandStream(std::uint64_t seed, std::size_t names, double alpha,
               double negative_share, sim::Duration mean_gap)
      : rng_(sim::Rng(seed).fork(kDemandStream)),
        names_(names),
        alpha_(alpha),
        negative_share_(negative_share),
        mean_gap_us_(static_cast<double>(mean_gap.count())) {}

  Demand next() {
    const auto gap = static_cast<std::int64_t>(rng_.exponential(mean_gap_us_));
    clock_ = clock_ + sim::Duration{std::max<std::int64_t>(1, gap)};
    const double rank = rng_.pareto(1.0, alpha_);
    const double capped = std::min(rank, static_cast<double>(names_));
    Demand d;
    d.idx = std::min(names_ - 1, static_cast<std::size_t>(capped - 1.0));
    d.negative = rng_.chance(negative_share_);
    d.at = clock_;
    return d;
  }

 private:
  sim::Rng rng_;
  std::size_t names_;
  double alpha_;
  double negative_share_;
  double mean_gap_us_;
  sim::Time clock_{};
};

std::vector<dns::Name> build_catalog(std::size_t names) {
  std::vector<dns::Name> catalog;
  catalog.reserve(names);
  for (std::size_t i = 0; i < names; ++i) {
    catalog.push_back(
        dns::Name::from_string(
            std::string("n").append(std::to_string(i)).append(".example")));
  }
  return catalog;
}

dns::RRset make_answer(const dns::Name& name, dns::Ttl ttl, std::size_t idx) {
  dns::RRset set(name, dns::RClass::kIN, ttl);
  set.add(dns::ARdata{dns::Ipv4(10, static_cast<std::uint8_t>(idx >> 16),
                                static_cast<std::uint8_t>(idx >> 8),
                                static_cast<std::uint8_t>(idx))});
  return set;
}

/// Drives @p cache with @p count queries from @p demand; counts hits and
/// misses (a miss inserts fresh data, modeling one authoritative fetch).
struct DriveTally {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t negative_hits = 0;
  std::uint64_t negative_misses = 0;
};

DriveTally drive(cache::Cache& cache, DemandStream& demand,
                 const std::vector<dns::Name>& catalog, dns::Ttl ttl,
                 std::uint64_t count, std::uint64_t purge_every) {
  DriveTally tally;
  for (std::uint64_t q = 0; q < count; ++q) {
    const Demand d = demand.next();
    if (purge_every != 0 && (q + 1) % purge_every == 0) {
      cache.purge_expired(d.at);
    }
    const dns::Name& name = catalog[d.idx];
    if (d.negative) {
      if (cache.lookup_negative(name, dns::RRType::kAAAA, d.at)) {
        ++tally.negative_hits;
      } else {
        ++tally.negative_misses;
        cache.insert_negative(name, dns::RRType::kAAAA,
                              dns::Rcode::kNXDomain, ttl, d.at);
      }
    } else {
      if (cache.lookup(name, dns::RRType::kA, d.at)) {
        ++tally.hits;
      } else {
        ++tally.misses;
        cache.insert(make_answer(name, ttl, d.idx),
                     cache::Credibility::kAuthAnswer, d.at);
      }
    }
  }
  return tally;
}

cache::Cache::Config make_cache_config(std::size_t max_entries,
                                       cache::EvictionPolicy policy) {
  cache::Cache::Config config;
  config.max_ttl = dns::kTtl1Week;  // no clamp: the sweep sets record TTLs
  config.max_entries = max_entries;
  config.policy = policy;
  return config;
}

}  // namespace

CachePressurePoint run_cache_pressure_point(const CachePressureConfig& config,
                                            dns::Ttl ttl,
                                            std::size_t max_entries,
                                            cache::EvictionPolicy policy) {
  cache::Cache cache(make_cache_config(max_entries, policy));
  const std::vector<dns::Name> catalog = build_catalog(config.names);
  DemandStream demand(config.seed, config.names, config.alpha,
                      config.negative_share, config.mean_gap);

  CachePressurePoint point;
  point.ttl = ttl;
  point.max_entries = max_entries;
  point.policy = policy;
  point.queries = config.queries;

  const DriveTally tally = drive(cache, demand, catalog, ttl, config.queries,
                                 config.purge_every);
  point.hits = tally.hits;
  point.misses = tally.misses;
  point.negative_hits = tally.negative_hits;
  point.negative_misses = tally.negative_misses;

  const cache::Cache::Stats& stats = cache.stats();
  point.evictions = stats.capacity_evictions;
  point.evicted_positive = stats.evicted_positive;
  point.evicted_negative = stats.evicted_negative;
  point.expired = stats.expired;
  point.high_water = stats.high_water;
  point.resident =
      static_cast<std::uint64_t>(cache.size() + cache.negative_size());
  return point;
}

CacheRestartPoint run_cache_restart_point(const CachePressureConfig& config,
                                          cache::EvictionPolicy policy) {
  // Longest TTL, smallest capacity: the restart question is only
  // interesting when eviction was active while the cache warmed.
  const dns::Ttl ttl = config.ttls.back();
  const std::size_t max_entries = config.capacities.front();
  const std::vector<dns::Name> catalog = build_catalog(config.names);
  const cache::Cache::Config cache_config =
      make_cache_config(max_entries, policy);

  // Warm a cache, then freeze it: the restart image.
  cache::Cache warmed(cache_config);
  DemandStream demand(config.seed, config.names, config.alpha,
                      config.negative_share, config.mean_gap);
  drive(warmed, demand, catalog, ttl, config.warm_queries,
        config.purge_every);
  const std::vector<std::uint8_t> image = warmed.snapshot();

  // Pre-generate the measurement stream (continuing the warmup clock) so
  // warm and cold replay byte-identical demand.
  std::vector<Demand> measured;
  measured.reserve(config.warm_queries);
  for (std::uint64_t q = 0; q < config.warm_queries; ++q) {
    measured.push_back(demand.next());
  }

  const auto replay = [&](cache::Cache& cache) {
    DriveTally tally;
    for (const Demand& d : measured) {
      const dns::Name& name = catalog[d.idx];
      if (d.negative) {
        if (cache.lookup_negative(name, dns::RRType::kAAAA, d.at)) {
          ++tally.negative_hits;
        } else {
          ++tally.negative_misses;
          cache.insert_negative(name, dns::RRType::kAAAA,
                                dns::Rcode::kNXDomain, ttl, d.at);
        }
      } else {
        if (cache.lookup(name, dns::RRType::kA, d.at)) {
          ++tally.hits;
        } else {
          ++tally.misses;
          cache.insert(make_answer(name, ttl, d.idx),
                       cache::Credibility::kAuthAnswer, d.at);
        }
      }
    }
    return tally;
  };

  CacheRestartPoint point;
  point.policy = policy;
  point.snapshot_bytes = static_cast<std::uint64_t>(image.size());

  cache::Cache warm;
  warm.restore(image);
  point.restored =
      static_cast<std::uint64_t>(warm.size() + warm.negative_size());
  const DriveTally warm_tally = replay(warm);
  point.warm_hits = warm_tally.hits + warm_tally.negative_hits;
  point.warm_auth = warm_tally.misses + warm_tally.negative_misses;

  cache::Cache cold(cache_config);
  const DriveTally cold_tally = replay(cold);
  point.cold_hits = cold_tally.hits + cold_tally.negative_hits;
  point.cold_auth = cold_tally.misses + cold_tally.negative_misses;
  return point;
}

CachePressureResult run_cache_pressure_experiment(
    const CachePressureConfig& config, std::size_t jobs) {
  struct GridPoint {
    dns::Ttl ttl;
    std::size_t max_entries;
    cache::EvictionPolicy policy;
  };
  std::vector<GridPoint> grid;
  for (cache::EvictionPolicy policy : config.policies) {
    for (std::size_t max_entries : config.capacities) {
      for (dns::Ttl ttl : config.ttls) {
        grid.push_back(GridPoint{ttl, max_entries, policy});
      }
    }
  }

  CachePressureResult result;
  result.config = config;
  result.points = par::map_shards(grid.size(), jobs, [&](std::size_t i) {
    return run_cache_pressure_point(config, grid[i].ttl, grid[i].max_entries,
                                    grid[i].policy);
  });
  result.restarts =
      par::map_shards(config.policies.size(), jobs, [&](std::size_t i) {
        return run_cache_restart_point(config, config.policies[i]);
      });
  return result;
}

std::string CachePressureResult::render() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof line,
                "cache pressure: catalog=%llu queries=%llu purge_every=%llu "
                "seed=%llu\n",
                static_cast<unsigned long long>(config.names),
                static_cast<unsigned long long>(config.queries),
                static_cast<unsigned long long>(config.purge_every),
                static_cast<unsigned long long>(config.seed));
  out += line;
  std::snprintf(line, sizeof line,
                "%6s %6s %10s %8s %8s %8s %8s %8s %8s %7s %7s %8s %8s\n",
                "ttl", "cap", "policy", "queries", "hits", "miss", "neg_hit",
                "neg_mis", "evict", "ev_pos", "ev_neg", "hiwater", "resid");
  out += line;
  for (const CachePressurePoint& p : points) {
    const auto policy = cache::to_string(p.policy);
    std::snprintf(line, sizeof line,
                  "%6u %6llu %10.*s %8llu %8llu %8llu %8llu %8llu %8llu "
                  "%7llu %7llu %8llu %8llu\n",
                  p.ttl.value(),
                  static_cast<unsigned long long>(p.max_entries),
                  static_cast<int>(policy.size()), policy.data(),
                  static_cast<unsigned long long>(p.queries),
                  static_cast<unsigned long long>(p.hits),
                  static_cast<unsigned long long>(p.misses),
                  static_cast<unsigned long long>(p.negative_hits),
                  static_cast<unsigned long long>(p.negative_misses),
                  static_cast<unsigned long long>(p.evictions),
                  static_cast<unsigned long long>(p.evicted_positive),
                  static_cast<unsigned long long>(p.evicted_negative),
                  static_cast<unsigned long long>(p.high_water),
                  static_cast<unsigned long long>(p.resident));
    out += line;
  }
  if (!restarts.empty()) {
    const dns::Ttl ttl = config.ttls.back();
    const std::size_t cap = config.capacities.front();
    std::snprintf(line, sizeof line,
                  "warm vs cold restart: ttl=%u cap=%llu warmup=%llu "
                  "measured=%llu\n",
                  ttl.value(), static_cast<unsigned long long>(cap),
                  static_cast<unsigned long long>(config.warm_queries),
                  static_cast<unsigned long long>(config.warm_queries));
    out += line;
    std::snprintf(line, sizeof line, "%10s %10s %9s %9s %9s %9s %10s\n",
                  "policy", "snap_byte", "restored", "warm_hit", "warm_auth",
                  "cold_hit", "cold_auth");
    out += line;
    for (const CacheRestartPoint& p : restarts) {
      const auto policy = cache::to_string(p.policy);
      std::snprintf(line, sizeof line,
                    "%10.*s %10llu %9llu %9llu %9llu %9llu %10llu\n",
                    static_cast<int>(policy.size()), policy.data(),
                    static_cast<unsigned long long>(p.snapshot_bytes),
                    static_cast<unsigned long long>(p.restored),
                    static_cast<unsigned long long>(p.warm_hits),
                    static_cast<unsigned long long>(p.warm_auth),
                    static_cast<unsigned long long>(p.cold_hits),
                    static_cast<unsigned long long>(p.cold_auth));
      out += line;
    }
  }
  return out;
}

}  // namespace dnsttl::core
