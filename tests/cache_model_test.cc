// Differential test for the open-addressing cache index and its lazy expiry
// heap: a randomized trace of insert / lookup / evict / negative / purge
// operations runs against both cache::Cache and a deliberately naive
// std::map-based oracle that mirrors the documented semantics (the data
// structure the cache used historically).  Any divergence in hit results,
// remaining TTLs, sizes, purge counts or statistics is a bug in the table,
// the heap, or the Name hashing underneath them.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cache/cache.h"
#include "dns/name.h"
#include "dns/rr.h"
#include "dns/types.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace dnsttl::cache {
namespace {

struct ModelEntry {
  sim::Time expires{};
  dns::Ttl original_ttl{};
  dns::Ttl stored_ttl{};  // after clamping
  Credibility credibility = Credibility::kGlue;
};

struct ModelNegative {
  dns::Rcode rcode = dns::Rcode::kNXDomain;
  sim::Time expires{};
};

/// The oracle: ordered map keyed on canonical name text + type, executing
/// the RFC 2181 credibility rule, TTL clamping and expiry arithmetic in the
/// most straightforward way possible.
class CacheOracle {
 public:
  explicit CacheOracle(const Cache::Config& config) : config_(config) {}

  using Key = std::pair<std::string, dns::RRType>;

  bool insert(const dns::Name& name, dns::RRType type, dns::Ttl ttl,
              Credibility credibility, sim::Time now) {
    Key key{name.to_string(), type};
    auto it = entries_.find(key);
    if (it != entries_.end() && it->second.expires > now) {
      int have = static_cast<int>(it->second.credibility);
      int incoming = static_cast<int>(credibility);
      if (have > incoming) {
        return false;
      }
    }
    ModelEntry entry;
    entry.original_ttl = ttl;
    entry.stored_ttl = std::clamp(ttl, config_.min_ttl, config_.max_ttl);
    entry.expires =
        now + sim::seconds(entry.stored_ttl.value());
    entry.credibility = credibility;
    entries_[key] = entry;
    negatives_.erase(key);
    return true;
  }

  void insert_negative(const dns::Name& name, dns::RRType type,
                       dns::Rcode rcode, dns::Ttl ttl, sim::Time now) {
    dns::Ttl effective = std::clamp(ttl, config_.min_ttl, config_.max_ttl);
    negatives_[{name.to_string(), type}] = ModelNegative{
        rcode, now + sim::seconds(effective.value())};
  }

  /// Returns remaining TTL on a live hit, nullopt on a miss.
  std::optional<dns::Ttl> lookup(const dns::Name& name, dns::RRType type,
                                 sim::Time now) const {
    auto it = entries_.find({name.to_string(), type});
    if (it == entries_.end() || it->second.expires <= now) {
      return std::nullopt;
    }
    return dns::Ttl::of_seconds(static_cast<std::int64_t>((it->second.expires - now) / sim::kSecond));
  }

  std::optional<dns::Ttl> lookup_negative(const dns::Name& name,
                                          dns::RRType type,
                                          sim::Time now) const {
    auto it = negatives_.find({name.to_string(), type});
    if (it == negatives_.end() || it->second.expires <= now) {
      return std::nullopt;
    }
    return dns::Ttl::of_seconds(static_cast<std::int64_t>((it->second.expires - now) / sim::kSecond));
  }

  bool evict(const dns::Name& name, dns::RRType type) {
    return entries_.erase({name.to_string(), type}) > 0;
  }

  std::size_t purge_expired(sim::Time now) {
    sim::Duration grace =
        config_.serve_stale ? config_.stale_window : sim::Duration{};
    std::size_t removed = 0;
    for (auto it = entries_.begin(); it != entries_.end();) {
      if (it->second.expires + grace <= now) {
        it = entries_.erase(it);
        ++removed;
      } else {
        ++it;
      }
    }
    for (auto it = negatives_.begin(); it != negatives_.end();) {
      if (it->second.expires <= now) {
        it = negatives_.erase(it);
        ++removed;
      } else {
        ++it;
      }
    }
    return removed;
  }

  std::size_t size() const { return entries_.size(); }

 private:
  Cache::Config config_;
  std::map<Key, ModelEntry> entries_;
  std::map<Key, ModelNegative> negatives_;
};

dns::RRset make_rrset(const dns::Name& name, dns::Ttl ttl,
                      std::uint32_t value) {
  dns::RRset rrset(name, dns::RClass::kIN, ttl);
  rrset.add(dns::ARdata{dns::Ipv4(value)});
  return rrset;
}

/// Runs one randomized trace against both implementations.
void run_trace(const Cache::Config& config, std::uint64_t seed,
               bool exercise_credibility) {
  Cache cache(config);
  CacheOracle oracle(config);
  sim::Rng rng(seed);

  // A pool small enough that keys collide across insert/expiry cycles but
  // large enough to force table growth and probe chains.
  std::vector<dns::Name> names;
  for (int i = 0; i < 48; ++i) {
    names.push_back(dns::Name::from_string(
        std::string("m")
            .append(std::to_string(i))
            .append(".model")
            .append(std::to_string(i % 5))
            .append(".example")));
  }

  sim::Time now{};
  std::uint32_t value = 0;
  for (int op = 0; op < 4000; ++op) {
    now += sim::seconds(static_cast<std::int64_t>(rng.uniform_int(0, 3)));
    const dns::Name& name = names[rng.uniform_int(0, names.size() - 1)];
    double action = rng.uniform();
    if (action < 0.45) {
      auto ttl = dns::Ttl::of_seconds(static_cast<std::int64_t>(rng.uniform_int(0, 40)));
      Credibility credibility =
          exercise_credibility && rng.chance(0.5) ? Credibility::kGlue
                                                  : Credibility::kAuthAnswer;
      bool stored = cache.insert(make_rrset(name, ttl, value), credibility,
                                 now);
      bool model_stored =
          oracle.insert(name, dns::RRType::kA, ttl, credibility, now);
      ASSERT_EQ(stored, model_stored)
          << "insert divergence at op " << op << " name " << name.to_string();
      ++value;
    } else if (action < 0.75) {
      auto hit = cache.lookup(name, dns::RRType::kA, now);
      auto model = oracle.lookup(name, dns::RRType::kA, now);
      ASSERT_EQ(hit.has_value(), model.has_value())
          << "lookup divergence at op " << op << " name " << name.to_string();
      if (hit) {
        ASSERT_EQ(hit->rrset.ttl(), *model) << "TTL divergence at op " << op;
      }
    } else if (action < 0.82) {
      ASSERT_EQ(cache.evict(name, dns::RRType::kA),
                oracle.evict(name, dns::RRType::kA))
          << "evict divergence at op " << op;
    } else if (action < 0.90) {
      auto ttl = dns::Ttl::of_seconds(static_cast<std::int64_t>(rng.uniform_int(1, 20)));
      cache.insert_negative(name, dns::RRType::kA, dns::Rcode::kNXDomain, ttl,
                            now);
      oracle.insert_negative(name, dns::RRType::kA, dns::Rcode::kNXDomain,
                             ttl, now);
    } else if (action < 0.96) {
      auto hit = cache.lookup_negative(name, dns::RRType::kA, now);
      auto model = oracle.lookup_negative(name, dns::RRType::kA, now);
      ASSERT_EQ(hit.has_value(), model.has_value())
          << "negative lookup divergence at op " << op;
      if (hit) {
        ASSERT_EQ(hit->remaining, *model)
            << "negative TTL divergence at op " << op;
      }
    } else {
      ASSERT_EQ(cache.purge_expired(now), oracle.purge_expired(now))
          << "purge count divergence at op " << op << " now "
          << now.since_epoch().count();
    }
    ASSERT_EQ(cache.size(), oracle.size()) << "size divergence at op " << op;
  }
}

TEST(CacheModelTest, RandomizedTracesMatchMapOracle) {
  Cache::Config config;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    run_trace(config, seed, /*exercise_credibility=*/false);
  }
}

TEST(CacheModelTest, CredibilityRefusalsMatchMapOracle) {
  Cache::Config config;
  for (std::uint64_t seed = 100; seed <= 104; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    run_trace(config, seed, /*exercise_credibility=*/true);
  }
}

TEST(CacheModelTest, ServeStaleGraceMatchesMapOracle) {
  Cache::Config config;
  config.serve_stale = true;
  config.stale_window = 20 * sim::kSecond;
  for (std::uint64_t seed = 200; seed <= 204; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    run_trace(config, seed, /*exercise_credibility=*/false);
  }
}

TEST(CacheModelTest, MinTtlClampMatchesMapOracle) {
  Cache::Config config;
  config.min_ttl = dns::Ttl{15};
  config.max_ttl = dns::Ttl{30};
  for (std::uint64_t seed = 300; seed <= 303; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    run_trace(config, seed, /*exercise_credibility=*/false);
  }
}

// ---------------------------------------------------------------------------
// Bounded-cache differential oracle: a naive std::map model that mirrors the
// documented touch sequence exactly — bump the logical clock, stamp the
// entry, apply the periodic LFU halving, then enforce capacity with
// policy-chosen victims (LRU: min last_touch; LFU: min (freq, last_touch);
// TTL-aware: min (expires, stamp)).  The real cache computes the same
// victims through an intrusive recency chain, saturating counters and lazy
// expiry heaps; any divergence in hit/miss results, per-table sizes, tick
// or eviction counters is a bug in that machinery.

struct BoundedRecord {
  sim::Time expires{};
  std::uint64_t last_touch = 0;
  std::uint64_t stamp = 0;
  std::uint8_t freq = 1;
};

class BoundedOracle {
 public:
  explicit BoundedOracle(const Cache::Config& config) : config_(config) {}

  using Key = std::pair<std::string, dns::RRType>;

  void insert(const dns::Name& name, dns::RRType type, dns::Ttl ttl,
              sim::Time now) {
    Key key{name.to_string(), type};
    BoundedRecord rec;
    dns::Ttl effective = std::clamp(ttl, config_.min_ttl, config_.max_ttl);
    rec.expires = now + sim::seconds(effective.value());
    auto it = positives_.find(key);
    if (it != positives_.end() && it->second.expires > now) {
      rec.freq = bump(it->second.freq);
    }
    rec.stamp = ++tick_;
    rec.last_touch = rec.stamp;
    positives_[key] = rec;
    negatives_.erase(key);
    maybe_halve();
    enforce_capacity();
  }

  void insert_negative(const dns::Name& name, dns::RRType type, dns::Ttl ttl,
                       sim::Time now) {
    Key key{name.to_string(), type};
    BoundedRecord rec;
    dns::Ttl effective = std::clamp(ttl, config_.min_ttl, config_.max_ttl);
    rec.expires = now + sim::seconds(effective.value());
    auto it = negatives_.find(key);
    if (it != negatives_.end() && it->second.expires > now) {
      rec.freq = bump(it->second.freq);
    }
    rec.stamp = ++tick_;
    rec.last_touch = rec.stamp;
    negatives_[key] = rec;
    maybe_halve();
    enforce_capacity();
  }

  std::optional<dns::Ttl> lookup(const dns::Name& name, dns::RRType type,
                                 sim::Time now) {
    auto it = positives_.find({name.to_string(), type});
    if (it == positives_.end() || it->second.expires <= now) {
      return std::nullopt;  // misses do not touch the clock
    }
    it->second.last_touch = ++tick_;
    it->second.freq = bump(it->second.freq);
    auto remaining =
        dns::Ttl::of_seconds((it->second.expires - now) / sim::kSecond);
    maybe_halve();
    return remaining;
  }

  std::optional<dns::Ttl> lookup_negative(const dns::Name& name,
                                          dns::RRType type, sim::Time now) {
    auto it = negatives_.find({name.to_string(), type});
    if (it == negatives_.end() || it->second.expires <= now) {
      return std::nullopt;
    }
    it->second.last_touch = ++tick_;
    it->second.freq = bump(it->second.freq);
    auto remaining =
        dns::Ttl::of_seconds((it->second.expires - now) / sim::kSecond);
    maybe_halve();
    return remaining;
  }

  bool evict(const dns::Name& name, dns::RRType type) {
    return positives_.erase({name.to_string(), type}) > 0;
  }

  std::size_t purge_expired(sim::Time now) {
    sim::Duration grace =
        config_.serve_stale ? config_.stale_window : sim::Duration{};
    std::size_t removed = 0;
    for (auto it = positives_.begin(); it != positives_.end();) {
      if (it->second.expires + grace <= now) {
        it = positives_.erase(it);
        ++removed;
      } else {
        ++it;
      }
    }
    for (auto it = negatives_.begin(); it != negatives_.end();) {
      if (it->second.expires <= now) {
        it = negatives_.erase(it);
        ++removed;
      } else {
        ++it;
      }
    }
    return removed;
  }

  std::size_t positive_size() const { return positives_.size(); }
  std::size_t negative_size() const { return negatives_.size(); }
  std::uint64_t tick() const { return tick_; }
  std::uint64_t evictions() const { return evictions_; }
  std::uint64_t evicted_positive() const { return evicted_positive_; }
  std::uint64_t evicted_negative() const { return evicted_negative_; }
  std::uint64_t high_water() const { return high_water_; }

 private:
  static std::uint8_t bump(std::uint8_t freq) {
    return freq < 255 ? static_cast<std::uint8_t>(freq + 1) : freq;
  }

  void maybe_halve() {
    if (config_.policy != EvictionPolicy::kLfu ||
        config_.lfu_halving_period == 0 ||
        tick_ % config_.lfu_halving_period != 0) {
      return;
    }
    for (auto& [key, rec] : positives_) {
      rec.freq = static_cast<std::uint8_t>(rec.freq < 2 ? 1 : rec.freq >> 1);
    }
    for (auto& [key, rec] : negatives_) {
      rec.freq = static_cast<std::uint8_t>(rec.freq < 2 ? 1 : rec.freq >> 1);
    }
  }

  void enforce_capacity() {
    if (config_.max_entries != 0) {
      while (positives_.size() + negatives_.size() > config_.max_entries) {
        evict_one();
      }
    }
    high_water_ = std::max(
        high_water_,
        static_cast<std::uint64_t>(positives_.size() + negatives_.size()));
  }

  /// Victim ordering key per policy; the minimum across both maps loses.
  std::pair<std::uint64_t, std::uint64_t> rank(const BoundedRecord& rec) const {
    switch (config_.policy) {
      case EvictionPolicy::kLru:
        return {rec.last_touch, 0};
      case EvictionPolicy::kLfu:
        return {rec.freq, rec.last_touch};
      case EvictionPolicy::kTtlAware:
        return {static_cast<std::uint64_t>(rec.expires.ticks()), rec.stamp};
    }
    return {0, 0};
  }

  void evict_one() {
    const std::map<Key, BoundedRecord>* victim_map = nullptr;
    std::map<Key, BoundedRecord>::const_iterator victim;
    std::pair<std::uint64_t, std::uint64_t> best{};
    for (const auto* table : {&positives_, &negatives_}) {
      for (auto it = table->begin(); it != table->end(); ++it) {
        auto r = rank(it->second);
        if (victim_map == nullptr || r < best) {
          victim_map = table;
          victim = it;
          best = r;
        }
      }
    }
    if (victim_map == nullptr) {
      return;
    }
    if (victim_map == &positives_) {
      ++evicted_positive_;
      positives_.erase(victim->first);
    } else {
      ++evicted_negative_;
      negatives_.erase(victim->first);
    }
    ++evictions_;
  }

  Cache::Config config_;
  std::map<Key, BoundedRecord> positives_;
  std::map<Key, BoundedRecord> negatives_;
  std::uint64_t tick_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t evicted_positive_ = 0;
  std::uint64_t evicted_negative_ = 0;
  std::uint64_t high_water_ = 0;
};

/// One fuzzed bounded trace: 10k mixed insert/lookup/negative/evict/purge
/// ops against cache and oracle, comparing every observable after every op.
void run_bounded_trace(const Cache::Config& config, std::uint64_t seed) {
  Cache cache(config);
  BoundedOracle oracle(config);
  sim::Rng rng(seed);

  std::vector<dns::Name> names;
  for (int i = 0; i < 64; ++i) {
    names.push_back(dns::Name::from_string(
        std::string("b")
            .append(std::to_string(i))
            .append(".bounded")
            .append(std::to_string(i % 7))
            .append(".example")));
  }

  sim::Time now{};
  std::uint32_t value = 0;
  for (int op = 0; op < 10000; ++op) {
    now += sim::seconds(static_cast<std::int64_t>(rng.uniform_int(0, 3)));
    const dns::Name& name = names[rng.uniform_int(0, names.size() - 1)];
    double action = rng.uniform();
    if (action < 0.40) {
      auto ttl = dns::Ttl::of_seconds(
          static_cast<std::int64_t>(rng.uniform_int(1, 40)));
      ASSERT_TRUE(cache.insert(make_rrset(name, ttl, value),
                               Credibility::kAuthAnswer, now));
      oracle.insert(name, dns::RRType::kA, ttl, now);
      ++value;
    } else if (action < 0.70) {
      auto hit = cache.lookup(name, dns::RRType::kA, now);
      auto model = oracle.lookup(name, dns::RRType::kA, now);
      ASSERT_EQ(hit.has_value(), model.has_value())
          << "bounded lookup divergence at op " << op << " name "
          << name.to_string();
      if (hit) {
        ASSERT_EQ(hit->rrset.ttl(), *model)
            << "bounded TTL divergence at op " << op;
      }
    } else if (action < 0.80) {
      auto ttl = dns::Ttl::of_seconds(
          static_cast<std::int64_t>(rng.uniform_int(1, 20)));
      cache.insert_negative(name, dns::RRType::kA, dns::Rcode::kNXDomain, ttl,
                            now);
      oracle.insert_negative(name, dns::RRType::kA, ttl, now);
    } else if (action < 0.92) {
      auto hit = cache.lookup_negative(name, dns::RRType::kA, now);
      auto model = oracle.lookup_negative(name, dns::RRType::kA, now);
      ASSERT_EQ(hit.has_value(), model.has_value())
          << "bounded negative lookup divergence at op " << op;
      if (hit) {
        ASSERT_EQ(hit->remaining, *model)
            << "bounded negative TTL divergence at op " << op;
      }
    } else if (action < 0.97) {
      ASSERT_EQ(cache.evict(name, dns::RRType::kA),
                oracle.evict(name, dns::RRType::kA))
          << "bounded evict divergence at op " << op;
    } else {
      ASSERT_EQ(cache.purge_expired(now), oracle.purge_expired(now))
          << "bounded purge divergence at op " << op;
    }
    ASSERT_EQ(cache.size(), oracle.positive_size())
        << "positive size divergence at op " << op;
    ASSERT_EQ(cache.negative_size(), oracle.negative_size())
        << "negative size divergence at op " << op;
    ASSERT_EQ(cache.tick(), oracle.tick())
        << "touch clock divergence at op " << op;
    const Cache::Stats& stats = cache.stats();
    ASSERT_EQ(stats.capacity_evictions, oracle.evictions())
        << "eviction count divergence at op " << op;
    ASSERT_EQ(stats.evicted_positive, oracle.evicted_positive())
        << "positive eviction divergence at op " << op;
    ASSERT_EQ(stats.evicted_negative, oracle.evicted_negative())
        << "negative eviction divergence at op " << op;
  }
  EXPECT_EQ(cache.stats().high_water, oracle.high_water());
  cache.validate();
}

TEST(CacheModelTest, BoundedLruTracesMatchOracle) {
  Cache::Config config;
  config.max_entries = 24;
  config.policy = EvictionPolicy::kLru;
  for (std::uint64_t seed = 400; seed < 405; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    run_bounded_trace(config, seed);
  }
}

TEST(CacheModelTest, BoundedLfuTracesMatchOracle) {
  Cache::Config config;
  config.max_entries = 24;
  config.policy = EvictionPolicy::kLfu;
  // Short halving period so the decay fires hundreds of times per trace.
  config.lfu_halving_period = 64;
  for (std::uint64_t seed = 500; seed < 505; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    run_bounded_trace(config, seed);
  }
}

TEST(CacheModelTest, BoundedTtlAwareTracesMatchOracle) {
  Cache::Config config;
  config.max_entries = 24;
  config.policy = EvictionPolicy::kTtlAware;
  for (std::uint64_t seed = 600; seed < 605; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    run_bounded_trace(config, seed);
  }
}

// A tighter budget than the working set forces an eviction on nearly every
// insert; the chain, counters and heaps must stay exact under that churn.
TEST(CacheModelTest, TinyCapacityChurnMatchesOracle) {
  for (EvictionPolicy policy : {EvictionPolicy::kLru, EvictionPolicy::kLfu,
                                EvictionPolicy::kTtlAware}) {
    Cache::Config config;
    config.max_entries = 4;
    config.policy = policy;
    SCOPED_TRACE(std::string(to_string(policy)));
    run_bounded_trace(config, 7777);
  }
}

// The lazy expiry heap must keep purge_expired exact even when one key is
// refreshed far more often than it expires (the worst case for stale heap
// records) — and the heap compaction that bounds its growth must not drop
// deadlines.
TEST(CacheModelTest, RepeatedRefreshKeepsPurgeExact) {
  Cache cache;
  CacheOracle oracle(Cache::Config{});
  auto name = dns::Name::from_string("hot.model.example");
  sim::Time now{};
  for (int round = 0; round < 5000; ++round) {
    cache.insert(make_rrset(name, dns::Ttl{10}, round), Credibility::kAuthAnswer, now);
    oracle.insert(name, dns::RRType::kA, dns::Ttl{10}, Credibility::kAuthAnswer, now);
    now += sim::kSecond;
  }
  // The entry was refreshed every second with a 10 s TTL: still live.
  EXPECT_EQ(cache.purge_expired(now), oracle.purge_expired(now));
  EXPECT_EQ(cache.size(), 1u);
  now += 11 * sim::kSecond;
  EXPECT_EQ(cache.purge_expired(now), oracle.purge_expired(now));
  EXPECT_EQ(cache.size(), 0u);
}

}  // namespace
}  // namespace dnsttl::cache
