#include "cache/cache.h"

#include <gtest/gtest.h>

#include "dns/rr.h"

namespace dnsttl::cache {
namespace {

using dns::Name;
using dns::RRType;
using sim::kSecond;

dns::RRset make_a_set(const std::string& name, dns::Ttl ttl,
                      const std::string& addr = "1.2.3.4") {
  dns::RRset set(Name::from_string(name), dns::RClass::kIN, ttl);
  set.add(dns::ARdata{dns::Ipv4::from_string(addr)});
  return set;
}

dns::RRset make_ns_set(const std::string& zone, dns::Ttl ttl,
                       const std::string& target) {
  dns::RRset set(Name::from_string(zone), dns::RClass::kIN, ttl);
  set.add(dns::NsRdata{Name::from_string(target)});
  return set;
}

TEST(CacheTest, HitWithinTtlCountsDown) {
  Cache cache;
  cache.insert(make_a_set("x.org", dns::Ttl{300}), Credibility::kAuthAnswer, sim::Time{});
  auto hit = cache.lookup(Name::from_string("x.org"), RRType::kA,
                          sim::at(100 * kSecond));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->rrset.ttl(), dns::Ttl{200});
  EXPECT_EQ(hit->original_ttl, dns::Ttl{300});
  EXPECT_FALSE(hit->stale);
}

TEST(CacheTest, MissAfterExpiry) {
  Cache cache;
  cache.insert(make_a_set("x.org", dns::Ttl{300}), Credibility::kAuthAnswer, sim::Time{});
  EXPECT_FALSE(
      cache.lookup(Name::from_string("x.org"), RRType::kA, sim::at(300 * kSecond))
          .has_value());
  EXPECT_EQ(cache.stats().expired, 1u);
}

TEST(CacheTest, MaxTtlClampsLongTtls) {
  // Google-style 21599 s cap: the Figure 2 plateau.
  Cache::Config config;
  config.max_ttl = dns::Ttl{21599};
  Cache cache(config);
  cache.insert(make_ns_set("google.co", dns::Ttl{345600}, "ns1.google.com"),
               Credibility::kAuthAnswer, sim::Time{});
  auto hit = cache.lookup(Name::from_string("google.co"), RRType::kNS, sim::Time{});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->rrset.ttl(), dns::Ttl{21599});
}

TEST(CacheTest, MinTtlRaisesShortTtls) {
  Cache::Config config;
  config.min_ttl = dns::Ttl{60};
  Cache cache(config);
  cache.insert(make_a_set("x.org", dns::Ttl{5}), Credibility::kAuthAnswer, sim::Time{});
  auto hit = cache.lookup(Name::from_string("x.org"), RRType::kA, sim::Time{});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->rrset.ttl(), dns::Ttl{60});
}

TEST(CacheTest, HigherCredibilityReplacesGlue) {
  // Child-centric: the child's AA answer overrides parent glue (§3).
  Cache cache;
  cache.insert(make_ns_set("uy", dns::Ttl{172800}, "a.nic.uy"), Credibility::kGlue, sim::Time{});
  cache.insert(make_ns_set("uy", dns::Ttl{300}, "a.nic.uy"), Credibility::kAuthAnswer,
               sim::Time{});
  auto hit = cache.lookup(Name::from_string("uy"), RRType::kNS, sim::Time{});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->rrset.ttl(), dns::Ttl{300});
  EXPECT_EQ(hit->credibility, Credibility::kAuthAnswer);
}

TEST(CacheTest, LowerCredibilityRefusedWhileLive) {
  // RFC 2181 §5.4.1: glue must not override a live authoritative answer.
  Cache cache;
  cache.insert(make_ns_set("uy", dns::Ttl{300}, "a.nic.uy"), Credibility::kAuthAnswer,
               sim::Time{});
  EXPECT_FALSE(cache.insert(make_ns_set("uy", dns::Ttl{172800}, "a.nic.uy"),
                            Credibility::kGlue, sim::Time{}));
  auto hit = cache.lookup(Name::from_string("uy"), RRType::kNS, sim::Time{});
  EXPECT_EQ(hit->rrset.ttl(), dns::Ttl{300});
  EXPECT_EQ(cache.stats().downgrades_refused, 1u);
}

TEST(CacheTest, LowerCredibilityAcceptedAfterExpiry) {
  Cache cache;
  cache.insert(make_ns_set("uy", dns::Ttl{300}, "a.nic.uy"), Credibility::kAuthAnswer,
               sim::Time{});
  EXPECT_TRUE(cache.insert(make_ns_set("uy", dns::Ttl{172800}, "a.nic.uy"),
                           Credibility::kGlue, sim::at(301 * kSecond)));
}

TEST(CacheTest, ParentCentricKeepsGlueAgainstAuthUpgrade) {
  Cache::Config config;
  config.prefer_parent_delegation = true;
  Cache cache(config);
  cache.insert(make_ns_set("uy", dns::Ttl{172800}, "a.nic.uy"), Credibility::kGlue, sim::Time{});
  EXPECT_FALSE(cache.insert(make_ns_set("uy", dns::Ttl{300}, "a.nic.uy"),
                            Credibility::kAuthAnswer, sim::Time{}));
  auto hit = cache.lookup(Name::from_string("uy"), RRType::kNS, sim::Time{});
  EXPECT_EQ(hit->rrset.ttl(), dns::Ttl{172800});
}

TEST(CacheTest, SameCredibilityReplaceIsConfigurable) {
  Cache::Config config;
  config.replace_same_credibility = false;
  Cache cache(config);
  cache.insert(make_a_set("ns1.sub.example", dns::Ttl{7200}, "1.1.1.1"),
               Credibility::kGlue, sim::Time{});
  // A refresh with a new address is ignored while the old entry lives —
  // the §4.2 "ride the cached A to 120 minutes" minority.
  EXPECT_FALSE(cache.insert(make_a_set("ns1.sub.example", dns::Ttl{7200}, "2.2.2.2"),
                            Credibility::kGlue, sim::at(3600 * kSecond)));
  auto hit = cache.lookup(Name::from_string("ns1.sub.example"), RRType::kA,
                          sim::at(3600 * kSecond));
  EXPECT_EQ(dns::rdata_to_string(hit->rrset.rdatas()[0]), "1.1.1.1");
}

TEST(CacheTest, GlueLinkedToNsDiesWithNs) {
  // The §4.2 in-bailiwick finding: a still-valid A expires when its
  // covering NS RRset does.
  Cache cache;
  Name zone = Name::from_string("sub.cachetest.net");
  cache.insert(make_ns_set("sub.cachetest.net", dns::Ttl{3600},
                           "ns1.sub.cachetest.net"),
               Credibility::kGlue, sim::Time{});
  cache.insert(make_a_set("ns1.sub.cachetest.net", dns::Ttl{7200}),
               Credibility::kGlue, sim::Time{}, zone);

  // At t=30min both live.
  EXPECT_TRUE(cache
                  .lookup(Name::from_string("ns1.sub.cachetest.net"),
                          RRType::kA, sim::at(1800 * kSecond))
                  .has_value());
  // At t=61min the NS is gone; the A has 1h of its own TTL left but is
  // dropped anyway.
  EXPECT_FALSE(cache
                   .lookup(Name::from_string("ns1.sub.cachetest.net"),
                           RRType::kA, sim::at(3660 * kSecond))
                   .has_value());
  EXPECT_EQ(cache.stats().ns_linked_drops, 1u);
}

TEST(CacheTest, UnlinkedGlueSurvivesNsExpiry) {
  Cache::Config config;
  config.link_glue_to_ns = false;
  Cache cache(config);
  Name zone = Name::from_string("sub.cachetest.net");
  cache.insert(make_ns_set("sub.cachetest.net", dns::Ttl{3600},
                           "ns1.sub.cachetest.net"),
               Credibility::kGlue, sim::Time{});
  cache.insert(make_a_set("ns1.sub.cachetest.net", dns::Ttl{7200}),
               Credibility::kGlue, sim::Time{}, zone);
  EXPECT_TRUE(cache
                  .lookup(Name::from_string("ns1.sub.cachetest.net"),
                          RRType::kA, sim::at(3660 * kSecond))
                  .has_value());
}

TEST(CacheTest, ServeStaleOnlyWhenAllowed) {
  Cache::Config config;
  config.serve_stale = true;
  config.stale_window = 3600 * kSecond;
  Cache cache(config);
  cache.insert(make_a_set("x.org", dns::Ttl{60}), Credibility::kAuthAnswer, sim::Time{});

  // Normal lookup past expiry: miss.
  EXPECT_FALSE(cache.lookup(Name::from_string("x.org"), RRType::kA,
                            sim::at(120 * kSecond), false)
                   .has_value());
  // Upstream-failed lookup: stale answer with short TTL.
  auto stale = cache.lookup(Name::from_string("x.org"), RRType::kA,
                            sim::at(120 * kSecond), true);
  ASSERT_TRUE(stale.has_value());
  EXPECT_TRUE(stale->stale);
  EXPECT_EQ(stale->rrset.ttl(), dns::Ttl{30});
  // Past the stale window: gone for good.
  EXPECT_FALSE(cache.lookup(Name::from_string("x.org"), RRType::kA,
                            sim::at(2 * 3600 * kSecond), true)
                   .has_value());
}

TEST(CacheTest, NegativeCacheHonoursTtl) {
  Cache cache;
  cache.insert_negative(Name::from_string("nx.org"), RRType::kA,
                        dns::Rcode::kNXDomain, dns::Ttl{60}, sim::Time{});
  auto hit = cache.lookup_negative(Name::from_string("nx.org"), RRType::kA,
                                   sim::at(30 * kSecond));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->rcode, dns::Rcode::kNXDomain);
  EXPECT_EQ(hit->remaining, dns::Ttl{30});
  EXPECT_FALSE(cache
                   .lookup_negative(Name::from_string("nx.org"), RRType::kA,
                                    sim::at(61 * kSecond))
                   .has_value());
}

TEST(CacheTest, PositiveInsertClearsNegative) {
  Cache cache;
  cache.insert_negative(Name::from_string("x.org"), RRType::kA,
                        dns::Rcode::kNXDomain, dns::Ttl{600}, sim::Time{});
  cache.insert(make_a_set("x.org", dns::Ttl{300}), Credibility::kAuthAnswer,
               sim::at(10 * kSecond));
  EXPECT_FALSE(cache
                   .lookup_negative(Name::from_string("x.org"), RRType::kA,
                                    sim::at(20 * kSecond))
                   .has_value());
}

TEST(CacheTest, EvictAndClear) {
  Cache cache;
  cache.insert(make_a_set("x.org", dns::Ttl{300}), Credibility::kAuthAnswer, sim::Time{});
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(cache.evict(Name::from_string("x.org"), RRType::kA));
  EXPECT_FALSE(cache.evict(Name::from_string("x.org"), RRType::kA));
  cache.insert(make_a_set("y.org", dns::Ttl{300}), Credibility::kAuthAnswer, sim::Time{});
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(CacheTest, PurgeExpiredRemovesOnlyDeadEntries) {
  Cache cache;
  cache.insert(make_a_set("short.org", dns::Ttl{60}), Credibility::kAuthAnswer, sim::Time{});
  cache.insert(make_a_set("long.org", dns::Ttl{3600}), Credibility::kAuthAnswer, sim::Time{});
  EXPECT_EQ(cache.purge_expired(sim::at(120 * kSecond)), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(CacheTest, PeekDoesNotTouchStats) {
  Cache cache;
  cache.insert(make_a_set("x.org", dns::Ttl{300}), Credibility::kAuthAnswer, sim::Time{});
  cache.peek(Name::from_string("x.org"), RRType::kA, sim::Time{});
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
}

TEST(CacheTest, RemainingTtlHelper) {
  Cache cache;
  cache.insert(make_a_set("x.org", dns::Ttl{300}), Credibility::kAuthAnswer, sim::Time{});
  EXPECT_EQ(cache.remaining_ttl(Name::from_string("x.org"), RRType::kA,
                                sim::at(100 * kSecond)),
            dns::Ttl{200});
  EXPECT_FALSE(cache
                   .remaining_ttl(Name::from_string("y.org"), RRType::kA, sim::Time{})
                   .has_value());
}

// Parameterized invariant: for any TTL and clamp configuration, the served
// remaining TTL never exceeds the clamp nor the original TTL.
struct ClampCase {
  dns::Ttl ttl;
  dns::Ttl max_ttl;
  dns::Ttl min_ttl;
};

class CacheClampTest : public ::testing::TestWithParam<ClampCase> {};

TEST_P(CacheClampTest, ServedTtlRespectsClampInvariant) {
  const auto& param = GetParam();
  Cache::Config config;
  config.max_ttl = param.max_ttl;
  config.min_ttl = param.min_ttl;
  Cache cache(config);
  cache.insert(make_a_set("x.org", param.ttl), Credibility::kAuthAnswer, sim::Time{});
  auto hit = cache.lookup(Name::from_string("x.org"), RRType::kA, sim::Time{});
  dns::Ttl effective =
      std::clamp(param.ttl, std::min(param.min_ttl, param.max_ttl),
                 param.max_ttl);
  if (effective == dns::Ttl{0}) {
    // TTL 0 undermines caching entirely (§5.1.2): never served from cache.
    EXPECT_FALSE(hit.has_value());
    return;
  }
  ASSERT_TRUE(hit.has_value());
  EXPECT_LE(hit->rrset.ttl(), param.max_ttl);
  EXPECT_GE(hit->rrset.ttl(), std::min(param.min_ttl, param.max_ttl));
  EXPECT_LE(hit->rrset.ttl(), std::max(param.ttl, param.min_ttl));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CacheClampTest,
    ::testing::Values(ClampCase{dns::Ttl{300}, dns::Ttl{21599}, dns::Ttl{0}}, ClampCase{dns::Ttl{345600}, dns::Ttl{21599}, dns::Ttl{0}},
                      ClampCase{dns::Ttl{0}, dns::Ttl{604800}, dns::Ttl{0}}, ClampCase{dns::Ttl{5}, dns::Ttl{604800}, dns::Ttl{60}},
                      ClampCase{dns::Ttl{172800}, dns::Ttl{604800}, dns::Ttl{0}},
                      ClampCase{dns::Ttl{604800}, dns::Ttl{86400}, dns::Ttl{30}},
                      ClampCase{dns::Ttl{1}, dns::Ttl{1}, dns::Ttl{1}}));

// ---------------------------------------------------------------------------
// Eviction policies: direct behavioral checks (the differential oracle in
// cache_model_test.cc proves trace equivalence at scale).

TEST(CacheEvictionTest, LruEvictsLeastRecentlyTouched) {
  Cache::Config config;
  config.max_entries = 2;
  config.policy = EvictionPolicy::kLru;
  Cache cache(config);
  cache.insert(make_a_set("a.org", dns::Ttl{300}), Credibility::kAuthAnswer,
               sim::Time{});
  cache.insert(make_a_set("b.org", dns::Ttl{300}), Credibility::kAuthAnswer,
               sim::Time{});
  // Touch a.org so b.org becomes the cold tail.
  EXPECT_TRUE(cache.lookup(Name::from_string("a.org"), RRType::kA,
                           sim::at(1 * kSecond)));
  cache.insert(make_a_set("c.org", dns::Ttl{300}), Credibility::kAuthAnswer,
               sim::at(2 * kSecond));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.peek(Name::from_string("a.org"), RRType::kA,
                         sim::at(2 * kSecond)));
  EXPECT_FALSE(cache.peek(Name::from_string("b.org"), RRType::kA,
                          sim::at(2 * kSecond)));
  EXPECT_EQ(cache.stats().capacity_evictions, 1u);
  EXPECT_EQ(cache.stats().evicted_positive, 1u);
  EXPECT_EQ(cache.stats().high_water, 2u);
}

TEST(CacheEvictionTest, LfuKeepsTheHotEntry) {
  Cache::Config config;
  config.max_entries = 2;
  config.policy = EvictionPolicy::kLfu;
  Cache cache(config);
  cache.insert(make_a_set("hot.org", dns::Ttl{300}), Credibility::kAuthAnswer,
               sim::Time{});
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(cache.lookup(Name::from_string("hot.org"), RRType::kA,
                             sim::at(1 * kSecond)));
  }
  // cold.org is touched after hot.org's last hit — LRU would sacrifice
  // hot.org — but its frequency is 1, so LFU picks it instead.
  cache.insert(make_a_set("cold.org", dns::Ttl{300}), Credibility::kAuthAnswer,
               sim::at(2 * kSecond));
  cache.insert(make_a_set("new.org", dns::Ttl{300}), Credibility::kAuthAnswer,
               sim::at(3 * kSecond));
  EXPECT_TRUE(cache.peek(Name::from_string("hot.org"), RRType::kA,
                         sim::at(3 * kSecond)));
  EXPECT_FALSE(cache.peek(Name::from_string("cold.org"), RRType::kA,
                          sim::at(3 * kSecond)));
  EXPECT_TRUE(cache.peek(Name::from_string("new.org"), RRType::kA,
                         sim::at(3 * kSecond)));
}

// LFU admission is deterministic TinyLFU-style: a newcomer whose frequency
// is the unique minimum is itself the victim — everything resident is
// provably hotter, so the cache declines to churn.
TEST(CacheEvictionTest, LfuDeclinesUniquelyColdNewcomer) {
  Cache::Config config;
  config.max_entries = 2;
  config.policy = EvictionPolicy::kLfu;
  Cache cache(config);
  cache.insert(make_a_set("a.org", dns::Ttl{300}), Credibility::kAuthAnswer,
               sim::Time{});
  cache.insert(make_a_set("b.org", dns::Ttl{300}), Credibility::kAuthAnswer,
               sim::Time{});
  cache.lookup(Name::from_string("a.org"), RRType::kA, sim::at(1 * kSecond));
  cache.lookup(Name::from_string("b.org"), RRType::kA, sim::at(1 * kSecond));
  cache.insert(make_a_set("new.org", dns::Ttl{300}), Credibility::kAuthAnswer,
               sim::at(2 * kSecond));
  EXPECT_FALSE(cache.peek(Name::from_string("new.org"), RRType::kA,
                          sim::at(2 * kSecond)));
  EXPECT_TRUE(cache.peek(Name::from_string("a.org"), RRType::kA,
                         sim::at(2 * kSecond)));
  EXPECT_TRUE(cache.peek(Name::from_string("b.org"), RRType::kA,
                         sim::at(2 * kSecond)));
}

TEST(CacheEvictionTest, TtlAwareEvictsSoonestToExpire) {
  Cache::Config config;
  config.max_entries = 2;
  config.policy = EvictionPolicy::kTtlAware;
  Cache cache(config);
  cache.insert(make_a_set("short.org", dns::Ttl{30}), Credibility::kAuthAnswer,
               sim::Time{});
  cache.insert(make_a_set("long.org", dns::Ttl{3600}), Credibility::kAuthAnswer,
               sim::Time{});
  // short.org is the most recently touched — LRU would keep it, but it
  // expires first, so the TTL-aware policy sacrifices it.
  EXPECT_TRUE(cache.lookup(Name::from_string("short.org"), RRType::kA,
                           sim::at(1 * kSecond)));
  cache.insert(make_a_set("new.org", dns::Ttl{300}), Credibility::kAuthAnswer,
               sim::at(2 * kSecond));
  EXPECT_FALSE(cache.peek(Name::from_string("short.org"), RRType::kA,
                          sim::at(2 * kSecond)));
  EXPECT_TRUE(cache.peek(Name::from_string("long.org"), RRType::kA,
                         sim::at(2 * kSecond)));
}

TEST(CacheEvictionTest, EvictionSpansNegativeTable) {
  Cache::Config config;
  config.max_entries = 2;
  config.policy = EvictionPolicy::kLru;
  Cache cache(config);
  cache.insert_negative(Name::from_string("nx.org"), RRType::kA,
                        dns::Rcode::kNXDomain, dns::Ttl{300}, sim::Time{});
  cache.insert(make_a_set("a.org", dns::Ttl{300}), Credibility::kAuthAnswer,
               sim::at(1 * kSecond));
  cache.insert(make_a_set("b.org", dns::Ttl{300}), Credibility::kAuthAnswer,
               sim::at(2 * kSecond));
  // The negative entry is the coldest: it crosses tables to get evicted.
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.negative_size(), 0u);
  EXPECT_EQ(cache.stats().evicted_negative, 1u);
}

TEST(CacheEvictionTest, UnboundedCacheNeverEvicts) {
  Cache cache;  // max_entries = 0
  for (int i = 0; i < 500; ++i) {
    cache.insert(make_a_set(std::string("u").append(std::to_string(i)).append(".org"),
                            dns::Ttl{300}),
                 Credibility::kAuthAnswer, sim::Time{});
  }
  EXPECT_EQ(cache.size(), 500u);
  EXPECT_EQ(cache.stats().capacity_evictions, 0u);
  EXPECT_EQ(cache.stats().high_water, 500u);
}

// ---------------------------------------------------------------------------
// Snapshot/restore: round-trip identity and corrupt-input rejection.

/// Same FNV-1a the snapshot writer uses, for re-sealing deliberately
/// corrupted images so parsing proceeds past the whole-image checksum.
std::uint64_t test_fnv1a(const std::vector<std::uint8_t>& bytes,
                         std::size_t count) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < count; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

void reseal(std::vector<std::uint8_t>& image) {
  const std::size_t body = image.size() - 8;
  const std::uint64_t sum = test_fnv1a(image, body);
  for (int i = 0; i < 8; ++i) {
    image[body + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((sum >> (8 * i)) & 0xff);
  }
}

/// A populated cache exercising every serialized feature: bounded config,
/// NS-linked glue, negatives, mixed credibilities, touched recency order.
Cache make_populated_cache() {
  Cache::Config config;
  config.max_entries = 64;
  config.policy = EvictionPolicy::kLfu;
  config.serve_stale = true;
  config.stale_window = 2 * sim::kDay;
  config.min_ttl = dns::Ttl{5};
  Cache cache(config);
  cache.insert(make_ns_set("snap.example", dns::Ttl{86400}, "ns1.snap.example"),
               Credibility::kGlue, sim::Time{});
  cache.insert(make_a_set("ns1.snap.example", dns::Ttl{3600}, "5.6.7.8"),
               Credibility::kGlue, sim::Time{},
               Name::from_string("snap.example"));
  cache.insert(make_a_set("x.org", dns::Ttl{300}), Credibility::kAuthAnswer,
               sim::at(1 * kSecond));
  cache.insert(make_a_set("y.org", dns::Ttl{30}, "9.9.9.9"),
               Credibility::kNonAuthAnswer, sim::at(2 * kSecond));
  cache.insert_negative(Name::from_string("nx.org"), RRType::kAAAA,
                        dns::Rcode::kNXDomain, dns::Ttl{900},
                        sim::at(3 * kSecond));
  cache.insert_negative(Name::from_string("nodata.org"), RRType::kA,
                        dns::Rcode::kNoError, dns::Ttl{60},
                        sim::at(4 * kSecond));
  // Touch entries out of insert order so the chain is non-trivial.
  cache.lookup(Name::from_string("x.org"), RRType::kA, sim::at(5 * kSecond));
  cache.lookup(Name::from_string("ns1.snap.example"), RRType::kA,
               sim::at(6 * kSecond));
  cache.lookup_negative(Name::from_string("nx.org"), RRType::kAAAA,
                        sim::at(7 * kSecond));
  return cache;
}

TEST(CacheSnapshotTest, RoundTripsByteIdentically) {
  Cache original = make_populated_cache();
  const std::vector<std::uint8_t> image = original.snapshot();
  Cache restored;
  restored.restore(image);
  EXPECT_EQ(restored.snapshot(), image);
  EXPECT_EQ(restored.size(), original.size());
  EXPECT_EQ(restored.negative_size(), original.negative_size());
  EXPECT_EQ(restored.tick(), original.tick());
  EXPECT_EQ(restored.dump(sim::at(8 * kSecond)),
            original.dump(sim::at(8 * kSecond)));
  restored.validate();
}

TEST(CacheSnapshotTest, EmptyCacheRoundTrips) {
  Cache cache;
  const auto image = cache.snapshot();
  Cache restored;
  restored.restore(image);
  EXPECT_EQ(restored.snapshot(), image);
  EXPECT_EQ(restored.size(), 0u);
}

TEST(CacheSnapshotTest, RestoredCacheEvictsLikeTheOriginal) {
  // The recency chain and frequency counters must survive the round trip:
  // drive the original and the restored copy with identical traffic and
  // demand identical victims.
  Cache original = make_populated_cache();
  Cache restored;
  restored.restore(original.snapshot());
  for (int i = 0; i < 80; ++i) {
    const auto set = make_a_set("churn" + std::to_string(i) + ".org",
                                dns::Ttl{120});
    const auto now = sim::at((10 + i) * kSecond);
    original.insert(set, Credibility::kAuthAnswer, now);
    restored.insert(set, Credibility::kAuthAnswer, now);
    ASSERT_EQ(original.size(), restored.size()) << "churn step " << i;
    ASSERT_EQ(original.negative_size(), restored.negative_size());
    ASSERT_EQ(original.stats().evicted_positive,
              restored.stats().evicted_positive);
  }
  EXPECT_EQ(original.dump(sim::at(95 * kSecond)),
            restored.dump(sim::at(95 * kSecond)));
}

TEST(CacheSnapshotTest, RejectsEveryTruncation) {
  const auto image = make_populated_cache().snapshot();
  for (std::size_t len = 0; len < image.size(); ++len) {
    std::vector<std::uint8_t> cut(image.begin(),
                                  image.begin() + static_cast<long>(len));
    Cache cache;
    EXPECT_THROW(cache.restore(cut), SnapshotError) << "prefix " << len;
  }
}

TEST(CacheSnapshotTest, RejectsEverySingleByteFlip) {
  const auto image = make_populated_cache().snapshot();
  for (std::size_t i = 0; i < image.size(); ++i) {
    std::vector<std::uint8_t> bad = image;
    bad[i] ^= 0xff;
    Cache cache;
    EXPECT_THROW(cache.restore(bad), SnapshotError) << "byte " << i;
  }
}

TEST(CacheSnapshotTest, RejectsVersionBumpEvenResealed) {
  auto image = make_populated_cache().snapshot();
  image[4] = 2;  // version field (after the u32 magic)
  reseal(image);
  Cache cache;
  EXPECT_THROW(cache.restore(image), SnapshotError);
}

TEST(CacheSnapshotTest, RejectsTrailingGarbageEvenResealed) {
  auto image = make_populated_cache().snapshot();
  image.insert(image.end() - 8, 0x00);
  reseal(image);
  Cache cache;
  EXPECT_THROW(cache.restore(image), SnapshotError);
}

TEST(CacheSnapshotTest, FailedRestoreLeavesCacheUnchanged) {
  Cache cache = make_populated_cache();
  const auto before = cache.snapshot();
  auto bad = before;
  bad[bad.size() / 2] ^= 0x01;
  EXPECT_THROW(cache.restore(bad), SnapshotError);
  EXPECT_EQ(cache.snapshot(), before);
  cache.validate();
}

TEST(CacheSnapshotTest, RestoreResetsRuntimeStats) {
  Cache original = make_populated_cache();
  Cache restored;
  restored.restore(original.snapshot());
  EXPECT_EQ(restored.stats().hits, 0u);
  EXPECT_EQ(restored.stats().inserts, 0u);
  EXPECT_EQ(restored.stats().high_water,
            static_cast<std::uint64_t>(restored.size() +
                                       restored.negative_size()));
}

}  // namespace
}  // namespace dnsttl::cache
