#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "auth/auth_server.h"
#include "dns/rr.h"
#include "fault/schedule.h"
#include "net/latency.h"
#include "net/network.h"

namespace dnsttl::net {
namespace {

using dns::Name;
using dns::RRType;

std::shared_ptr<dns::Zone> tiny_zone() {
  auto zone = std::make_shared<dns::Zone>(Name::from_string("example.org"));
  zone->add(dns::make_soa(Name::from_string("example.org"), dns::Ttl{3600},
                          Name::from_string("ns.example.org"), 1));
  zone->add(dns::make_a(Name::from_string("www.example.org"), dns::Ttl{300},
                        dns::Ipv4(10, 1, 1, 1)));
  return zone;
}

TEST(LatencyTest, MatrixIsSymmetric) {
  for (Region a : kAllRegions) {
    for (Region b : kAllRegions) {
      EXPECT_DOUBLE_EQ(LatencyModel::base_oneway_ms(a, b),
                       LatencyModel::base_oneway_ms(b, a));
    }
  }
}

TEST(LatencyTest, IntraRegionFasterThanInterRegion) {
  for (Region a : kAllRegions) {
    for (Region b : kAllRegions) {
      if (a == b) continue;
      EXPECT_LT(LatencyModel::base_oneway_ms(a, a),
                LatencyModel::base_oneway_ms(a, b));
    }
  }
}

TEST(LatencyTest, SamePopCollapsesToMetroDelay) {
  LatencyModel model;
  Location probe{Region::kEU, 1.0, 7};
  Location resolver{Region::kEU, 1.0, 7};
  Location other{Region::kEU, 1.0, 8};
  EXPECT_LT(model.expected_rtt(probe, resolver),
            model.expected_rtt(probe, other));
  EXPECT_LT(sim::to_milliseconds(model.expected_rtt(probe, resolver)), 10.0);
}

TEST(LatencyTest, SampledRttPositiveAndJittered) {
  LatencyModel model;
  sim::Rng rng(1);
  Location eu{Region::kEU, 2.0};
  Location na{Region::kNA, 2.0};
  double lo = 1e18;
  double hi = 0.0;
  for (int i = 0; i < 1000; ++i) {
    double ms = sim::to_milliseconds(model.rtt(eu, na, rng));
    EXPECT_GT(ms, 0.0);
    lo = std::min(lo, ms);
    hi = std::max(hi, ms);
  }
  EXPECT_LT(lo, hi);  // jitter produces a spread
  EXPECT_GT(hi / lo, 1.1);
}

TEST(NetworkTest, AttachAllocatesDistinctAddresses) {
  Network network{sim::Rng{1}};
  auth::AuthServer s1{"one"};
  auth::AuthServer s2{"two"};
  Address a1 = network.attach(s1, Location{});
  Address a2 = network.attach(s2, Location{});
  EXPECT_NE(a1, a2);
  EXPECT_TRUE(network.is_attached(a1));
  EXPECT_EQ(network.site_count(a1), 1u);
}

TEST(NetworkTest, FixedAddressRespectedAndCollisionRejected) {
  Network network{sim::Rng{1}};
  auth::AuthServer s1{"one"};
  auth::AuthServer s2{"two"};
  Address want = dns::Ipv4::from_string("190.124.27.10");
  EXPECT_EQ(network.attach(s1, Location{}, want), want);
  EXPECT_THROW(network.attach(s2, Location{}, want), std::invalid_argument);
}

TEST(NetworkTest, QueryReachesServerAndReturnsAnswer) {
  Network network{sim::Rng{1}};
  auth::AuthServer server{"auth"};
  server.add_zone(tiny_zone());
  Address addr = network.attach(server, Location{Region::kEU, 1.0});

  NodeRef client{dns::Ipv4(10, 0, 0, 99), Location{Region::kEU, 1.0}};
  auto query = dns::Message::make_query(
      7, Name::from_string("www.example.org"), RRType::kA);
  auto outcome = network.query(client, addr, query, sim::Time{});
  ASSERT_TRUE(outcome.response.has_value());
  EXPECT_EQ(outcome.response->id, 7);
  EXPECT_TRUE(outcome.response->flags.aa);
  ASSERT_EQ(outcome.response->answers.size(), 1u);
  EXPECT_GT(outcome.elapsed, sim::Duration{});
}

TEST(NetworkTest, DetachedAddressTimesOut) {
  Network network{sim::Rng{1}};
  auth::AuthServer server{"auth"};
  server.add_zone(tiny_zone());
  Address addr = network.attach(server, Location{});
  network.detach(addr);

  NodeRef client{dns::Ipv4(10, 0, 0, 99), Location{}};
  auto query = dns::Message::make_query(
      1, Name::from_string("www.example.org"), RRType::kA);
  auto outcome = network.query(client, addr, query, sim::Time{});
  EXPECT_FALSE(outcome.response.has_value());
  EXPECT_EQ(outcome.elapsed, network.params().query_timeout);
}

TEST(NetworkTest, OfflineServerTimesOut) {
  Network network{sim::Rng{1}};
  auth::AuthServer server{"auth"};
  server.add_zone(tiny_zone());
  server.set_online(false);
  Address addr = network.attach(server, Location{});
  NodeRef client{dns::Ipv4(10, 0, 0, 99), Location{}};
  auto query = dns::Message::make_query(
      1, Name::from_string("www.example.org"), RRType::kA);
  EXPECT_FALSE(network.query(client, addr, query, sim::Time{}).response.has_value());
}

TEST(NetworkTest, TotalLossDropsEverything) {
  Network::Params params;
  params.loss_rate = 1.0;
  Network network{sim::Rng{1}, LatencyModel{}, params};
  auth::AuthServer server{"auth"};
  server.add_zone(tiny_zone());
  Address addr = network.attach(server, Location{});
  NodeRef client{dns::Ipv4(10, 0, 0, 99), Location{}};
  auto query = dns::Message::make_query(
      1, Name::from_string("www.example.org"), RRType::kA);
  EXPECT_FALSE(network.query(client, addr, query, sim::Time{}).response.has_value());
}

TEST(NetworkTest, AnycastRoutesToNearestSite) {
  Network network{sim::Rng{1}};
  auth::AuthServer eu_site{"eu"};
  auth::AuthServer oc_site{"oc"};
  auto zone = tiny_zone();
  eu_site.add_zone(zone);
  oc_site.add_zone(zone);
  Address anycast = network.attach_anycast(
      {{&eu_site, Location{Region::kEU, 1.0}},
       {&oc_site, Location{Region::kOC, 1.0}}});
  EXPECT_EQ(network.site_count(anycast), 2u);

  NodeRef oc_client{dns::Ipv4(10, 0, 0, 99), Location{Region::kOC, 1.0}};
  auto query = dns::Message::make_query(
      1, Name::from_string("www.example.org"), RRType::kA);
  for (int i = 0; i < 5; ++i) {
    network.query(oc_client, anycast, query, sim::Time{});
  }
  EXPECT_EQ(oc_site.queries_answered(), 5u);
  EXPECT_EQ(eu_site.queries_answered(), 0u);
}

// Pin of the RNG-stream contract (documented on set_fault_schedule): a
// zero effective loss rate burns no RNG draw, and a fault schedule whose
// windows are inactive at query time is indistinguishable — draw for draw —
// from no schedule at all.  Any nonzero loss rate consumes one extra draw
// per exchange, which shifts the jitter stream and therefore the elapsed
// sequence.  If this test breaks, every golden output built on "same seed,
// faults on/off agree outside the windows" silently drifts.
TEST(NetworkTest, RngStreamContract) {
  auto elapsed_sequence = [](double loss_rate,
                             const fault::FaultSchedule* schedule) {
    Network::Params params;
    params.loss_rate = loss_rate;
    Network network{sim::Rng{42}, LatencyModel{}, params};
    network.set_fault_schedule(schedule);
    auth::AuthServer server{"auth"};
    server.add_zone(tiny_zone());
    Address addr = network.attach(server, Location{Region::kEU, 1.0});
    NodeRef client{dns::Ipv4(10, 0, 0, 99), Location{Region::kNA, 2.0}};
    auto query = dns::Message::make_query(
        1, Name::from_string("www.example.org"), RRType::kA);
    std::vector<sim::Duration> elapsed;
    for (int i = 0; i < 50; ++i) {
      elapsed.push_back(
          network.query(client, addr, query, sim::at(i * sim::kSecond))
              .elapsed);
    }
    return elapsed;
  };

  // An installed schedule whose only window never activates during the
  // probed span (it starts at t = 1 h; queries stop at 50 s).
  fault::FaultSchedule inactive;
  fault::FaultEvent window;
  window.start = sim::at(1 * sim::kHour);
  window.end = sim::at(2 * sim::kHour);
  window.kind = fault::FaultKind::kLoss;
  window.rate = 0.5;
  inactive.add(window);

  auto baseline = elapsed_sequence(0.0, nullptr);
  EXPECT_EQ(baseline, elapsed_sequence(0.0, &inactive))
      << "inactive fault windows must not consume RNG draws";

  // Nonzero loss burns one draw per exchange: the stream shifts even
  // though a 1e-9 rate never actually loses a packet.
  EXPECT_NE(baseline, elapsed_sequence(1e-9, nullptr))
      << "nonzero loss rate must consume a draw per exchange";
}

TEST(AuthServerTest, RefusesForeignZone) {
  Network network{sim::Rng{1}};
  auth::AuthServer server{"auth"};
  server.add_zone(tiny_zone());
  Address addr = network.attach(server, Location{});
  NodeRef client{dns::Ipv4(10, 0, 0, 99), Location{}};
  auto query = dns::Message::make_query(
      1, Name::from_string("www.elsewhere.net"), RRType::kA);
  auto outcome = network.query(client, addr, query, sim::Time{});
  ASSERT_TRUE(outcome.response.has_value());
  EXPECT_EQ(outcome.response->flags.rcode, dns::Rcode::kRefused);
}

TEST(AuthServerTest, LogsQueriesWhenEnabled) {
  Network network{sim::Rng{1}};
  auth::AuthServer server{"auth"};
  server.add_zone(tiny_zone());
  server.set_logging(true);
  Address addr = network.attach(server, Location{});
  NodeRef client{dns::Ipv4(10, 0, 0, 99), Location{}};
  auto query = dns::Message::make_query(
      1, Name::from_string("www.example.org"), RRType::kA);
  network.query(client, addr, query, sim::at(5 * sim::kSecond));
  ASSERT_EQ(server.log().size(), 1u);
  EXPECT_EQ(server.log().entries()[0].client, client.address);
  EXPECT_EQ(server.log().entries()[0].qname,
            Name::from_string("www.example.org"));
  EXPECT_GT(server.log().entries()[0].time, sim::at(5 * sim::kSecond));
  EXPECT_EQ(server.log().unique_clients(), 1u);
}

TEST(AuthServerTest, DeepestZoneWins) {
  Network network{sim::Rng{1}};
  auth::AuthServer server{"auth"};
  auto parent = std::make_shared<dns::Zone>(Name::from_string("net"));
  parent->add(dns::make_soa(Name::from_string("net"), dns::Ttl{3600},
                            Name::from_string("ns.net"), 1));
  parent->add(dns::make_ns(Name::from_string("cachetest.net"), dns::Ttl{3600},
                           Name::from_string("ns1.cachetest.net")));
  auto child =
      std::make_shared<dns::Zone>(Name::from_string("cachetest.net"));
  child->add(dns::make_soa(Name::from_string("cachetest.net"), dns::Ttl{3600},
                           Name::from_string("ns1.cachetest.net"), 1));
  child->add(dns::make_a(Name::from_string("www.cachetest.net"), dns::Ttl{60},
                         dns::Ipv4(1, 1, 1, 1)));
  server.add_zone(parent);
  server.add_zone(child);
  Address addr = network.attach(server, Location{});
  NodeRef client{dns::Ipv4(10, 0, 0, 99), Location{}};
  auto query = dns::Message::make_query(
      1, Name::from_string("www.cachetest.net"), RRType::kA);
  auto outcome = network.query(client, addr, query, sim::Time{});
  ASSERT_TRUE(outcome.response.has_value());
  // Served from the child zone (authoritative answer), not a referral.
  EXPECT_TRUE(outcome.response->flags.aa);
  EXPECT_EQ(outcome.response->answers.size(), 1u);
}

// --- Zone selection oracle --------------------------------------------------
//
// AuthServer picks the zone to answer from through an origin index.  The
// reference below is the plain definition it must match: scan the attached
// zones in attachment order and keep the first one with the deepest origin
// that encloses the qname.

std::shared_ptr<dns::Zone> reference_best_zone(
    const std::vector<std::shared_ptr<dns::Zone>>& zones, const Name& qname) {
  std::shared_ptr<dns::Zone> best;
  std::size_t best_depth = 0;
  for (const auto& zone : zones) {
    if (!qname.is_subdomain_of(zone->origin())) {
      continue;
    }
    std::size_t depth = zone->origin().label_count() + 1;  // +1: root matches
    if (best == nullptr || depth > best_depth) {
      best = zone;
      best_depth = depth;
    }
  }
  return best;
}

// What a server would answer for @p query if it served from @p zone: a
// one-zone server's reply, or REFUSED with empty sections for no zone.
dns::Message reference_answer(std::shared_ptr<dns::Zone> zone,
                              const dns::Message& query) {
  if (zone == nullptr) {
    auto response = dns::Message::make_response(query);
    response.flags.rd = query.flags.rd;
    response.flags.ra = false;
    response.flags.rcode = dns::Rcode::kRefused;
    return response;
  }
  auth::AuthServer single{"reference"};
  single.add_zone(std::move(zone));
  return single.handle_query(query, Address{}, sim::Time{})->message;
}

// A zone at @p origin whose records carry @p tag, so two zones with the same
// origin give different answers.  Each zone delegates every child origin in
// @p children, so a parent zone answers a child's names with a referral.
std::shared_ptr<dns::Zone> tagged_zone(const std::string& origin, int tag,
                                       const std::vector<std::string>& children) {
  Name apex = Name::from_string(origin);
  auto zone = std::make_shared<dns::Zone>(apex);
  zone->add(dns::make_soa(apex, dns::Ttl{3600},
                          Name::from_string("ns.example"),
                          static_cast<std::uint32_t>(tag)));
  zone->add(dns::make_ns(apex, dns::Ttl{3600}, Name::from_string("ns.example")));
  zone->add(dns::make_a(apex.prepend("www"), dns::Ttl{60},
                        dns::Ipv4(10, 0, static_cast<std::uint8_t>(tag), 1)));
  zone->add(dns::make_txt(apex, dns::Ttl{60}, "zone " + std::to_string(tag)));
  for (const auto& child : children) {
    Name cut = Name::from_string(child);
    zone->add(dns::make_ns(cut, dns::Ttl{172800},
                           Name::from_string("ns1." + child)));
    zone->add(dns::make_a(Name::from_string("ns1." + child),
                          dns::Ttl{172800},
                          dns::Ipv4(10, 1, static_cast<std::uint8_t>(tag), 1)));
  }
  return zone;
}

// The origins of the randomized pool and, for each, its child origins.
struct PoolOrigin {
  std::string origin;
  std::vector<std::string> children;
};

const std::vector<PoolOrigin>& pool_origins() {
  static const std::vector<PoolOrigin> origins = {
      {".", {"com", "org"}},
      {"com", {"a.com", "b.com"}},
      {"org", {"a.org"}},
      {"a.com", {"x.a.com"}},
      {"b.com", {}},
      {"a.org", {"y.a.org"}},
      {"x.a.com", {}},
      {"y.a.org", {}},
  };
  return origins;
}

// Query names covering in-zone names, names deeper than every origin,
// names under no pooled origin but the root, and mixed case.
std::vector<Name> oracle_qnames() {
  std::vector<Name> names;
  for (const auto& entry : pool_origins()) {
    Name apex = Name::from_string(entry.origin);
    names.push_back(apex);
    names.push_back(apex.prepend("www"));
    names.push_back(apex.prepend("www").prepend("deep").prepend("deeper"));
    names.push_back(apex.prepend("missing"));
  }
  for (const char* text :
       {"elsewhere.net", "www.elsewhere.net", "zz", "WWW.A.Com",
        "Deep.X.A.COM", "Ns1.X.a.com", "A.ORG", "www.Y.a.Org"}) {
    names.push_back(Name::from_string(text));
  }
  return names;
}

std::size_t pick(sim::Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(rng.uniform_int(0, n - 1));
}

void expect_same_answers(auth::AuthServer& server,
                         const std::vector<std::shared_ptr<dns::Zone>>& ref,
                         const std::string& context) {
  std::uint16_t id = 1;
  for (const Name& qname : oracle_qnames()) {
    for (RRType qtype : {RRType::kA, RRType::kNS, RRType::kSOA,
                         RRType::kTXT, RRType::kAAAA}) {
      auto query = dns::Message::make_query(id++, qname, qtype);
      auto reply = server.handle_query(query, Address{}, sim::Time{});
      ASSERT_TRUE(reply.has_value());
      const dns::Message& got = reply->message;
      dns::Message want =
          reference_answer(reference_best_zone(ref, qname), query);
      SCOPED_TRACE(context + " qname=" + qname.to_string() +
                   " qtype=" + std::to_string(static_cast<int>(qtype)));
      EXPECT_EQ(got.flags.rcode, want.flags.rcode);
      EXPECT_EQ(got.flags.aa, want.flags.aa);
      EXPECT_EQ(got.answers, want.answers);
      EXPECT_EQ(got.authorities, want.authorities);
      EXPECT_EQ(got.additionals, want.additionals);
      EXPECT_EQ(got, want);
    }
  }
}

TEST(AuthServerTest, ZoneSelectionMatchesLinearScanUnderRandomEdits) {
  // Two zones per origin, so duplicate origins are always in play.
  std::vector<std::shared_ptr<dns::Zone>> pool;
  int tag = 1;
  for (const auto& entry : pool_origins()) {
    for (int copy = 0; copy < 2; ++copy) {
      pool.push_back(tagged_zone(entry.origin, tag++, entry.children));
    }
  }
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    sim::Rng rng{seed};
    auth::AuthServer server{"auth"};
    std::vector<std::shared_ptr<dns::Zone>> ref;
    for (int step = 0; step < 40; ++step) {
      std::string context =
          "seed=" + std::to_string(seed) + " step=" + std::to_string(step);
      const auto& zone = pool[pick(rng, pool.size())];
      if (ref.empty() || pick(rng, 3) != 0) {
        // Adding may re-add an attached shared_ptr: zones() then holds it
        // twice, as the plain vector it is.
        server.add_zone(zone);
        ref.push_back(zone);
      } else {
        // Half the removals name an attached zone, half a random one.
        const auto& victim = pick(rng, 2) == 0
                                 ? ref[pick(rng, ref.size())]
                                 : zone;
        auto it = std::find(ref.begin(), ref.end(), victim);
        bool attached = it != ref.end();
        std::shared_ptr<dns::Zone> held = victim;
        if (attached) {
          ref.erase(it);
        }
        EXPECT_EQ(server.remove_zone(held), attached) << context;
      }
      ASSERT_EQ(server.zones(), ref) << context;
      expect_same_answers(server, ref, context);
    }
  }
}

TEST(AuthServerTest, RootOnlyServerAnswersEveryName) {
  auth::AuthServer server{"root"};
  auto root = tagged_zone(".", 1, {"com", "org"});
  server.add_zone(root);
  expect_same_answers(server, {root}, "root only");
  for (const Name& qname : oracle_qnames()) {
    auto reply = server.handle_query(
        dns::Message::make_query(1, qname, RRType::kA), Address{},
        sim::Time{});
    ASSERT_TRUE(reply.has_value());
    EXPECT_NE(reply->message.flags.rcode, dns::Rcode::kRefused)
        << qname.to_string();
  }
}

TEST(AuthServerTest, FirstAttachedZoneWinsAmongSameOrigin) {
  auto first = tagged_zone("a.com", 1, {});
  auto second = tagged_zone("a.com", 2, {});
  auto www_a = [](auth::AuthServer& server) {
    auto reply = server.handle_query(
        dns::Message::make_query(1, Name::from_string("www.a.com"),
                                 RRType::kA),
        Address{}, sim::Time{});
    return std::get<dns::ARdata>(reply.value().message.answers.at(0).rdata)
        .address;
  };
  auth::AuthServer server{"auth"};
  server.add_zone(first);
  server.add_zone(second);
  EXPECT_EQ(www_a(server), dns::Ipv4(10, 0, 1, 1));

  // Removing the first hands its origin to the second.
  ASSERT_TRUE(server.remove_zone(first));
  EXPECT_EQ(www_a(server), dns::Ipv4(10, 0, 2, 1));

  // Re-adding the first puts it after the second in zones(): the second,
  // now earlier, keeps answering.
  server.add_zone(first);
  EXPECT_EQ(www_a(server), dns::Ipv4(10, 0, 2, 1));
  ASSERT_TRUE(server.remove_zone(second));
  EXPECT_EQ(www_a(server), dns::Ipv4(10, 0, 1, 1));
  ASSERT_TRUE(server.remove_zone(first));
  auto refused = server.handle_query(
      dns::Message::make_query(1, Name::from_string("www.a.com"), RRType::kA),
      Address{}, sim::Time{});
  ASSERT_TRUE(refused.has_value());
  EXPECT_EQ(refused->message.flags.rcode, dns::Rcode::kRefused);
}

TEST(AuthServerTest, RemovingAZoneThroughZonesAliasIsSafe) {
  auth::AuthServer server{"auth"};
  server.add_zone(tagged_zone("a.com", 1, {}));
  server.add_zone(tagged_zone("com", 2, {"a.com"}));
  // The argument aliases the element being erased, and it is the only owner.
  ASSERT_TRUE(server.remove_zone(server.zones().front()));
  ASSERT_EQ(server.zones().size(), 1u);
  auto reply = server.handle_query(
      dns::Message::make_query(1, Name::from_string("www.a.com"), RRType::kA),
      Address{}, sim::Time{});
  ASSERT_TRUE(reply.has_value());
  EXPECT_FALSE(reply->message.flags.aa);  // referral from com
  EXPECT_TRUE(reply->message.answers.empty());
}

}  // namespace
}  // namespace dnsttl::net
