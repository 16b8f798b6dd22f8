#include "core/bailiwick_experiment.h"

#include <set>

namespace dnsttl::core {

const char* const kOldAnswer = "2001:db8::1";
const char* const kNewAnswer = "2001:db8::2";

namespace {

/// Fills a sub.cachetest.net zone copy: per-probe AAAA records with the
/// given marker answer.
void fill_sub_zone(dns::Zone& zone, const atlas::Platform& platform,
                   dns::Ttl answer_ttl, const char* marker) {
  const auto answer = dns::Ipv6::from_string(marker);
  for (const auto& probe : platform.probes()) {
    zone.add(dns::make_aaaa(
        zone.origin().prepend(std::string("p").append(std::to_string(probe.id))), answer_ttl,
        answer));
  }
}

}  // namespace

std::size_t BailiwickResult::sticky_vp_count() const {
  std::size_t count = 0;
  for (const auto& [key, vp] : vps) {
    if (vp.sticky()) ++count;
  }
  return count;
}

std::size_t BailiwickResult::sticky_resolver_count() const {
  std::set<std::uint32_t> resolvers;
  for (const auto& [key, vp] : vps) {
    if (vp.sticky()) {
      resolvers.insert(vp.resolver.value());
    }
  }
  return resolvers.size();
}

double BailiwickResult::switched_fraction_by(double minute) const {
  std::size_t eligible = 0;
  std::size_t switched = 0;
  for (const auto& [key, vp] : vps) {
    if (!vp.answered_first_round) continue;
    ++eligible;
    if (vp.first_new_minute && *vp.first_new_minute <= minute) ++switched;
  }
  return eligible == 0 ? 0.0
                       : static_cast<double>(switched) /
                             static_cast<double>(eligible);
}

BailiwickResult run_bailiwick(World& world, atlas::Platform& platform,
                              const BailiwickConfig& config) {
  const auto sub_origin = dns::Name::from_string("sub.cachetest.net");
  const auto cachetest = dns::Name::from_string("cachetest.net");

  // .net and the cachetest.net zone on two EU servers (EC2 Frankfurt).
  auto net_zone = world.add_tld("net", "a.gtld-servers", dns::kTtl2Days,
                                dns::kTtl1Day, dns::kTtl1Day,
                                net::Location{net::Region::kNA, 1.0});
  auto ct_zone = world.create_zone("cachetest.net", dns::Ttl{3600});
  std::vector<std::pair<dns::Name, net::Address>> ct_servers;
  for (const char* label : {"ns1", "ns2"}) {
    auto ns_name = cachetest.prepend(label);
    auto& server = world.add_server(ns_name.to_string(),
                                    net::Location{net::Region::kEU, 1.0});
    server.add_zone(ct_zone);
    auto address = world.address_of(ns_name.to_string());
    ct_zone->add(dns::make_ns(cachetest, dns::Ttl{3600}, ns_name));
    ct_zone->add(dns::make_a(ns_name, dns::Ttl{3600}, address));
    ct_servers.emplace_back(ns_name, address);
  }
  world.delegate(*net_zone, cachetest, ct_servers, dns::kTtl2Days,
                 dns::kTtl2Days);

  // Old and new copies of the probed zone.
  auto sub_old = world.create_zone("sub.cachetest.net", config.ns_ttl);
  auto sub_new = world.create_zone("sub.cachetest.net", config.ns_ttl);
  fill_sub_zone(*sub_old, platform, config.answer_ttl, kOldAnswer);
  fill_sub_zone(*sub_new, platform, config.answer_ttl, kNewAnswer);

  auto& old_server = world.add_server("sub-original",
                                      net::Location{net::Region::kEU, 1.0});
  auto& new_server = world.add_server("sub-renumbered",
                                      net::Location{net::Region::kEU, 1.0});
  old_server.set_logging(true);
  new_server.set_logging(true);
  net::Address old_addr = world.address_of("sub-original");
  net::Address new_addr = world.address_of("sub-renumbered");
  old_server.add_zone(sub_old);
  new_server.add_zone(sub_new);

  if (config.in_bailiwick) {
    const auto ns_name = sub_origin.prepend("ns3");
    for (auto& [zone, addr] :
         {std::pair{sub_old, old_addr}, std::pair{sub_new, new_addr}}) {
      zone->add(dns::make_ns(sub_origin, config.ns_ttl, ns_name));
      zone->add(dns::make_a(ns_name, config.a_ttl, addr));
    }
    // Parent-side copies (equal TTLs, per §4.2's setup).
    world.delegate(*ct_zone, sub_origin, {{ns_name, old_addr}},
                   config.ns_ttl, config.a_ttl);
    // Renumber: the parent glue moves to the new server.
    world.simulation().schedule_at(sim::at(config.renumber_at), [ct_zone, ns_name,
                                                        new_addr] {
      ct_zone->renumber_a(ns_name, new_addr);
    });
  } else {
    // Out-of-bailiwick: ns1.zurroundeddu.com, self-hosted under .com.
    auto com_zone = world.add_tld("com", "a.nic", dns::kTtl2Days,
                                  dns::kTtl1Day, dns::kTtl1Day,
                                  net::Location{net::Region::kNA, 1.0});
    const auto zu_origin = dns::Name::from_string("zurroundeddu.com");
    const auto ns_name = zu_origin.prepend("ns1");

    auto zu_old = world.create_zone("zurroundeddu.com", dns::kTtl2Days);
    auto zu_new = world.create_zone("zurroundeddu.com", dns::kTtl2Days);
    for (auto& [zone, addr] :
         {std::pair{zu_old, old_addr}, std::pair{zu_new, new_addr}}) {
      zone->add(dns::make_ns(zu_origin, dns::kTtl2Days, ns_name));
      zone->add(dns::make_a(ns_name, config.a_ttl, addr));
    }
    old_server.add_zone(zu_old);
    new_server.add_zone(zu_new);
    world.delegate(*com_zone, zu_origin, {{ns_name, old_addr}},
                   dns::kTtl2Days, dns::kTtl2Days);

    // The probed zone's NS points out of zone; no glue anywhere in .net.
    for (auto& zone : {sub_old, sub_new}) {
      zone->add(dns::make_ns(sub_origin, config.ns_ttl, ns_name));
    }
    world.delegate(*ct_zone, sub_origin, {{ns_name, net::Address{}}},
                   config.ns_ttl, config.a_ttl);

    // Renumber: .com supports dynamic updates (visible in seconds), so the
    // glue and the child copy both move at t = renumber_at.
    world.simulation().schedule_at(sim::at(config.renumber_at), [com_zone, ns_name,
                                                        new_addr] {
      com_zone->renumber_a(ns_name, new_addr);
    });
  }

  // The measurement itself: AAAA PROBEID.sub.cachetest.net.
  atlas::MeasurementSpec spec;
  spec.name = config.in_bailiwick ? "in-bailiwick" : "out-of-bailiwick";
  spec.qname = sub_origin;
  spec.per_probe_qname = true;
  spec.qtype = dns::RRType::kAAAA;
  spec.frequency = config.frequency;
  spec.duration = config.duration;
  spec.shard_count = config.shard_count;
  spec.shard_index = config.shard_index;

  BailiwickResult result{
      atlas::MeasurementRun::execute(world.simulation(), world.network(),
                                     platform, spec, world.rng()),
      stats::BinnedSeries{10 * sim::kMinute},
      {}};

  // Map resolver address -> slot per probe for VP keying.
  std::map<std::pair<int, std::uint32_t>, int> slot_of;
  for (const auto& probe : platform.probes()) {
    for (std::size_t s = 0; s < probe.resolvers.size(); ++s) {
      slot_of[{probe.id, probe.resolvers[s].value()}] =
          static_cast<int>(s);
    }
  }

  for (const auto& sample : result.run.samples()) {
    if (sample.timeout || !sample.has_answer) continue;
    const bool is_old = sample.rdata == kOldAnswer;
    const bool is_new = sample.rdata == kNewAnswer;
    if (!is_old && !is_new) continue;
    result.series.record(is_old ? "original" : "new", sample.sent);

    auto key = std::make_pair(
        sample.probe_id, slot_of[{sample.probe_id, sample.resolver.value()}]);
    auto& vp = result.vps[key];
    vp.probe_id = sample.probe_id;
    vp.slot = key.second;
    vp.resolver = sample.resolver;
    ++vp.responses;
    if (is_old) ++vp.old_responses;
    if (is_new) {
      ++vp.new_responses;
      double minute = sim::to_seconds(sample.sent.since_epoch()) / 60.0;
      if (!vp.first_new_minute || minute < *vp.first_new_minute) {
        vp.first_new_minute = minute;
      }
    }
    if (sample.sent.since_epoch() < config.frequency) {
      vp.answered_first_round = true;
    }
  }
  return result;
}

std::vector<double> matched_vp_new_ratios(
    const BailiwickResult& in_bailiwick, const BailiwickResult& out_bailiwick) {
  std::vector<double> ratios;
  for (const auto& [key, vp] : out_bailiwick.vps) {
    if (!vp.sticky()) continue;
    auto it = in_bailiwick.vps.find(key);
    if (it != in_bailiwick.vps.end() && it->second.responses > 0) {
      ratios.push_back(it->second.new_ratio());
    }
  }
  return ratios;
}

}  // namespace dnsttl::core
