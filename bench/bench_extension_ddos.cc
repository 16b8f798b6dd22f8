// Extension experiment: TTLs as DDoS resilience (the paper's §6.1
// motivation, quantified in the style of Moura et al. 2018, "When the Dike
// Breaks").  An authoritative service goes dark for a fixed window; the
// fraction of client queries still answered during the attack is measured
// as a function of the record TTL, for plain caches and for RFC 8767
// serve-stale caches.  The paper's qualitative claim — caching rides out
// attacks shorter than the TTL; serve-stale rides out anything — becomes a
// table.

#include <vector>

#include "bench_common.h"
#include "core/world.h"
#include "dns/rr.h"
#include "resolver/recursive_resolver.h"
#include "stats/table.h"

using namespace dnsttl;

namespace {

struct Cell {
  double answered = 0.0;
  double stale_answered = 0.0;
};

Cell run_cell(std::uint64_t seed, dns::Ttl ttl,
              sim::Duration attack_duration) {
  const sim::Duration attack_start = 2 * sim::kHour;  // long steady warm-up
  const sim::Duration interval = 5 * sim::kMinute;
  const int kResolvers = 16;  // staggered phases average out TTL alignment

  Cell cell;
  for (bool stale : {false, true}) {
    core::World world{core::World::Options{seed, 0.0, {}}};
    auto zone = world.add_tld("shop", "ns1", dns::kTtl1Day, dns::kTtl1Day,
                              dns::kTtl1Day,
                              net::Location{net::Region::kNA, 1.0});
    zone->add(dns::make_a(dns::Name::from_string("www.shop"), ttl,
                          dns::Ipv4(10, 1, 0, 1)));

    auto config = resolver::child_centric_config();
    config.serve_stale = stale;
    std::vector<std::unique_ptr<resolver::RecursiveResolver>> resolvers;
    std::vector<sim::Time> phases;
    sim::Rng rng(seed + ttl.value());
    for (int i = 0; i < kResolvers; ++i) {
      auto r = std::make_unique<resolver::RecursiveResolver>(
          std::string("r").append(std::to_string(i)), config, world.network(), world.hints());
      net::Location eu{net::Region::kEU, 1.0};
      r->set_node_ref(net::NodeRef{world.network().attach(*r, eu), eu});
      resolvers.push_back(std::move(r));
      // Each resolver first learns the record at a random point within one
      // TTL cycle, so the remaining-TTL at attack time is uniform — the
      // steady-state of real, unsynchronized demand.
      double max_phase = std::min<double>(
          static_cast<double>(ttl.value()) * static_cast<double>(sim::kSecond.count()),
          static_cast<double>((attack_start - sim::kMinute).count()));
      phases.push_back(sim::Time(static_cast<std::int64_t>(
          rng.uniform(0.0, std::max<double>(max_phase, 1.0)))));
    }

    dns::Question question{dns::Name::from_string("www.shop"),
                           dns::RRType::kA, dns::RClass::kIN};
    int asked = 0;
    int answered = 0;
    for (int i = 0; i < kResolvers; ++i) {
      // Poisson demand: misses (and thus refreshes) land at random points
      // in the TTL window, like real client traffic — no phase locking.
      sim::Time t = phases[static_cast<std::size_t>(i)];
      while (t < sim::at(attack_start + attack_duration)) {
        if (t >= sim::at(attack_start) && world.server("ns1.shop.").online()) {
          world.server("ns1.shop.").set_online(false);  // the attack begins
        }
        auto result = resolvers[static_cast<std::size_t>(i)]->resolve(
            question, t);
        if (t >= sim::at(attack_start)) {
          ++asked;
          if (result.response.flags.rcode == dns::Rcode::kNoError &&
              !result.response.answers.empty()) {
            ++answered;
          }
        }
        t += sim::approx_seconds(rng.exponential(sim::to_seconds(interval)));
      }
      world.server("ns1.shop.").set_online(true);  // reset for next resolver
    }
    double fraction =
        asked == 0 ? 0.0
                   : static_cast<double>(answered) / static_cast<double>(asked);
    (stale ? cell.stale_answered : cell.answered) = fraction;
  }
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  auto args = bench::BenchArgs::parse(argc, argv);
  bench::print_header("Extension",
                      "caching as DDoS resilience: answered fraction during "
                      "an authoritative outage");

  const std::vector<dns::Ttl> ttls = {dns::Ttl{60}, dns::Ttl{300},   dns::Ttl{900},   dns::Ttl{1800},
                                      dns::Ttl{3600}, dns::Ttl{14400}, dns::Ttl{86400}};
  const std::vector<sim::Duration> attacks = {30 * sim::kMinute, sim::kHour,
                                              4 * sim::kHour, 8 * sim::kHour};

  for (bool stale : {false, true}) {
    std::printf("--- %s ---\n",
                stale ? "serve-stale resolver (RFC 8767)" : "plain resolver");
    stats::TablePrinter table({"TTL \\ attack", "30 min", "1 h", "4 h",
                               "8 h"});
    for (dns::Ttl ttl : ttls) {
      std::vector<std::string> cells{std::to_string(ttl.value()) + " s"};
      for (auto attack : attacks) {
        auto cell = run_cell(args.seed, ttl, attack);
        cells.push_back(stats::fmt(
            "%3.0f%%", 100.0 * (stale ? cell.stale_answered : cell.answered)));
      }
      table.add_row(std::move(cells));
    }
    std::printf("%s\n", table.render().c_str());
  }

  auto short_long = run_cell(args.seed, dns::Ttl{3600}, sim::kHour);
  std::printf("%s", stats::compare_line(
                        "caching survives attacks shorter than the TTL",
                        "Moura et al. 2018 / paper §6.1",
                        stats::fmt("TTL 3600 s vs 1 h attack: %.0f%% answered",
                                   100 * short_long.answered))
                        .c_str());
  std::printf("%s", stats::compare_line(
                        "serve-stale rides out any outage with a warm cache",
                        "RFC 8767 rationale",
                        stats::fmt("%.0f%% answered",
                                   100 * short_long.stale_answered))
                        .c_str());
  return 0;
}
