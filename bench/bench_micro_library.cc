// Library micro-benchmarks: wire codec, cache operations, zone lookups,
// and full recursive resolutions — the raw throughput behind the
// experiment harness.
//
// Two suites share this binary:
//  - a hand-timed "quick suite" (bench_quick_suite.h) covering the event
//    loop, cache and Name hot paths; it runs in a bounded time and can
//    emit a machine-readable report via --json <path>;
//  - the google-benchmark suite below, skipped under --quick (pass
//    --benchmark_filter=... etc. through to it as usual).

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "bench_quick_suite.h"

#include "auth/auth_server.h"
#include "auth/entrada.h"
#include "crawl/population_generator.h"
#include "dns/dnssec.h"
#include "dns/master_file.h"
#include "cache/cache.h"
#include "core/world.h"
#include "dns/wire.h"
#include "resolver/recursive_resolver.h"

using namespace dnsttl;

namespace {

dns::Message sample_response() {
  auto query = dns::Message::make_query(
      42, dns::Name::from_string("a.nic.cl"), dns::RRType::kNS);
  auto response = dns::Message::make_response(query);
  response.flags.aa = true;
  auto zone = dns::Name::from_string("cl");
  for (char c : {'a', 'b', 'c', 'd'}) {
    auto ns = dns::Name::from_string(std::string(1, c) + ".nic.cl");
    response.answers.push_back(dns::make_ns(zone, dns::Ttl{3600}, ns));
    response.additionals.push_back(
        dns::make_a(ns, dns::Ttl{43200}, dns::Ipv4(190, 124, 27, 10)));
  }
  return response;
}

void BM_NameParse(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dns::Name::from_string("very.long.sub.domain.example.org"));
  }
}
BENCHMARK(BM_NameParse);

void BM_NameBailiwickCheck(benchmark::State& state) {
  auto host = dns::Name::from_string("ns1.sub.cachetest.net");
  auto zone = dns::Name::from_string("cachetest.net");
  for (auto _ : state) {
    benchmark::DoNotOptimize(host.in_bailiwick_of(zone));
  }
}
BENCHMARK(BM_NameBailiwickCheck);

void BM_WireEncode(benchmark::State& state) {
  auto message = sample_response();
  for (auto _ : state) {
    benchmark::DoNotOptimize(dns::encode(message));
  }
}
BENCHMARK(BM_WireEncode);

void BM_WireDecode(benchmark::State& state) {
  auto wire = dns::encode(sample_response());
  for (auto _ : state) {
    benchmark::DoNotOptimize(dns::decode(wire));
  }
}
BENCHMARK(BM_WireDecode);

void BM_WireRoundTrip(benchmark::State& state) {
  auto message = sample_response();
  for (auto _ : state) {
    benchmark::DoNotOptimize(dns::decode(dns::encode(message)));
  }
}
BENCHMARK(BM_WireRoundTrip);

void BM_CacheInsert(benchmark::State& state) {
  cache::Cache cache;
  dns::RRset rrset(dns::Name::from_string("x.example.org"),
                   dns::RClass::kIN, dns::Ttl{3600});
  rrset.add(dns::ARdata{dns::Ipv4(1, 2, 3, 4)});
  sim::Time t{};
  for (auto _ : state) {
    cache.insert(rrset, cache::Credibility::kAuthAnswer, t);
    t += sim::kSecond;
  }
}
BENCHMARK(BM_CacheInsert);

void BM_CacheLookupHit(benchmark::State& state) {
  cache::Cache cache;
  for (int i = 0; i < 1000; ++i) {
    dns::RRset rrset(
        dns::Name::from_string("h" + std::to_string(i) + ".example.org"),
        dns::RClass::kIN, dns::Ttl{86400});
    rrset.add(dns::ARdata{dns::Ipv4(static_cast<std::uint32_t>(i))});
    cache.insert(rrset, cache::Credibility::kAuthAnswer, sim::Time{});
  }
  auto name = dns::Name::from_string("h500.example.org");
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.lookup(name, dns::RRType::kA, sim::Time{1000}));
  }
}
BENCHMARK(BM_CacheLookupHit);

void BM_ZoneLookup(benchmark::State& state) {
  dns::Zone zone{dns::Name::from_string("example.org")};
  zone.add(dns::make_soa(dns::Name::from_string("example.org"), dns::Ttl{3600},
                         dns::Name::from_string("ns1.example.org"), 1));
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    zone.add(dns::make_a(
        dns::Name::from_string("h" + std::to_string(i) + ".example.org"),
        dns::Ttl{300}, dns::Ipv4(static_cast<std::uint32_t>(i))));
  }
  auto qname = dns::Name::from_string(
      "h" + std::to_string(state.range(0) / 2) + ".example.org");
  for (auto _ : state) {
    benchmark::DoNotOptimize(zone.lookup(qname, dns::RRType::kA));
  }
}
BENCHMARK(BM_ZoneLookup)->Arg(100)->Arg(10000)->Arg(100000);

void BM_FullResolutionColdCache(benchmark::State& state) {
  core::World world{core::World::Options{1, 0.0, {}}};
  world.add_tld("uy", "a.nic", dns::kTtl2Days, dns::kTtl5Min, dns::Ttl{120},
                net::Location{net::Region::kSA, 1.0});
  resolver::RecursiveResolver resolver("bench",
                                       resolver::child_centric_config(),
                                       world.network(), world.hints());
  net::Location location{net::Region::kEU, 1.0};
  auto address = world.network().attach(resolver, location);
  resolver.set_node_ref(net::NodeRef{address, location});
  dns::Question question{dns::Name::from_string("uy"), dns::RRType::kNS,
                         dns::RClass::kIN};
  sim::Time t{};
  for (auto _ : state) {
    resolver.flush();
    benchmark::DoNotOptimize(resolver.resolve(question, t));
    t += sim::kSecond;
  }
}
BENCHMARK(BM_FullResolutionColdCache);

void BM_FullResolutionWarmCache(benchmark::State& state) {
  core::World world{core::World::Options{1, 0.0, {}}};
  world.add_tld("uy", "a.nic", dns::kTtl2Days, dns::kTtl1Day, dns::kTtl1Day,
                net::Location{net::Region::kSA, 1.0});
  resolver::RecursiveResolver resolver("bench",
                                       resolver::child_centric_config(),
                                       world.network(), world.hints());
  net::Location location{net::Region::kEU, 1.0};
  auto address = world.network().attach(resolver, location);
  resolver.set_node_ref(net::NodeRef{address, location});
  dns::Question question{dns::Name::from_string("uy"), dns::RRType::kNS,
                         dns::RClass::kIN};
  resolver.resolve(question, sim::Time{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(resolver.resolve(question, sim::at(sim::kSecond)));
  }
}
BENCHMARK(BM_FullResolutionWarmCache);

void BM_MasterFileParse(benchmark::State& state) {
  std::string text = "$ORIGIN bench.example.\n$TTL 3600\n";
  text += "@ IN SOA ns1 hostmaster 1 7200 3600 1209600 3600\n";
  for (int i = 0; i < 200; ++i) {
    text += "h" + std::to_string(i) + " 300 IN A 10.0.0." +
            std::to_string(i % 250 + 1) + "\n";
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(dns::parse_master_file(
        text, dns::Name::from_string("bench.example")));
  }
}
BENCHMARK(BM_MasterFileParse);

void BM_DnssecSignZone(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    dns::Zone zone{dns::Name::from_string("bench.example")};
    zone.add(dns::make_soa(dns::Name::from_string("bench.example"), dns::Ttl{3600},
                           dns::Name::from_string("ns1.bench.example"), 1));
    for (int i = 0; i < 100; ++i) {
      zone.add(dns::make_a(
          dns::Name::from_string(std::string("h")
                                     .append(std::to_string(i))
                                     .append(".bench.example")),
          dns::Ttl{300}, dns::Ipv4(static_cast<std::uint32_t>(i))));
    }
    state.ResumeTiming();
    dns::sign_zone(zone, dns::make_zone_key(
                             dns::Name::from_string("bench.example")));
  }
}
BENCHMARK(BM_DnssecSignZone);

void BM_DnssecVerify(benchmark::State& state) {
  auto key = dns::make_zone_key(dns::Name::from_string("bench.example"));
  dns::RRset rrset(dns::Name::from_string("www.bench.example"),
                   dns::RClass::kIN, dns::Ttl{300});
  rrset.add(dns::ARdata{dns::Ipv4(10, 0, 0, 1)});
  auto rrsig = dns::make_rrsig(rrset, dns::Name::from_string("bench.example"),
                               key);
  const auto& sig = std::get<dns::RrsigRdata>(rrsig.rdata);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dns::verify_rrsig(rrset, sig, key));
  }
}
BENCHMARK(BM_DnssecVerify);

void BM_PopulationGenerate(benchmark::State& state) {
  auto params = crawl::alexa_params(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    sim::Rng rng(7);
    benchmark::DoNotOptimize(crawl::generate_population(params, rng));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PopulationGenerate)->Arg(1000)->Arg(10000);

void BM_EntradaAnalysis(benchmark::State& state) {
  auth::QueryLog log;
  sim::Rng rng(3);
  for (int i = 0; i < 20000; ++i) {
    log.record({sim::at(static_cast<std::int64_t>(rng.uniform_int(0, 48)) *
                        sim::kHour),
                dns::Ipv4(static_cast<std::uint32_t>(rng.uniform_int(1, 500))),
                dns::Name::from_string(
                    "ns" + std::to_string(rng.uniform_int(1, 4)) + ".dns.nl"),
                dns::RRType::kA});
  }
  for (auto _ : state) {
    auth::Entrada store;
    store.ingest(log, "bench");
    benchmark::DoNotOptimize(store.queries_per_group());
    benchmark::DoNotOptimize(store.min_interarrival_hours());
  }
}
BENCHMARK(BM_EntradaAnalysis);

void BM_SimulationEventLoop(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation simulation;
    std::uint64_t fired = 0;
    std::function<void()> chain = [&] {
      if (++fired < 10000) {
        simulation.schedule_after(sim::kMillisecond, chain);
      }
    };
    simulation.schedule_after(sim::kMillisecond, chain);
    simulation.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SimulationEventLoop);

void BM_SimulationScheduleCancel(benchmark::State& state) {
  sim::Simulation simulation;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    auto id = simulation.schedule_after(sim::kSecond, [&sink] { ++sink; });
    simulation.cancel(id);
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_SimulationScheduleCancel);

}  // namespace

int main(int argc, char** argv) {
  // Split our flags from google-benchmark's (--benchmark_*); reject
  // anything unrecognized with a usage message.
  bench::BenchArgs args;
  args.scale = 0.5;  // full quick-suite default: ~a few seconds
  std::vector<char*> benchmark_args;
  benchmark_args.push_back(argv[0]);
  const char* program = argv[0];
  for (int i = 1; i < argc;) {
    if (std::strncmp(argv[i], "--benchmark", 11) == 0) {
      benchmark_args.push_back(argv[i]);
      ++i;
      continue;
    }
    int consumed = args.consume(program, argc, argv, i);
    if (consumed == 0) {
      std::fprintf(stderr, "%s: unknown flag \"%s\"\n", program, argv[i]);
      bench::BenchArgs::print_usage(program);
      std::fprintf(stderr,
                   "  (google-benchmark --benchmark_* flags pass through)\n");
      return 2;
    }
    i += consumed;
  }
  if (args.scale <= 0.0) {
    args.scale = 0.5;
  }

  auto suite_start = std::chrono::steady_clock::now();
  auto metrics = bench::run_quick_suite(args.scale);
  double total_wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    suite_start)
          .count();
  std::printf("quick suite (scale %g):\n", args.scale);
  for (const auto& m : metrics) {
    std::printf("  %-22s %14.0f %-12s (%llu ops, %.3f s)\n", m.name.c_str(),
                m.ops_per_sec, m.unit.c_str(),
                static_cast<unsigned long long>(m.ops), m.wall_seconds);
  }
  if (!args.json_path.empty()) {
    bench::JsonReport report("micro_library", args);
    for (const auto& m : metrics) {
      report.add_metric(m.name, m.unit, m.ops, m.wall_seconds, m.ops_per_sec);
    }
    if (!report.write(args.json_path, total_wall)) {
      return 1;
    }
    std::printf("wrote %s\n", args.json_path.c_str());
  }
  if (args.quick) {
    return 0;  // --quick: the bounded suite above is the whole run
  }

  int benchmark_argc = static_cast<int>(benchmark_args.size());
  benchmark::Initialize(&benchmark_argc, benchmark_args.data());
  if (benchmark::ReportUnrecognizedArguments(benchmark_argc,
                                             benchmark_args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
