// Real-stack benchmark: one workload, one seed, one process, one
// thread.  Every timed resolution is a sim::Simulation event in which a
// resolver::StubResolver asks a resolver::RecursiveResolver across
// net::Network; the resolver answers from its cache::Cache or iterates
// through auth::AuthServers that serve generated dns::Zones.
//
//   stack_bench --workload <warm_popular|cold_hosted|evict_churn>
//               --seed <n> --seconds <s> [--spans <path>]
//
// The process sets the workload up repeatedly (setup_s is the median):
// set-ups only until they have taken kSetupOnlySeconds, then one timed for
// --seconds of wall time with tracing off, then one that records messages
// and one with tracing on, both up to a fixed resolution count.  The three
// runs must agree on a fingerprint taken at that count.  The last
// stdout line is a JSON object; stackbench/run.py turns it into the
// benchmark's result line.  Exit codes: 0 ok, 1 wrong answer or
// fingerprint mismatch, 2 bad arguments.
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "cache/cache.h"
#include "core/world.h"
#include "dns/message.h"
#include "dns/wire.h"
#include "dns/zone.h"
#include "resolver/config.h"
#include "resolver/recursive_resolver.h"
#include "resolver/stub.h"
#include "sim/rng.h"
#include "sim/simulation.h"

namespace {

using namespace dnsttl;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// The @p q quantile of @p v, interpolated between ranks (0 when empty).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

// ------------------------------------------------------------- workloads

/// One workload's generated world and demand.  See stackbench/README.md
/// for why each one exists and which layers it loads.
struct Workload {
  const char* name;
  std::size_t zones;           ///< SLD zones under the one TLD
  std::size_t names_per_zone;  ///< A-record names per SLD zone
  std::size_t hosts;           ///< AuthServers the SLD zones are spread over
  std::uint32_t ttl_lo;        ///< SLD record TTLs drawn from [lo, hi] s
  std::uint32_t ttl_hi;
  double zipf;                 ///< popularity exponent; 0 = cyclic sweep
  std::size_t cache_max;       ///< resolver cache_max_entries (0 unbounded)
  std::size_t warmup;          ///< untimed resolutions (0 = every name once)
  double rate;                 ///< aggregate arrivals per virtual second
  std::size_t stubs;
  std::size_t checkpoint;      ///< timed resolutions in the traced run
};

constexpr Workload kWorkloads[] = {
    // Pareto-popular names, long TTLs, every name cached before timing.
    {"warm_popular", 2000, 10, 4, 3600, 86400, 1.0, 0, 0, 50000.0, 10000,
     200000},
    // Each resolution asks for a zone the cache no longer holds: the
    // sweep revisits a zone only after its 300 s TTL ran out.
    {"cold_hosted", 12000, 1, 4, 300, 300, 0.0, 0, 0, 20.0, 10000, 8000},
    // Flat popularity over a working set far above the LRU bound.
    {"evict_churn", 10000, 10, 20, 30, 300, 0.9, 40000, 60000, 2000.0,
     10000, 100000},
};

const Workload* find_workload(std::string_view name) {
  for (const auto& w : kWorkloads) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

// --------------------------------------------------------------- tracing

enum Layer : std::uint8_t { kSim, kEvent, kStub, kResolver, kAuth, kLayers };
constexpr const char* kLayerNames[kLayers] = {"sim", "event", "stub",
                                              "resolver", "auth"};

struct Span {
  std::uint32_t parent;      ///< 1-based id of the enclosing span, 0 = root
  std::uint32_t resolution;  ///< timed resolution index
  Layer layer;
  Clock::time_point start;
  Clock::time_point end;
};

/// In-memory span recorder.  On only in the traced run's timed phase.
struct Tracer {
  bool on = false;
  std::uint32_t resolution = 0;
  std::vector<Span> spans;
  std::vector<std::uint32_t> open_stack;

  std::uint32_t open(Layer layer) {
    std::uint32_t parent = open_stack.empty() ? 0 : open_stack.back();
    spans.push_back(Span{parent, resolution, layer, Clock::now(), {}});
    auto id = static_cast<std::uint32_t>(spans.size());
    open_stack.push_back(id);
    return id;
  }
  void close(std::uint32_t id) {
    spans[id - 1].end = Clock::now();
    open_stack.pop_back();
  }

  /// Writes one TSV row per span; times are ns since the first span.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    std::fprintf(f, "id\tparent\tresolution\tname\tstart_ns\tend_ns\n");
    const auto origin = spans.empty() ? Clock::time_point{} : spans[0].start;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      auto ns = [&](Clock::time_point t) {
        return static_cast<long long>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin)
                .count());
      };
      std::fprintf(f, "%zu\t%u\t%u\t%s\t%lld\t%lld\n", i + 1, s.parent,
                   s.resolution, kLayerNames[s.layer], ns(s.start),
                   ns(s.end));
    }
    return std::fclose(f) == 0;
  }
};

/// Messages the recorded run keeps for the replay measurements.  Copying
/// them would inflate the spans around the copy, so the traced run records
/// nothing and the recorded run is not timed.
struct Recording {
  static constexpr std::size_t kCap = 16384;
  bool on = false;
  std::vector<dns::Message> replies;  ///< stub-side and auth-side, in order
  std::vector<dns::Name> stub_questions;
  std::vector<std::pair<const auth::AuthServer*, dns::Question>> auth_questions;
};

/// Benchmark-owned node in front of the resolver or an auth server.  It is
/// attached in every run so address allocation and the network's RNG draws
/// are identical; with tracing and recording off it only forwards the call.
class Proxy : public net::DnsNode {
 public:
  Proxy(net::DnsNode& target, Layer layer, const auth::AuthServer* server,
        Tracer& tracer, Recording& recording)
      : target_(target),
        layer_(layer),
        server_(server),
        tracer_(tracer),
        recording_(recording) {}

  std::optional<net::ServerReply> handle_query(const dns::Message& query,
                                               net::Address client,
                                               sim::Time now) override {
    if (tracer_.on) {
      std::uint32_t id = tracer_.open(layer_);
      auto reply = target_.handle_query(query, client, now);
      tracer_.close(id);
      return reply;
    }
    auto reply = target_.handle_query(query, client, now);
    if (!recording_.on) {
      return reply;
    }
    if (reply && recording_.replies.size() < Recording::kCap) {
      recording_.replies.push_back(reply->message);
    }
    if (!query.questions.empty()) {
      if (layer_ == kAuth &&
          recording_.auth_questions.size() < Recording::kCap) {
        recording_.auth_questions.emplace_back(server_, query.question());
      } else if (layer_ == kResolver &&
                 recording_.stub_questions.size() < Recording::kCap) {
        recording_.stub_questions.push_back(query.question().qname);
      }
    }
    return reply;
  }

 private:
  net::DnsNode& target_;
  Layer layer_;
  const auth::AuthServer* server_;
  Tracer& tracer_;
  Recording& recording_;
};

// ------------------------------------------------------- one workload run

/// Log-linear latency histogram over nanoseconds: exact below 128 ns, then
/// 64 linear buckets per power of two (at most 1.6% wide).  Percentiles
/// interpolate inside a bucket.  Fixed size, so a faster program does not
/// pay for its extra samples in peak RSS.
class Histogram {
 public:
  void add(std::uint64_t ns) {
    ++counts_[index(ns)];
    ++total_;
  }
  std::uint64_t total() const { return total_; }
  void clear() {
    std::fill(counts_.begin(), counts_.end(), 0);
    total_ = 0;
  }

  /// The @p p quantile in µs (0 when empty).
  double percentile_us(double p) const {
    const double rank = p * static_cast<double>(total_);
    double seen = 0.0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      const auto c = static_cast<double>(counts_[i]);
      if (c > 0.0 && seen + c >= rank) {
        auto [lo, width] = bucket(i);
        return (lo + width * (rank - seen) / c) / 1000.0;
      }
      seen += c;
    }
    return 0.0;
  }

 private:
  static constexpr std::size_t kBuckets = 58 * 64 + 128;

  static std::size_t index(std::uint64_t ns) {
    if (ns < 128) {
      return static_cast<std::size_t>(ns);
    }
    const int shift = 57 - __builtin_clzll(ns);
    return static_cast<std::size_t>(shift) * 64 + (ns >> shift);
  }
  /// Lower edge and width of bucket @p i, in ns.
  static std::pair<double, double> bucket(std::size_t i) {
    if (i < 128) {
      return {static_cast<double>(i), 1.0};
    }
    const std::size_t shift = i / 64 - 1;
    const double width = std::ldexp(1.0, static_cast<int>(shift));
    return {static_cast<double>(i - shift * 64) * width, width};
  }

  std::vector<std::uint64_t> counts_ = std::vector<std::uint64_t>(kBuckets);
  std::uint64_t total_ = 0;
};

/// One wall-clock window of the timed phase.
struct Window {
  double rate;  ///< resolutions per second
  double p50_us;
  double p99_us;
  std::uint64_t samples;
};

/// Counts that must agree between the untraced and the traced run of one
/// seed, taken after the checkpoint-th timed resolution.
struct Fingerprint {
  std::uint64_t answer_digest = 0;
  std::uint64_t upstream = 0;
  std::uint64_t carried = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_inserts = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_expired = 0;
  bool operator==(const Fingerprint&) const = default;

  std::string to_string() const {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "digest=%016" PRIx64 " upstream=%" PRIu64
                  " carried=%" PRIu64 " hits=%" PRIu64 " misses=%" PRIu64
                  " inserts=%" PRIu64 " evictions=%" PRIu64
                  " expired=%" PRIu64,
                  answer_digest, upstream, carried, cache_hits, cache_misses,
                  cache_inserts, cache_evictions, cache_expired);
    return buf;
  }
};

/// Counter readings at one instant, for deltas over the timed window.
struct Counters {
  std::uint64_t events = 0;
  std::uint64_t carried = 0;
  resolver::RecursiveResolver::Stats resolver;
  cache::Cache::Stats cache;
};

enum class Mode { kSetupOnly, kTimed, kRecorded, kTraced };

class WorkloadRun {
 public:
  WorkloadRun(const Workload& w, std::uint64_t seed, Mode mode, double seconds,
         Clock::time_point setup_start)
      : w_(w),
        mode_(mode),
        seconds_(seconds),
        setup_start_(setup_start),
        world_(core::World::Options{seed, 0.0, {}}),
        resolver_("bench-resolver", resolver_config(w), world_.network(),
                  world_.hints()) {
    build_world();
    build_demand(seed);
    if (mode_ == Mode::kTraced) {
      tracer_.spans.reserve(w_.checkpoint * 6 + 1024);
    }
  }

  WorkloadRun(const WorkloadRun&) = delete;
  WorkloadRun& operator=(const WorkloadRun&) = delete;

  /// Runs warm-up then (unless kSetupOnly) the timed phase.
  void run() {
    auto& sim = world_.simulation();
    for (std::uint32_t s = 0; s < stubs_.size(); ++s) {
      sim.schedule_at(sim::Time{} + next_gap(), [this, s] { fire(s); });
    }
    sim.run();
  }

  double setup_seconds() const { return setup_s_; }
  const Fingerprint& fingerprint() const { return fingerprint_; }
  double checkpoint_seconds() const { return checkpoint_s_; }
  std::uint64_t timed() const { return timed_; }
  std::uint64_t attempted() const { return issued_; }
  std::uint64_t failed() const { return timeouts_ + servfails_ + wrong_; }
  std::uint64_t wrong() const { return wrong_; }

  /// The @p q quantile over the timed phase's windows of @p field.
  double window_quantile(double Window::*field, double q) const {
    std::vector<double> v;
    for (const Window& win : windows_) {
      v.push_back(win.*field);
    }
    return quantile(std::move(v), q);
  }
  std::uint64_t window_samples() const {
    std::uint64_t n = 0;
    for (const Window& win : windows_) {
      n += win.samples;
    }
    return n;
  }

  /// Authoritative exchanges per stub resolution over warm-up plus the
  /// first checkpoint timed resolutions (deterministic for a seed).
  double upstream_per_resolution() const {
    return static_cast<double>(fingerprint_.upstream) /
           static_cast<double>(warmup_.size() + w_.checkpoint);
  }

  double answered_ratio() const {
    return static_cast<double>(timed_ - timed_failed_) /
           static_cast<double>(timed_);
  }

  // Recorded- and traced-run accessors.
  const Tracer& tracer() const { return tracer_; }
  const Recording& recording() const { return recording_; }
  const Counters& counters_at_start() const { return at_start_; }
  const Counters& counters_at_end() const { return at_end_; }
  resolver::RecursiveResolver& resolver() { return resolver_; }
  sim::Time end_time() { return world_.simulation().now(); }
  std::uint64_t upstream_resolutions() const { return upstream_resolutions_; }
  std::uint64_t evicting_resolutions() const { return evicting_resolutions_; }
  std::uint64_t cache_resolutions() const { return cache_resolutions_; }

 private:
  static constexpr std::size_t kGapTable = std::size_t{1} << 16;
  /// The timed phase is cut into this many wall-clock windows; the
  /// end-to-end timings are quantiles over them.
  static constexpr double kWindows = 20.0;

  static resolver::ResolverConfig resolver_config(const Workload& w) {
    auto config = resolver::child_centric_config();
    config.cache_max_entries = w.cache_max;
    config.cache_eviction = cache::EvictionPolicy::kLru;
    return config;
  }

  Proxy& add_proxy(net::DnsNode& target, Layer layer,
                   const auth::AuthServer* server) {
    proxies_.push_back(std::make_unique<Proxy>(target, layer, server,
                                               tracer_, recording_));
    return *proxies_.back();
  }

  void build_world() {
    auto& network = world_.network();
    const auto two_days = dns::kTtl2Days;

    // The World attached its root servers itself; put proxies in front of
    // them at the same addresses and locations.
    const std::pair<const char*, net::Region> roots[] = {
        {"a.root-servers.net", net::Region::kNA},
        {"k.root-servers.net", net::Region::kEU},
        {"m.root-servers.net", net::Region::kAS},
    };
    for (const auto& [ident, region] : roots) {
      auto& server = world_.server(ident);
      net::Address address = world_.address_of(ident);
      network.detach(address);
      network.attach(add_proxy(server, kAuth, &server),
                     net::Location{region, 1.0}, address);
    }

    // One TLD, served by its own server.
    auto tld = world_.create_zone("bench", two_days);
    auto tld_ns = dns::Name::from_string("a.nic.bench");
    auto& tld_server = add_server("a.nic.bench");
    tld_server.add_zone(tld);
    net::Address tld_address =
        network.attach(add_proxy(tld_server, kAuth, &tld_server),
                       net::Location{net::Region::kEU, 1.0});
    tld->add(dns::make_ns(tld->origin(), two_days, tld_ns));
    tld->add(dns::make_a(tld_ns, two_days, tld_address));
    world_.delegate(*world_.root_zone(), tld->origin(), {{tld_ns, tld_address}},
                    two_days, two_days);

    // SLD hosts, each serving zones/hosts zones.
    std::vector<std::pair<auth::AuthServer*, net::Address>> hosts;
    for (std::size_t h = 0; h < w_.hosts; ++h) {
      auto& server = add_server("host" + std::to_string(h));
      net::Location location{net::kAllRegions[h % net::kAllRegions.size()],
                             1.0};
      hosts.emplace_back(&server, network.attach(add_proxy(server, kAuth,
                                                           &server),
                                                 location));
    }

    sim::Rng ttl_rng = world_.rng().fork(0x771);
    auto draw_ttl = [&] {
      return dns::Ttl{static_cast<std::uint32_t>(
          ttl_rng.uniform_int(w_.ttl_lo, w_.ttl_hi))};
    };
    names_.reserve(w_.zones * w_.names_per_zone);
    for (std::size_t z = 0; z < w_.zones; ++z) {
      auto [server, address] = hosts[z % hosts.size()];
      auto origin = tld->origin().prepend("d" + std::to_string(z));
      auto ns = origin.prepend("ns");
      auto zone = std::make_shared<dns::Zone>(origin);
      dns::Ttl zone_ttl = draw_ttl();
      zone->add(dns::make_soa(origin, zone_ttl, ns, 1));
      zone->add(dns::make_ns(origin, zone_ttl, ns));
      zone->add(dns::make_a(ns, zone_ttl, address));
      for (std::size_t j = 0; j < w_.names_per_zone; ++j) {
        auto name = origin.prepend("n" + std::to_string(j));
        zone->add(dns::make_a(name, draw_ttl(), truth(names_.size())));
        names_.push_back(std::move(name));
      }
      server->add_zone(zone);
      world_.delegate(*tld, origin, {{ns, address}}, zone_ttl, zone_ttl);
    }

    // The resolver and its stub population.
    net::Location resolver_location{net::Region::kEU, 1.0, 1};
    net::Address resolver_address = network.attach(
        add_proxy(resolver_, kResolver, nullptr), resolver_location);
    resolver_.set_node_ref(net::NodeRef{resolver_address, resolver_location});
    stubs_.reserve(w_.stubs);
    for (std::size_t s = 0; s < w_.stubs; ++s) {
      net::NodeRef self{dns::Ipv4{0x64000000u + static_cast<std::uint32_t>(s)},
                        net::Location{net::Region::kEU, 2.0, 1}};
      stubs_.emplace_back(self, network,
                          std::vector<net::Address>{resolver_address});
    }
  }

  auth::AuthServer& add_server(const std::string& ident) {
    servers_.push_back(std::make_unique<auth::AuthServer>(ident));
    return *servers_.back();
  }

  /// Ground truth: the generator's address for name index @p i.
  static dns::Ipv4 truth(std::size_t i) {
    return dns::Ipv4{0x0b000000u + static_cast<std::uint32_t>(i)};
  }

  void build_demand(std::uint64_t seed) {
    sim::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x57ac);
    const std::size_t n = names_.size();
    std::vector<std::uint32_t> order(n);
    for (std::size_t i = 0; i < n; ++i) {
      order[i] = static_cast<std::uint32_t>(i);
    }
    for (std::size_t i = n; i > 1; --i) {
      std::swap(order[i - 1], order[rng.uniform_int(0, i - 1)]);
    }
    if (w_.zipf == 0.0) {
      // Cyclic sweep: warm-up is one pass, the timed phase repeats it.
      warmup_ = order;
      demand_ = order;
    } else {
      // order[r] is the name of popularity rank r.
      std::vector<double> cdf(n);
      double total = 0.0;
      for (std::size_t r = 0; r < n; ++r) {
        total += 1.0 / std::pow(static_cast<double>(r + 1), w_.zipf);
        cdf[r] = total;
      }
      auto draw = [&] {
        double u = rng.uniform() * total;
        auto r = static_cast<std::size_t>(
            std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        return order[std::min(r, n - 1)];
      };
      if (w_.warmup == 0) {
        warmup_ = order;
      } else {
        warmup_.resize(w_.warmup);
        for (auto& q : warmup_) {
          q = draw();
        }
      }
      demand_.resize(std::size_t{1} << 20);
      for (auto& q : demand_) {
        q = draw();
      }
    }

    // Each stub is a Poisson source of rate/stubs per virtual second.
    double mean_us = static_cast<double>(w_.stubs) / w_.rate * 1e6;
    gaps_.resize(kGapTable);
    for (auto& g : gaps_) {
      g = sim::microseconds(
          std::max<std::int64_t>(1, static_cast<std::int64_t>(
                                        rng.exponential(mean_us))));
    }
  }

  sim::Duration next_gap() { return gaps_[gap_cursor_++ % gaps_.size()]; }

  std::uint32_t question_for(std::uint64_t k) const {
    if (k < warmup_.size()) {
      return warmup_[k];
    }
    return demand_[(k - warmup_.size()) % demand_.size()];
  }

  Counters read_counters() {
    return Counters{world_.simulation().events_processed(),
                    world_.network().queries_carried(), resolver_.stats(),
                    resolver_.cache().stats()};
  }

  void start_timing(Clock::time_point now) {
    setup_s_ = seconds_between(setup_start_, now);
    timed_start_ = now;
    deadline_ = now + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(seconds_));
    window_len_ = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(seconds_ / kWindows));
    window_start_ = now;
    at_start_ = read_counters();
    if (mode_ == Mode::kTraced) {
      tracer_.on = true;
      sim_span_ = tracer_.open(kSim);
    }
    recording_.on = mode_ == Mode::kRecorded;
  }

  void fire(std::uint32_t stub) {
    if (stopping_) {
      return;
    }
    auto& sim = world_.simulation();
    const std::uint64_t k = issued_;
    const bool timing = k >= warmup_.size();
    if (k == warmup_.size()) {
      start_timing(Clock::now());
      if (mode_ == Mode::kSetupOnly) {
        stopping_ = true;
        return;
      }
    }
    ++issued_;
    const std::uint32_t q = question_for(k);
    tracer_.resolution = static_cast<std::uint32_t>(k - warmup_.size());

    std::uint64_t upstream_before = 0;
    std::uint64_t evictions_before = 0;
    std::uint64_t cache_answers_before = 0;
    if (recording_.on) {
      upstream_before = resolver_.stats().upstream_queries;
      evictions_before = resolver_.cache().stats().capacity_evictions;
      cache_answers_before = resolver_.stats().cache_answers;
    }
    std::uint32_t event_span = tracer_.on ? tracer_.open(kEvent) : 0;
    std::uint32_t stub_span = tracer_.on ? tracer_.open(kStub) : 0;
    auto t0 = Clock::now();
    auto result = stubs_[stub].query(names_[q], dns::RRType::kA, sim.now());
    auto t1 = Clock::now();
    if (tracer_.on) {
      tracer_.close(stub_span);
    }
    bool ok = check(result, q);
    if (tracer_.on) {
      tracer_.close(event_span);
    }
    if (recording_.on) {
      upstream_resolutions_ +=
          resolver_.stats().upstream_queries != upstream_before;
      evicting_resolutions_ +=
          resolver_.cache().stats().capacity_evictions != evictions_before;
      cache_resolutions_ +=
          resolver_.stats().cache_answers != cache_answers_before;
    }

    if (timing) {
      histogram_.add(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count()));
      timed_failed_ += !ok;
      ++timed_;
      if (timed_ == w_.checkpoint) {
        take_fingerprint(t1);
        if (mode_ == Mode::kTraced || mode_ == Mode::kRecorded) {
          stop();
          return;
        }
      }
      if (t1 >= window_start_ + window_len_) {
        close_window(t1);
      }
      if (t1 >= deadline_ && timed_ >= w_.checkpoint) {
        stop();
        return;
      }
    }
    sim.schedule_at(sim.now() + next_gap(), [this, stub] { fire(stub); });
  }

  void close_window(Clock::time_point now) {
    const std::uint64_t n = histogram_.total();
    windows_.push_back(Window{
        static_cast<double>(n) / seconds_between(window_start_, now),
        histogram_.percentile_us(0.50), histogram_.percentile_us(0.99), n});
    histogram_.clear();
    window_start_ = now;
  }

  void stop() {
    stopping_ = true;
    if (mode_ == Mode::kTraced) {
      tracer_.close(sim_span_);
      tracer_.on = false;
    }
    recording_.on = false;
  }

  void take_fingerprint(Clock::time_point now) {
    checkpoint_s_ = seconds_between(timed_start_, now);
    at_end_ = read_counters();
    const auto& cs = at_end_.cache;
    fingerprint_.answer_digest = digest_;
    fingerprint_.upstream = at_end_.resolver.upstream_queries;
    fingerprint_.carried = at_end_.carried;
    fingerprint_.cache_hits = cs.hits;
    fingerprint_.cache_misses = cs.misses;
    fingerprint_.cache_inserts = cs.inserts;
    fingerprint_.cache_evictions = cs.capacity_evictions;
    fingerprint_.cache_expired = cs.expired;
  }

  /// Compares the stub's answer with the generator's ground truth and folds
  /// it into the answer digest.
  bool check(const resolver::StubResolver::Result& result, std::uint32_t q) {
    std::uint64_t value = 0;
    bool ok = false;
    if (!result.response) {
      ++timeouts_;
    } else if (result.response->flags.rcode == dns::Rcode::kServFail) {
      ++servfails_;
    } else {
      for (const auto& rr : result.response->answers) {
        if (const auto* a = std::get_if<dns::ARdata>(&rr.rdata);
            a != nullptr && rr.name == names_[q]) {
          value = a->address.value();
          ok = a->address == truth(q);
          break;
        }
      }
      value ^= static_cast<std::uint64_t>(result.response->flags.rcode) << 32;
      wrong_ += !ok;
    }
    digest_ = (digest_ ^ (value + q)) * 0x100000001b3ULL;
    return ok;
  }

  const Workload& w_;
  Mode mode_;
  double seconds_;
  Clock::time_point setup_start_;

  Tracer tracer_;
  Recording recording_;
  std::vector<std::unique_ptr<Proxy>> proxies_;
  std::vector<std::unique_ptr<auth::AuthServer>> servers_;
  core::World world_;
  resolver::RecursiveResolver resolver_;
  std::vector<resolver::StubResolver> stubs_;
  std::vector<dns::Name> names_;

  std::vector<std::uint32_t> warmup_;
  std::vector<std::uint32_t> demand_;
  std::vector<sim::Duration> gaps_;
  std::uint64_t gap_cursor_ = 0;

  bool stopping_ = false;
  std::uint64_t issued_ = 0;
  std::uint64_t timed_ = 0;
  std::uint64_t timed_failed_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t servfails_ = 0;
  std::uint64_t wrong_ = 0;
  std::uint64_t digest_ = 0xcbf29ce484222325ULL;
  std::uint64_t upstream_resolutions_ = 0;
  std::uint64_t evicting_resolutions_ = 0;
  std::uint64_t cache_resolutions_ = 0;

  double setup_s_ = 0.0;
  double checkpoint_s_ = 0.0;
  Clock::time_point timed_start_{};
  Clock::time_point deadline_{};
  Clock::duration window_len_{};
  Clock::time_point window_start_{};
  Histogram histogram_;
  std::vector<Window> windows_;
  Fingerprint fingerprint_;
  Counters at_start_;
  Counters at_end_;
  std::uint32_t sim_span_ = 0;
};

// ---------------------------------------------------------------- replays

/// Keeps replayed results observable so the calls are not optimized away.
std::uint64_t g_sink = 0;

/// Mean µs per call of @p fn(i) over i in [0, n), repeated for >= 50 ms.
template <typename Fn>
double replay_us(std::size_t n, Fn&& fn) {
  if (n == 0) {
    return 0.0;
  }
  std::size_t calls = 0;
  const auto start = Clock::now();
  double elapsed = 0.0;
  do {
    for (std::size_t i = 0; i < n; ++i) {
      g_sink += fn(i);
    }
    calls += n;
    elapsed = seconds_between(start, Clock::now());
  } while (elapsed < 0.05);
  return elapsed * 1e6 / static_cast<double>(calls);
}

/// The zone @p server would answer @p qname from: the deepest origin.
const dns::Zone* zone_for(const auth::AuthServer& server,
                          const dns::Name& qname) {
  const dns::Zone* best = nullptr;
  for (const auto& zone : server.zones()) {
    if (qname.is_subdomain_of(zone->origin()) &&
        (best == nullptr ||
         zone->origin().label_count() > best->origin().label_count())) {
      best = zone.get();
    }
  }
  return best;
}

struct Replays {
  double encoded_size_us = 0.0;
  double encode_us = 0.0;
  double decode_us = 0.0;
  double reply_bytes = 0.0;
  double cache_lookup_us = 0.0;
  double zone_lookup_us = 0.0;
};

/// Replays the recorded run's messages through public dns:: and
/// cache:: functions, one layer at a time.
Replays replay(WorkloadRun& run) {
  Replays out;
  const Recording& rec = run.recording();

  const auto& replies = rec.replies;
  std::vector<std::vector<std::uint8_t>> wire;
  wire.reserve(replies.size());
  double bytes = 0.0;
  for (const auto& m : replies) {
    wire.push_back(dns::encode(m));
    bytes += static_cast<double>(wire.back().size());
  }
  out.reply_bytes = replies.empty() ? 0.0 : bytes / static_cast<double>(replies.size());
  out.encoded_size_us = replay_us(
      replies.size(), [&](std::size_t i) { return dns::encoded_size(replies[i]); });
  out.encode_us = replay_us(
      replies.size(), [&](std::size_t i) { return dns::encode(replies[i]).size(); });
  out.decode_us = replay_us(wire.size(), [&](std::size_t i) {
    return dns::decode(wire[i]).answers.size();
  });

  cache::Cache restored;
  restored.restore(run.resolver().cache().snapshot());
  const sim::Time now = run.end_time();
  const auto& questions = rec.stub_questions;
  out.cache_lookup_us = replay_us(questions.size(), [&](std::size_t i) {
    return static_cast<std::size_t>(
        restored.lookup(questions[i], dns::RRType::kA, now).has_value());
  });

  std::vector<std::pair<const dns::Zone*, const dns::Question*>> lookups;
  for (const auto& [server, question] : rec.auth_questions) {
    if (const dns::Zone* zone = zone_for(*server, question.qname)) {
      lookups.emplace_back(zone, &question);
    }
  }
  out.zone_lookup_us = replay_us(lookups.size(), [&](std::size_t i) {
    const auto& [zone, question] = lookups[i];
    return zone->lookup(question->qname, question->qtype).answers.size();
  });
  return out;
}

// ------------------------------------------------------------------ main

/// VmHWM of this process, in MB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "stack_bench: %s\nusage: stack_bench --workload "
               "<warm_popular|cold_hosted|evict_churn> --seed <n> "
               "--seconds <s> [--spans <path>]\n",
               msg);
  return 2;
}

/// Strict unsigned parse; false on junk, sign or overflow.
bool parse_u64(const char* text, std::uint64_t& out) {
  if (*text < '0' || *text > '9') {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  out = std::strtoull(text, &end, 10);
  return errno == 0 && *end == '\0';
}

/// Prints one metric with its sample count and appends
/// `"name": {"value": v, "unit": u}` to @p json.
void metric(std::string& json, const char* name, double value,
            const char* unit, std::uint64_t samples) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                json.back() == '{' ? "" : ", ", name, value, unit);
  json += buf;
  std::printf("  %-36s %18.6f %-6s (n=%" PRIu64 ")\n", name, value, unit,
              samples);
}

}  // namespace

int main(int argc, char** argv) {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  std::uint64_t seconds = 0;
  std::string spans_path;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (i + 1 >= argc) {
      return usage("missing value");
    }
    const char* value = argv[++i];
    if (arg == "--workload") {
      workload = find_workload(value);
      if (workload == nullptr) {
        return usage("unknown workload");
      }
    } else if (arg == "--seed") {
      have_seed = parse_u64(value, seed);
      if (!have_seed) {
        return usage("bad --seed");
      }
    } else if (arg == "--seconds") {
      if (!parse_u64(value, seconds) || seconds == 0 || seconds > 600) {
        return usage("bad --seconds");
      }
    } else if (arg == "--spans") {
      spans_path = value;
    } else {
      return usage("unknown flag");
    }
  }
  if (workload == nullptr || !have_seed || seconds == 0) {
    return usage("--workload, --seed and --seconds are required");
  }
  const Workload& w = *workload;
  const auto run_seconds = static_cast<double>(seconds);
  std::printf("workload %s seed %" PRIu64 " seconds %" PRIu64 "\n", w.name,
              seed, seconds);

  // setup_s is the median of every set-up: those here, then the timed, the
  // recorded and the traced run's.  Single set-ups vary by up to 20% and
  // mostly independently, so the set-up-only runs repeat until they have
  // taken kSetupOnlySeconds (about 12 set-ups of warm_popular, 5 of
  // cold_hosted).
  constexpr double kSetupOnlySeconds = 5.0;
  std::vector<double> setups;
  const auto setup_only_start = Clock::now();
  while (setups.size() < 2 ||
         seconds_between(setup_only_start, Clock::now()) < kSetupOnlySeconds) {
    WorkloadRun setup_only(w, seed, Mode::kSetupOnly, run_seconds, Clock::now());
    setup_only.run();
    setups.push_back(setup_only.setup_seconds());
  }

  // Untraced, timed run: the end-to-end metrics.
  auto timed = std::make_unique<WorkloadRun>(w, seed, Mode::kTimed, run_seconds,
                                        Clock::now());
  timed->run();
  setups.push_back(timed->setup_seconds());
  const double rss_mb = peak_rss_mb();
  // The host runs at a base speed with fast phases lasting seconds, so
  // throughput and p50 are read at the slower-quartile window, which follows
  // the base speed.  The slow windows of p99 are stalls, not base speed, so
  // p99 is read at the median window.
  const double rate = timed->window_quantile(&Window::rate, 0.25);
  const double p50 = timed->window_quantile(&Window::p50_us, 0.75);
  const double p99 = timed->window_quantile(&Window::p99_us, 0.5);
  const std::uint64_t latency_samples = timed->window_samples();
  const std::uint64_t timed_count = timed->timed();
  const double answered = timed->answered_ratio();
  const double upstream = timed->upstream_per_resolution();
  const Fingerprint untraced_fp = timed->fingerprint();
  const double untraced_checkpoint_s = timed->checkpoint_seconds();
  std::uint64_t attempted = timed->attempted();
  std::uint64_t failed = timed->failed();
  std::uint64_t wrong = timed->wrong();
  timed.reset();

  // Untimed run of the same seed up to the checkpoint that records messages
  // for the replays and the workload's properties.
  auto recorded = std::make_unique<WorkloadRun>(w, seed, Mode::kRecorded,
                                                run_seconds, Clock::now());
  recorded->run();
  setups.push_back(recorded->setup_seconds());
  attempted += recorded->attempted();
  failed += recorded->failed();
  wrong += recorded->wrong();
  const Fingerprint recorded_fp = recorded->fingerprint();
  const Replays rp = replay(*recorded);
  const std::size_t replies = recorded->recording().replies.size();
  const std::size_t stub_questions = recorded->recording().stub_questions.size();
  const std::size_t auth_questions = recorded->recording().auth_questions.size();
  const std::uint64_t cache_resolutions = recorded->cache_resolutions();
  const std::uint64_t upstream_resolutions = recorded->upstream_resolutions();
  const std::uint64_t evicting_resolutions = recorded->evicting_resolutions();
  recorded.reset();

  // Traced run of the same seed up to the checkpoint: the per-layer ledger.
  WorkloadRun traced(w, seed, Mode::kTraced, run_seconds, Clock::now());
  traced.run();
  setups.push_back(traced.setup_seconds());
  attempted += traced.attempted();
  failed += traced.failed();
  wrong += traced.wrong();
  const Fingerprint traced_fp = traced.fingerprint();

  const bool fp_ok = untraced_fp == traced_fp && untraced_fp == recorded_fp;
  std::printf("fingerprint untraced %s\n", untraced_fp.to_string().c_str());
  std::printf("fingerprint recorded %s\n", recorded_fp.to_string().c_str());
  std::printf("fingerprint traced   %s\n", traced_fp.to_string().c_str());
  if (!fp_ok) {
    std::printf("FINGERPRINT MISMATCH\n");
  }
  if (wrong != 0) {
    std::printf("WRONG ANSWERS: %" PRIu64 "\n", wrong);
  }

  const std::uint64_t n = w.checkpoint;
  const Counters& a = traced.counters_at_start();
  const Counters& b = traced.counters_at_end();
  const std::uint64_t client = b.resolver.client_queries - a.resolver.client_queries;
  const std::uint64_t hits = b.cache.hits - a.cache.hits;
  const std::uint64_t misses = b.cache.misses - a.cache.misses;
  std::uint64_t auth_spans = 0;
  for (const Span& s : traced.tracer().spans) {
    auth_spans += s.layer == kAuth;
  }

  std::printf("workload properties over %" PRIu64 " recorded resolutions:\n", n);
  std::printf("  answered_from_cache %.6f  sent_upstream %.6f  "
              "caused_eviction %.6f  (n=%" PRIu64 ")\n",
              ratio(cache_resolutions, n), ratio(upstream_resolutions, n),
              ratio(evicting_resolutions, n), n);

  std::string e2e = "{";
  std::printf("end-to-end (untraced run, %" PRIu64 " timed resolutions):\n",
              timed_count);
  metric(e2e, "resolutions_per_s", rate, "1/s", timed_count);
  metric(e2e, "resolve_us_p50", p50, "us", latency_samples);
  metric(e2e, "resolve_us_p99", p99, "us", latency_samples);
  metric(e2e, "setup_s", quantile(setups, 0.5), "s", setups.size());
  metric(e2e, "peak_rss_mb", rss_mb, "MB", 1);
  metric(e2e, "answered_ratio", answered, "ratio", timed_count);
  metric(e2e, "upstream_per_resolution", upstream, "ratio",
         traced.attempted());
  e2e += "}";

  std::string layer = "{";
  std::printf("per-layer (traced run, %" PRIu64 " resolutions):\n", n);
  // Both event counts are read inside a handler, so they bracket the
  // completion of n - 1 events.
  metric(layer, "sim.events_per_resolution",
         ratio(b.events - a.events, n - 1), "ratio", n);
  metric(layer, "net.exchanges_per_resolution",
         ratio(b.carried - a.carried, n), "ratio", n);
  metric(layer, "wire.encoded_size_us", rp.encoded_size_us, "us",
         replies);
  metric(layer, "wire.encode_us", rp.encode_us, "us",
         replies);
  metric(layer, "wire.decode_us", rp.decode_us, "us",
         replies);
  metric(layer, "wire.reply_bytes", rp.reply_bytes, "bytes",
         replies);
  metric(layer, "resolver.cache_answer_ratio",
         ratio(b.resolver.cache_answers - a.resolver.cache_answers, client),
         "ratio", client);
  metric(layer, "resolver.full_resolutions_per_resolution",
         ratio(b.resolver.full_resolutions - a.resolver.full_resolutions, n),
         "ratio", n);
  metric(layer, "resolver.servfails",
         static_cast<double>(b.resolver.servfails - a.resolver.servfails),
         "count", n);
  metric(layer, "cache.hit_ratio", ratio(hits, hits + misses), "ratio",
         hits + misses);
  metric(layer, "cache.inserts_per_resolution",
         ratio(b.cache.inserts - a.cache.inserts, n), "ratio", n);
  metric(layer, "cache.evictions_per_resolution",
         ratio(b.cache.capacity_evictions - a.cache.capacity_evictions, n),
         "ratio", n);
  metric(layer, "cache.expired_per_resolution",
         ratio(b.cache.expired - a.cache.expired, n), "ratio", n);
  metric(layer, "cache.high_water", static_cast<double>(b.cache.high_water),
         "count", 1);
  metric(layer, "cache.lookup_us", rp.cache_lookup_us, "us",
         stub_questions);
  metric(layer, "auth.queries_per_resolution", ratio(auth_spans, n), "ratio",
         n);
  metric(layer, "zone.lookup_us", rp.zone_lookup_us, "us",
         auth_questions);
  metric(layer, "trace.overhead",
         traced.checkpoint_seconds() / untraced_checkpoint_s, "ratio", n);
  layer += "}";

  if (!spans_path.empty() && !traced.tracer().write(spans_path)) {
    std::fprintf(stderr, "stack_bench: cannot write %s\n", spans_path.c_str());
    return 1;
  }

  const bool correct = fp_ok && wrong == 0;
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64
              ", \"resolutions\": %" PRIu64 ", \"end_to_end\": %s, "
              "\"per_layer\": %s}\n",
              correct ? "true" : "false", attempted, failed, n, e2e.c_str(),
              layer.c_str());
  return correct ? 0 : 1;
}
