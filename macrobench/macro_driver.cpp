// Macro benchmark driver: one process runs one paper workload through the
// public exp::Scenario API on one thread.  One operation constructs and runs
// SPMS and then SPIN on the same config, then times the host-speed reference
// kernel; the process repeats operations until --seconds have passed (at
// least one), and prints one JSON line with each run's host times, exact work
// counts, simulated statistics and correctness verdict.  run.py starts several
// such processes and folds their lines into the benchmark result (see
// WORKLOADS.md).
//
//   macro_driver --workload dense|cluster|faults [--seed N] [--seconds S]
//                [--cpu C] [--trace] [--spans FILE]
//
// --cpu pins the process to CPU C.
//
// With --trace the driver installs a typed-trace sink and a dispatch hook,
// charges each event's host time to the class of the first record it
// emitted (or to "silent"), times throwaway routing / interest builds after
// the statistics are taken, and writes its phase spans to FILE at exit.

#define SPMS_BENCH_COUNT_ALLOCS
#include "bench_common.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <queue>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include <sched.h>
#include <unistd.h>

#include "core/interest.hpp"
#include "exp/config.hpp"
#include "exp/scenario.hpp"
#include "exp/scenario_registry.hpp"
#include "obs/event_trace.hpp"
#include "routing/bellman_ford.hpp"

namespace {

using namespace spms;
using Clock = std::chrono::steady_clock;

#if defined(NDEBUG) && defined(__OPTIMIZE__)
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double current_rss_mb() {
  long pages = 0, resident = 0;
  if (FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) / 1048576.0;
}

/// Peak resident set of this process image (VmHWM).  getrusage's ru_maxrss
/// is not used: it keeps the parent's peak across fork and exec.
double peak_rss_mb() {
  double kib = 0.0;
  if (FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
    }
    std::fclose(f);
  }
  return kib / 1024.0;
}

// --- host-speed reference -----------------------------------------------------

// On a shared host the program's speed drifts in phases of minutes.  After
// every operation the driver times a fixed reference made of two kernels
// that are independent of src/, so no change to the program moves them:
//  - a discrete-event loop: a binary heap of 3,000 pending events, a hash
//    table of 5,000 counters and one small allocation per event, the shape
//    of the simulator's hot path at these field sizes;
//  - a random pointer chase through 1 MB, which fits in a core's L2.
// The first slows when a neighbour competes for the core, the second when a
// neighbour evicts the core's cache; the program slows both ways, and with
// the two together the drifts largely cancel in operation time / reference
// time (WORKLOADS.md), which run.py reports.

std::uint64_t xorshift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

/// Successor table of one random cycle through `n` slots (Sattolo).
std::vector<std::uint32_t> chase_cycle(std::uint32_t n) {
  std::vector<std::uint32_t> next(n);
  for (std::uint32_t i = 0; i < n; ++i) next[i] = i;
  std::uint64_t x = 0x2545F4914F6CDD1Dull;
  for (std::uint32_t i = n - 1; i > 0; --i) {
    std::swap(next[i], next[xorshift(x) % i]);
  }
  return next;
}

std::uint64_t event_loop_kernel() {
  constexpr int kEvents = 60'000;
  constexpr std::uint32_t kKeys = 5'000;
  struct Event {
    double t;
    std::uint32_t key;
    std::uint32_t seq;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.t > b.t || (a.t == b.t && a.seq > b.seq);
    }
  };
  struct Payload {
    std::uint64_t words[5];
  };
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  const auto next = [&x] { return xorshift(x); };
  std::priority_queue<Event, std::vector<Event>, Later> heap;
  std::unordered_map<std::uint32_t, std::uint32_t> counters;
  std::uint32_t seq = 0;
  for (int i = 0; i < 3'000; ++i) {
    heap.push({static_cast<double>(next() % 1000), static_cast<std::uint32_t>(next() % kKeys),
               seq++});
  }
  std::uint64_t sum = 0;
  for (int n = 0; n < kEvents; ++n) {
    const Event e = heap.top();
    heap.pop();
    auto& c = counters[e.key];
    ++c;
    const auto r = next();
    const auto payload = std::make_unique<Payload>(Payload{{r, e.key, c, 0, 0}});
    if ((r & 3) == 0) sum += counters.count(static_cast<std::uint32_t>(r % kKeys));
    heap.push({e.t + static_cast<double>(r % 1000) * 0.01 + 0.5,
               static_cast<std::uint32_t>((e.key * 2654435761u + (r >> 32)) % kKeys), seq++});
    sum += payload->words[0] & 1;
  }
  return sum;
}

/// Written after each reference pass so that the kernels are not optimised away.
volatile std::uint64_t reference_sink = 0;

/// Seconds for one pass of both reference kernels; `cycle` is chase_cycle's.
double reference_s(const std::vector<std::uint32_t>& cycle) {
  constexpr int kLoads = 1'000'000;
  const auto t0 = Clock::now();
  std::uint64_t sum = event_loop_kernel();
  std::uint32_t p = 0;
  for (int i = 0; i < kLoads; ++i) p = cycle[p];
  reference_sink = sum + p;
  return seconds_since(t0);
}

// --- workloads ----------------------------------------------------------------

struct Workload {
  std::string_view name;
  std::size_t nodes;
  double zone_radius_m;
  exp::TrafficPattern pattern;
  int packets_per_node;
  bool stacked_faults;
};

/// Fields small enough that a run's working set stays near a core's own
/// cache: on a shared host, neighbours slow larger fields far more
/// (WORKLOADS.md, "Host-time spread").
constexpr std::array<Workload, 3> kWorkloads{{
    {"dense", 49, 20.0, exp::TrafficPattern::kAllToAll, 2, false},
    {"cluster", 1024, 10.0, exp::TrafficPattern::kCluster, 1, false},
    {"faults", 49, 20.0, exp::TrafficPattern::kAllToAll, 2, true},
}};

/// Delivery ratio below which a `faults` run fails.  Each seed draws its own
/// fault plan, and on this field a few plans cut delivery hard: over 1,000
/// seeds the lowest ratios were 0.745 (SPMS) and 0.612 (SPIN), against
/// medians of 1.0 and 0.969.  The floor sits below that tail; it catches
/// protocols that stop recovering, and the per-run lines show smaller drifts.
constexpr double kFaultsDeliveryFloor = 0.5;

/// Built field by field: exp::reference_config() reads SPMS_BENCH_* from the
/// environment, and no variable may change a workload.
exp::ExperimentConfig make_config(const Workload& w, exp::ProtocolKind protocol,
                                  std::uint64_t seed) {
  exp::ExperimentConfig cfg;  // Table 1 defaults
  cfg.label = std::string{w.name};
  cfg.protocol = protocol;
  cfg.seed = seed;
  cfg.deployment = exp::Deployment::kGrid;
  cfg.grid_pitch_m = 5.0;
  cfg.node_count = w.nodes;
  cfg.zone_radius_m = w.zone_radius_m;
  cfg.pattern = w.pattern;
  cfg.traffic.packets_per_node = w.packets_per_node;
  if (w.pattern == exp::TrafficPattern::kCluster) {
    cfg.cluster_p_other = 0.05;
    cfg.energy.rx_power_mw = 0.0125;  // fig13's Er = Em
  }
  if (w.stacked_faults) exp::scaled_stacked_faults(cfg);
  return cfg;
}

// --- phase spans --------------------------------------------------------------

/// Phase spans kept in memory, each with its parent, written at exit.
class Spans {
 public:
  int open(std::string name, int parent) {
    spans_.push_back({std::move(name), parent, seconds_since(origin_), -1.0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) { spans_[static_cast<std::size_t>(id)].end_s = seconds_since(origin_); }

  /// JSON array; self_s is the span's duration minus its children's.
  void write(std::ostream& out) const {
    std::vector<double> child_s(spans_.size(), 0.0);
    for (const auto& s : spans_) {
      if (s.parent >= 0) child_s[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
    }
    out << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "{\"id\":%zu,\"name\":\"%s\",\"parent\":%d,\"start_s\":%.9f,\"end_s\":%.9f,"
                    "\"self_s\":%.9f}",
                    i, s.name.c_str(), s.parent, s.start_s, s.end_s,
                    s.end_s - s.start_s - child_s[i]);
      out << "  " << buf << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]\n";
  }

 private:
  struct Span {
    std::string name;
    int parent;
    double start_s;
    double end_s;
  };
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

// --- per-event attribution (traced invocation only) ---------------------------

enum EventClass : std::size_t {
  kSilent,
  kPublish,
  kAdv,
  kReq,
  kData,
  kDrop,
  kBattery,
  kFault,
  kOther,
  kClassCount
};
constexpr std::array<const char*, kClassCount> kClassName{
    "silent", "publish", "adv", "req", "data", "drop", "battery", "fault", "other"};

EventClass class_of(obs::TraceKind k) {
  using K = obs::TraceKind;
  switch (k) {
    case K::kPublish: return kPublish;
    case K::kSpmsAdv:
    case K::kSpmsCourierAdv:
    case K::kSpinAdv: return kAdv;
    case K::kSpmsReqDirect:
    case K::kSpmsReqMultihop:
    case K::kSpmsReqCrosszone:
    case K::kSpmsRelayReq:
    case K::kSpinReq:
    case K::kGiveUp: return kReq;
    case K::kSpmsRelayData:
    case K::kSpmsData:
    case K::kSpinData:
    case K::kDelivery: return kData;
    case K::kFrameDrop: return kDrop;
    case K::kBatteryThreshold: return kBattery;
    case K::kFaultTransition: return kFault;
    default: return kOther;
  }
}

/// Per-event host-time histogram: 8 ns buckets up to ~1 ms plus overflow.
class NsHistogram {
 public:
  void add(std::uint64_t ns) { ++counts_[std::min<std::uint64_t>(ns / kBucketNs, kBuckets)]; }
  /// Quantile q, interpolated linearly inside its bucket; 0 when empty.
  [[nodiscard]] double quantile(double q) const {
    std::uint64_t total = 0;
    for (const auto c : counts_) total += c;
    if (total == 0) return 0.0;
    const double rank = q * static_cast<double>(total - 1);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      if (static_cast<double>(seen + counts_[i]) > rank) {
        const double within = (rank - static_cast<double>(seen) + 0.5) / counts_[i];
        return (static_cast<double>(i) + within) * kBucketNs;
      }
      seen += counts_[i];
    }
    return static_cast<double>(kBuckets * kBucketNs);
  }

 private:
  static constexpr std::uint64_t kBucketNs = 8;
  static constexpr std::uint64_t kBuckets = 1u << 17;
  std::vector<std::uint32_t> counts_ = std::vector<std::uint32_t>(kBuckets + 1, 0);
};

/// Typed-trace sink + dispatch hook.  Each event's host time is the
/// interval between consecutive hook calls, charged to the class of the
/// first record the event emitted.  Both hooks only read, so the traced
/// run's event stream is the untraced one's.
class LayerTrace {
 public:
  /// `hist` collects the per-event times of every traced run in the process.
  explicit LayerTrace(NsHistogram& hist) : hist_(hist) {}

  void attach(exp::Scenario& s) {
    auto& sched = s.simulation().scheduler();
    s.simulation().events().set_sink([this](const obs::TraceRecord& r) {
      if (first_ == kClassCount) first_ = class_of(r.kind);
    });
    sched.set_dispatch_hook([this, &sched](sim::TimePoint) {
      const auto t = Clock::now();
      const auto ns =
          static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(t - last_).count());
      last_ = t;
      const EventClass c = first_ == kClassCount ? kSilent : first_;
      first_ = kClassCount;
      ++events_[c];
      ns_[c] += ns;
      hist_.add(ns);
      pending_max_ = std::max(pending_max_, sched.pending());
    });
  }
  /// Call right before Scenario::run(): records emitted by start() belong
  /// to no event.
  void arm(exp::Scenario& s) {
    pending_max_ = std::max(pending_max_, s.simulation().scheduler().pending());
    first_ = kClassCount;
    last_ = Clock::now();
  }
  static void detach(exp::Scenario& s) {
    s.simulation().events().set_sink(nullptr);
    s.simulation().scheduler().set_dispatch_hook(nullptr);
  }

  [[nodiscard]] std::uint64_t events(std::size_t c) const { return events_[c]; }
  [[nodiscard]] double seconds(std::size_t c) const { return static_cast<double>(ns_[c]) * 1e-9; }
  [[nodiscard]] std::size_t pending_max() const { return pending_max_; }

 private:
  EventClass first_ = kClassCount;
  Clock::time_point last_;
  std::array<std::uint64_t, kClassCount> events_{};
  std::array<std::uint64_t, kClassCount> ns_{};
  std::size_t pending_max_ = 0;
  NsHistogram& hist_;
};

// --- one protocol run ---------------------------------------------------------

struct RunOut {
  std::string protocol;
  double setup_s = 0.0;
  double run_s = 0.0;
  std::uint64_t allocs_setup = 0;
  std::uint64_t allocs_run = 0;
  double rss_setup_mb = 0.0;

  // Simulated statistics.
  std::uint64_t events = 0;
  std::uint64_t cancelled = 0;
  bool event_limit_hit = false;
  std::uint64_t published = 0;
  std::uint64_t expected = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t unknown = 0;
  double delivery_ratio = 0.0;
  double energy_per_item_uj = 0.0;  ///< protocol energy / items published
  double mean_delay_ms = 0.0;
  double p95_delay_ms = 0.0;
  net::NetCounters net;
  std::uint64_t grid_queries = 0;
  std::uint64_t given_up = 0;
  std::uint64_t delay_samples = 0;
  std::uint64_t delay_bytes = 0;
  routing::DbfStats dbf;
  faults::FaultStats fault;
  std::string digest;  ///< every simulated statistic, exactly

  std::vector<std::string> failures;

  // Traced invocation only.
  std::unique_ptr<LayerTrace> trace;
  double routing_build_s = 0.0;
  double interest_build_s = 0.0;
};

/// FNV-1a over a canonical rendering (hex floats) of the simulated outputs.
std::string digest_of(const RunOut& r, const net::EnergyBreakdown& e, double max_delay_ms,
                      double sim_time_ms) {
  char buf[2048];
  const auto& n = r.net;
  const auto& f = r.fault;
  std::snprintf(
      buf, sizeof buf,
      "ev=%" PRIu64 " cx=%" PRIu64 " lim=%d pub=%" PRIu64 " exp=%" PRIu64 " del=%" PRIu64
      " unk=%" PRIu64 " ratio=%a mean=%a p95=%a max=%a t=%a e=%a,%a,%a,%a,%a"
      " tx=%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 " rx=%" PRIu64
      " drop=%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 " gq=%" PRIu64
      " gu=%" PRIu64 " ds=%" PRIu64 " dbf=%zu,%" PRIu64 ",%" PRIu64 ",%a,%d"
      " f=%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%a,%a,%" PRIu64 ",%" PRIu64
      ",%a,%" PRIu64 ",%a,%a,%a",
      r.events, r.cancelled, r.event_limit_hit ? 1 : 0, r.published, r.expected, r.deliveries,
      r.unknown, r.delivery_ratio, r.mean_delay_ms, r.p95_delay_ms, max_delay_ms, sim_time_ms,
      e.protocol_tx_uj, e.protocol_rx_uj, e.routing_tx_uj, e.routing_rx_uj, e.idle_uj, n.tx_adv,
      n.tx_req, n.tx_data, n.tx_route, n.tx_bytes, n.deliveries, n.dropped_sender_down,
      n.dropped_out_of_range, n.dropped_receiver_down, n.dropped_link_fault,
      n.dropped_battery_dead, r.grid_queries, r.given_up, r.delay_samples, r.dbf.rounds,
      r.dbf.messages, r.dbf.message_bytes, r.dbf.energy_uj, r.dbf.converged ? 1 : 0,
      f.fault_events, f.node_downs, f.node_repairs, f.permanent_deaths, f.max_concurrent_down,
      f.total_downtime_ms, f.outage_time_ms, f.deliveries_during_outage, f.recoveries_sampled,
      f.mean_recovery_latency_ms, f.repairs_unrecovered, f.time_to_first_death_ms,
      f.time_to_10pct_dead_ms, f.half_life_ms);
  std::uint64_t h = 1469598103934665603ull;
  for (const char* p = buf; *p != '\0'; ++p) {
    h ^= static_cast<unsigned char>(*p);
    h *= 1099511628211ull;
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016" PRIx64, h);
  return hex;
}

/// `hist` is null for an untraced run.
RunOut run_protocol(const Workload& w, exp::ProtocolKind protocol, std::uint64_t seed,
                    NsHistogram* hist, Spans& spans, int parent) {
  const bool traced = hist != nullptr;
  const auto cfg = make_config(w, protocol, seed);
  RunOut r;
  r.protocol = exp::to_string(protocol);
  const int run_span = spans.open("run:" + r.protocol, parent);

  std::unique_ptr<exp::Scenario> s;
  {
    const int span = spans.open("setup", run_span);
    const auto allocs0 = bench::alloc_count();
    const auto t0 = Clock::now();
    s = std::make_unique<exp::Scenario>(cfg);
    r.setup_s = seconds_since(t0);
    r.allocs_setup = bench::alloc_count() - allocs0;
    spans.close(span);
  }
  r.rss_setup_mb = current_rss_mb();

  if (traced) {
    r.trace = std::make_unique<LayerTrace>(*hist);
    r.trace->attach(*s);
  }
  {
    const int span = spans.open("start+run", run_span);
    const auto allocs0 = bench::alloc_count();
    const auto t0 = Clock::now();
    s->start();
    if (r.trace) r.trace->arm(*s);
    r.events = s->run();
    r.run_s = seconds_since(t0);
    r.allocs_run = bench::alloc_count() - allocs0;
    spans.close(span);
  }
  if (r.trace) LayerTrace::detach(*s);

  const int collect_span = spans.open("collect", run_span);
  auto& sched = s->simulation().scheduler();
  auto& col = s->collector();
  r.cancelled = sched.events_cancelled();
  r.event_limit_hit = sched.event_limit_hit();
  r.published = col.published();
  r.expected = col.expected_deliveries();
  r.deliveries = col.deliveries();
  r.unknown = col.unknown_item_deliveries();
  r.delivery_ratio = col.delivery_ratio();
  r.mean_delay_ms = col.delay_ms().mean();
  r.delay_samples = col.delay_percentiles().sample_count();
  r.delay_bytes = col.delay_percentiles().memory_bytes();
  r.p95_delay_ms = r.delay_samples > 0 ? col.delay_percentiles().p95() : 0.0;
  const auto energy = s->network().energy();
  if (r.published > 0) r.energy_per_item_uj = energy.protocol_uj() / static_cast<double>(r.published);
  r.net = s->network().counters();
  r.grid_queries = s->network().grid_queries();
  r.given_up = s->protocol().given_up();
  if (s->routing() != nullptr) r.dbf = s->routing()->total_stats();
  if (s->faults() != nullptr) {
    s->faults()->finalize();
    r.fault = s->faults()->stats();
  }
  r.digest = digest_of(r, energy, col.delay_ms().max(), s->simulation().now().to_ms());

  if (r.event_limit_hit) r.failures.push_back("event limit hit");
  if (r.deliveries > r.expected) r.failures.push_back("more deliveries than expected");
  if (r.unknown > 0) r.failures.push_back("delivery of an unknown item");
  if (w.stacked_faults) {
    if (r.delivery_ratio < kFaultsDeliveryFloor) r.failures.push_back("delivery below floor");
    if (r.fault.node_downs == 0) r.failures.push_back("no fault injected");
  } else if (r.delivery_ratio < 1.0) {
    r.failures.push_back("delivery below 1.0");
  }
  spans.close(collect_span);

  // Throwaway builds on the run's network, after every statistic is taken,
  // so the traced run's simulated results stay the untraced run's.
  if (traced && s->routing() != nullptr) {
    routing::DbfParams dbf = cfg.dbf;
    dbf.charge_energy = false;
    const int span = spans.open("routing.build", run_span);
    const auto t0 = Clock::now();
    routing::RoutingService throwaway{s->network(), dbf};
    r.routing_build_s = seconds_since(t0);
    spans.close(span);
  }
  if (traced) {
    // The workload's own interest, built as exp::Scenario builds it.
    const int span = spans.open("core.interest_build", run_span);
    const auto t0 = Clock::now();
    std::unique_ptr<core::Interest> throwaway;
    if (w.pattern == exp::TrafficPattern::kCluster) {
      throwaway = std::make_unique<core::ClusterInterest>(
          s->network(), cfg.zone_radius_m, cfg.cluster_p_other, cfg.seed ^ 0xC1057E8ull);
    } else {
      throwaway = std::make_unique<core::AllToAllInterest>(s->network().size());
    }
    r.interest_build_s = seconds_since(t0);
    spans.close(span);
  }
  s.reset();
  spans.close(run_span);
  return r;
}

// --- JSON output ----------------------------------------------------------------

class Json {
 public:
  Json& key(const char* k) {
    sep();
    out_ += '"';
    out_ += k;
    out_ += "\":";
    fresh_ = true;
    return *this;
  }
  Json& num(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(buf);
  }
  Json& num(std::uint64_t v) { return raw(std::to_string(v)); }
  Json& str(std::string_view v) {
    sep();
    out_ += '"';
    out_ += v;
    out_ += '"';
    return *this;
  }
  Json& boolean(bool v) { return raw(v ? "true" : "false"); }
  Json& begin(char c) {
    sep();
    out_ += c;
    fresh_ = true;
    return *this;
  }
  Json& end(char c) {
    out_ += c;
    fresh_ = false;
    return *this;
  }
  [[nodiscard]] const std::string& text() const { return out_; }

 private:
  Json& raw(std::string_view v) {
    sep();
    out_ += v;
    return *this;
  }
  void sep() {
    if (!fresh_ && !out_.empty()) out_ += ',';
    fresh_ = false;
  }
  std::string out_;
  bool fresh_ = true;
};

void write_run(Json& j, const RunOut& r) {
  j.begin('{');
  j.key("protocol").str(r.protocol);
  j.key("setup_s").num(r.setup_s);
  j.key("run_s").num(r.run_s);
  j.key("allocs_setup").num(r.allocs_setup);
  j.key("allocs_run").num(r.allocs_run);
  j.key("rss_setup_mb").num(r.rss_setup_mb);
  j.key("events").num(r.events);
  j.key("cancelled").num(r.cancelled);
  j.key("published").num(r.published);
  j.key("expected").num(r.expected);
  j.key("deliveries").num(r.deliveries);
  j.key("delivery_ratio").num(r.delivery_ratio);
  j.key("energy_per_item_uj").num(r.energy_per_item_uj);
  j.key("mean_delay_ms").num(r.mean_delay_ms);
  j.key("p95_delay_ms").num(r.p95_delay_ms);
  j.key("tx_frames").num(r.net.tx_total());
  j.key("tx_bytes").num(r.net.tx_bytes);
  j.key("tx_req").num(r.net.tx_req);
  j.key("receptions").num(r.net.deliveries);
  j.key("drops").num(r.net.dropped_sender_down + r.net.dropped_out_of_range +
                     r.net.dropped_receiver_down + r.net.dropped_link_fault +
                     r.net.dropped_battery_dead);
  j.key("grid_queries").num(r.grid_queries);
  j.key("given_up").num(r.given_up);
  j.key("delay_samples").num(r.delay_samples);
  j.key("delay_bytes").num(r.delay_bytes);
  j.key("dbf_rounds").num(static_cast<std::uint64_t>(r.dbf.rounds));
  j.key("dbf_messages").num(r.dbf.messages);
  j.key("node_downs").num(r.fault.node_downs);
  j.key("permanent_deaths").num(r.fault.permanent_deaths);
  j.key("digest").str(r.digest);
  j.key("failures").begin('[');
  for (const auto& f : r.failures) j.str(f);
  j.end(']');
  if (r.trace) {
    const auto& t = *r.trace;
    j.key("trace").begin('{');
    j.key("classes").begin('{');
    for (std::size_t c = 0; c < kClassCount; ++c) {
      j.key(kClassName[c]).begin('[').num(t.events(c)).num(t.seconds(c)).end(']');
    }
    j.end('}');
    j.key("pending_max").num(static_cast<std::uint64_t>(t.pending_max()));
    j.key("routing_build_s").num(r.routing_build_s);
    j.key("interest_build_s").num(r.interest_build_s);
    j.end('}');
  }
  j.end('}');
}

int usage() {
  std::fprintf(stderr,
               "usage: macro_driver --workload dense|cluster|faults [--seed N] [--seconds S] "
               "[--cpu C] [--trace] [--spans FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 2004;
  double budget_s = 0.0;
  int cpu = -1;
  bool traced = false;
  std::string spans_path;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a == "--workload" && i + 1 < argc) {
      workload = argv[++i];
    } else if (a == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && i + 1 < argc) {
      budget_s = std::strtod(argv[++i], nullptr);
    } else if (a == "--cpu" && i + 1 < argc) {
      cpu = std::atoi(argv[++i]);
    } else if (a == "--trace") {
      traced = true;
    } else if (a == "--spans" && i + 1 < argc) {
      spans_path = argv[++i];
    } else {
      return usage();
    }
  }
  const auto* w = std::find_if(kWorkloads.begin(), kWorkloads.end(),
                               [&](const Workload& x) { return x.name == workload; });
  if (w == kWorkloads.end()) return usage();
  if (cpu >= 0) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    if (sched_setaffinity(0, sizeof set, &set) != 0) {
      std::fprintf(stderr, "macro_driver: cannot pin to CPU %d\n", cpu);
      return 1;
    }
  }
  if (!kOptimized) {
    std::fprintf(stderr, "macro_driver: built without optimisation or without NDEBUG; "
                         "refusing to report timings\n");
    return 3;
  }

  Spans spans;
  const int root = spans.open("workload:" + workload, -1);
  NsHistogram hist;
  NsHistogram* const traced_hist = traced ? &hist : nullptr;
  std::vector<std::uint32_t> cycle;
  Json j;
  j.begin('{');
  j.key("workload").str(workload);
  j.key("seed").num(seed);
  j.key("traced").boolean(traced);
  j.key("compiler").str(kCompiler);
  j.key("optimized").boolean(kOptimized);
  j.key("reps").begin('[');
  double peak_mb = 0.0;
  const auto t0 = Clock::now();
  do {
    const int rep_span = spans.open("rep", root);
    RunOut spms = run_protocol(*w, exp::ProtocolKind::kSpms, seed, traced_hist, spans, rep_span);
    RunOut spin = run_protocol(*w, exp::ProtocolKind::kSpin, seed, traced_hist, spans, rep_span);
    spans.close(rep_span);
    // The peak of one fresh operation, taken before the reference's memory
    // exists; later operations reuse the operation's memory.
    if (peak_mb == 0.0) {
      peak_mb = peak_rss_mb();
      cycle = chase_cycle(1u << 18);
    }

    // Pair checks: the paper's SPMS-over-SPIN claims on the failure-free fields.
    const auto fail_pair = [&](const char* why) {
      spms.failures.push_back(why);
      spin.failures.push_back(why);
    };
    if (!w->stacked_faults && spms.energy_per_item_uj >= spin.energy_per_item_uj) {
      fail_pair("SPMS energy per item not below SPIN's");
    }
    if (w->name == "dense" && spms.mean_delay_ms >= spin.mean_delay_ms) {
      fail_pair("SPMS mean delay not below SPIN's");
    }
    j.begin('{');
    j.key("ref_s").num(reference_s(cycle));
    j.key("runs").begin('[');
    write_run(j, spms);
    write_run(j, spin);
    j.end(']');
    j.end('}');
  } while (seconds_since(t0) < budget_s);
  j.end(']');
  spans.close(root);
  j.key("peak_rss_mb").num(peak_mb);
  if (traced) {
    j.key("event_ns_p50").num(hist.quantile(0.50));
    j.key("event_ns_p99").num(hist.quantile(0.99));
  }
  j.end('}');
  std::printf("%s\n", j.text().c_str());

  if (traced && !spans_path.empty()) {
    std::ofstream out{spans_path};
    spans.write(out);
    if (!out) {
      std::fprintf(stderr, "macro_driver: cannot write %s\n", spans_path.c_str());
      return 1;
    }
  }
  return 0;
}
