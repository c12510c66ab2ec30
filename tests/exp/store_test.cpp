#include "exp/store/result_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <set>

#include "exp/batch.hpp"
#include "exp/columns.hpp"
#include "exp/scenario_registry.hpp"
#include "exp/store/canonical.hpp"
#include "stored_fields.hpp"

/// Persistent-store invariants: canonical serialization is stable and
/// bit-exact, the config key reacts to every knob, the store survives
/// corruption and composes under merge, and a warm BatchRunner pass
/// reproduces a cold one byte-identically while executing nothing.

namespace spms::exp::store {
namespace {

namespace fs = std::filesystem;

class StoreTest : public ::testing::Test {
 protected:
  /// A fresh empty directory, unique per test and per call, removed on exit.
  fs::path temp_dir() {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    fs::path dir = fs::path{::testing::TempDir()} / "spms_store" /
                   (std::string{info->name()} + "_" + std::to_string(dirs_.size()));
    fs::remove_all(dir);
    dirs_.push_back(dir);
    return dir;
  }

  void TearDown() override {
    for (const auto& dir : dirs_) fs::remove_all(dir);
  }

  std::vector<fs::path> dirs_;
};

RunResult awkward_result() {
  RunResult r;
  r.protocol = "SPMS";
  r.label = "edge \"quotes\"\\back\nslash\tand control \x01 bytes";
  r.nodes = 169;
  r.zone_radius_m = 20.0;
  r.items_published = 338;
  r.expected_deliveries = 56784;
  r.deliveries = 56783;
  r.delivery_ratio = 56783.0 / 56784.0;  // not representable exactly in decimal
  r.mean_delay_ms = 1.0 / 3.0;
  r.p95_delay_ms = 0.1;
  r.max_delay_ms = 1e-308;  // almost-denormal magnitude
  r.energy.protocol_tx_uj = 1234.5678901234567;
  r.energy.protocol_rx_uj = 2.2250738585072014e-308;
  r.energy.routing_tx_uj = 9e18;
  r.energy.routing_rx_uj = -0.0;  // signed zero: written "-0", read back negative
  r.energy.idle_uj = 0.7000000000000001;
  r.energy_per_item_uj = 3.3333333333333335;
  r.protocol_energy_per_item_uj = 0.30000000000000004;
  r.battery.depleted_nodes = 5;
  r.battery.initial_total_uj = 16900.000000000002;
  r.battery.spent_total_uj = 1.0 / 7.0;
  r.battery.residual_mean_uj = 99.30000000000001;
  r.battery.residual_stddev_uj = 2.5e-308;
  r.battery.residual_min_uj = 1e-12;
  r.battery.residual_gini = 0.6180339887498949;
  r.net_counters.tx_adv = 1;
  r.net_counters.tx_req = 2;
  r.net_counters.tx_data = 3;
  r.net_counters.tx_route = 4;
  r.net_counters.tx_bytes = 5;
  r.net_counters.deliveries = 6;
  r.net_counters.dropped_sender_down = 7;
  r.net_counters.dropped_out_of_range = 8;
  r.net_counters.dropped_receiver_down = 9;
  r.net_counters.dropped_link_fault = 17;
  r.net_counters.dropped_battery_dead = 23;
  r.dbf_total.rounds = 10;
  r.dbf_total.messages = 11;
  r.dbf_total.message_bytes = 12;
  r.dbf_total.energy_uj = 0.1 + 0.2;  // the canonical 0.30000000000000004
  r.dbf_total.converged = true;
  r.fault_stats.fault_events = 21;
  r.fault_stats.node_downs = 13;
  r.fault_stats.node_repairs = 12;
  r.fault_stats.permanent_deaths = 1;
  r.fault_stats.max_concurrent_down = 4;
  r.fault_stats.total_downtime_ms = 123.45000000000002;
  r.fault_stats.outage_time_ms = 98.7;
  r.fault_stats.deliveries_during_outage = 222;
  r.fault_stats.recoveries_sampled = 11;
  r.fault_stats.mean_recovery_latency_ms = 2.0 / 7.0;
  r.fault_stats.repairs_unrecovered = 1;
  r.fault_stats.time_to_first_death_ms = 41.99999999999999;
  r.fault_stats.time_to_10pct_dead_ms = 123.00000000000001;
  r.fault_stats.half_life_ms = -0.5;  // negative, like the -1 "never reached" sentinel
  r.mobility_epochs = 14;
  r.given_up = 15;
  r.unknown_item_deliveries = 16;
  r.sim_time_ms = 12345.000000000001;
  r.events_executed = 1'000'000'007;
  r.event_limit_hit = true;
  return r;
}

/// 64-bit FNV-1a, the store's key hash; `h` continues an earlier call.
std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h = 14695981039346656037ULL) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

SweepSpec small_spec() {
  SweepSpec spec;
  spec.name = "store-test";
  spec.base.node_count = 16;
  spec.base.zone_radius_m = 12.0;
  spec.base.traffic.packets_per_node = 1;
  spec.protocols = {ProtocolKind::kSpms, ProtocolKind::kSpin};
  spec.seeds = {1, 2};
  return spec;
}

// --- canonical serialization -------------------------------------------------

TEST(CanonicalTest, EqualConfigsSerializeAndHashIdentically) {
  const ExperimentConfig a, b;
  EXPECT_EQ(canonical_config_json(a), canonical_config_json(b));
  EXPECT_EQ(config_key(a), config_key(b));
  EXPECT_EQ(config_key(a).size(), 16u);
  EXPECT_EQ(config_key(a), key_for_canonical(canonical_config_json(a)));
}

TEST(CanonicalTest, KeyReactsToEveryKindOfKnob) {
  const ExperimentConfig base;
  const auto mutated_key = [&](auto&& mutate) {
    ExperimentConfig c = base;
    mutate(c);
    return config_key(c);
  };
  const std::string k0 = config_key(base);
  std::set<std::string> keys{k0};
  keys.insert(mutated_key([](auto& c) { c.seed += 1; }));
  keys.insert(mutated_key([](auto& c) { c.label = "x"; }));
  keys.insert(mutated_key([](auto& c) { c.protocol = ProtocolKind::kSpin; }));
  keys.insert(mutated_key([](auto& c) { c.pattern = TrafficPattern::kCluster; }));
  keys.insert(mutated_key([](auto& c) { c.deployment = Deployment::kUniformRandom; }));
  keys.insert(mutated_key([](auto& c) { c.node_count = 170; }));
  keys.insert(mutated_key([](auto& c) { c.zone_radius_m += 0.5; }));
  keys.insert(mutated_key([](auto& c) { c.mac.carrier_sense = false; }));
  keys.insert(mutated_key([](auto& c) { c.mac.num_slots += 1; }));
  keys.insert(mutated_key([](auto& c) { c.energy.rx_power_mw *= 2; }));
  keys.insert(mutated_key([](auto& c) { c.proto.tout_dat = sim::Duration::ms(9.0); }));
  keys.insert(mutated_key([](auto& c) { c.spms_ext.num_scones = 2; }));
  keys.insert(mutated_key([](auto& c) { c.traffic.packets_per_node += 1; }));
  keys.insert(mutated_key([](auto& c) { c.dbf.charge_energy = false; }));
  keys.insert(mutated_key([](auto& c) { c.faults.crash.enabled = true; }));
  keys.insert(
      mutated_key([](auto& c) { c.faults.crash.repair_max = sim::Duration::ms(16.0); }));
  keys.insert(mutated_key([](auto& c) { c.faults.region.enabled = true; }));
  keys.insert(mutated_key([](auto& c) { c.faults.region.radius_m = 11.0; }));
  keys.insert(mutated_key([](auto& c) { c.battery.finite = true; }));
  keys.insert(mutated_key([](auto& c) { c.battery.capacity_uj = 123.0; }));
  keys.insert(mutated_key([](auto& c) { c.battery.heterogeneity = 0.25; }));
  keys.insert(mutated_key([](auto& c) { c.battery.idle_drain_mw = 0.02; }));
  keys.insert(mutated_key([](auto& c) { c.battery.idle_tick = sim::Duration::ms(51.0); }));
  keys.insert(mutated_key([](auto& c) { c.faults.link.enabled = true; }));
  keys.insert(mutated_key([](auto& c) { c.faults.link.drop_end = 0.5; }));
  keys.insert(mutated_key([](auto& c) { c.faults.sink_churn.enabled = true; }));
  keys.insert(mutated_key([](auto& c) { c.faults.sink_churn.hops = 3; }));
  keys.insert(mutated_key([](auto& c) { c.mobility = true; }));
  keys.insert(mutated_key([](auto& c) { c.mobility_params.move_fraction = 0.2; }));
  keys.insert(mutated_key([](auto& c) { c.cluster_p_other = 0.06; }));
  keys.insert(mutated_key([](auto& c) { c.activity_horizon = sim::Duration::ms(101.0); }));
  keys.insert(mutated_key([](auto& c) { c.max_events = 1; }));
  EXPECT_EQ(keys.size(), 33u) << "some mutation did not change the config key";
}

TEST(CanonicalTest, ResultRoundTripsBitExactly) {
  const RunResult original = awkward_result();
  const std::string json = result_to_json(original);
  const auto parsed = result_from_json(json);
  ASSERT_TRUE(parsed.has_value());
  expect_bit_identical(original, *parsed);
  // Canonical: re-serializing the parse reproduces the bytes.
  EXPECT_EQ(result_to_json(*parsed), json);
  // Pinned: a stored result byte that moves orphans every stored result.
  char hex[19];
  std::snprintf(hex, sizeof hex, "0x%016llx", static_cast<unsigned long long>(fnv1a(json)));
  EXPECT_EQ(fnv1a(json), 0x8c4735c268b5d35dULL)
      << "stored result bytes hash to " << hex
      << " now; a change of their shape bumps kSchemaVersion and re-records this pin";
}

TEST(CanonicalTest, SampleResultSetsEveryStoredField) {
  // The round trip cannot see a reader that drops a field the sample holds
  // at its default value, so the sample holds none.
  const auto sample = stored_fields(awkward_result());
  const auto defaults = stored_fields(RunResult{});
  ASSERT_EQ(sample.size(), defaults.size());
  for (std::size_t i = 0; i < sample.size(); ++i) {
    EXPECT_NE(sample[i].second, defaults[i].second)
        << sample[i].first << " is at its default in awkward_result()";
  }
}

TEST(CanonicalTest, NonFiniteResultFieldsReadBackAsNaN) {
  RunResult r = awkward_result();
  r.mean_delay_ms = std::numeric_limits<double>::quiet_NaN();
  r.max_delay_ms = std::numeric_limits<double>::infinity();
  const std::string json = result_to_json(r);
  EXPECT_NE(json.find(R"("mean_delay_ms":null,"p95_delay_ms":0.1,"max_delay_ms":null)"),
            std::string::npos);
  const auto parsed = result_from_json(json);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(std::isnan(parsed->mean_delay_ms));
  EXPECT_TRUE(std::isnan(parsed->max_delay_ms));
  EXPECT_EQ(result_to_json(*parsed), json);
}

TEST(CanonicalTest, MalformedResultJsonIsRejected) {
  const std::string good = result_to_json(awkward_result());
  EXPECT_FALSE(result_from_json("").has_value());
  EXPECT_FALSE(result_from_json("{").has_value());
  EXPECT_FALSE(result_from_json(good.substr(0, good.size() / 2)).has_value());
  EXPECT_FALSE(result_from_json(good + "x").has_value());
  EXPECT_FALSE(result_from_json("{\"nodes\":\"not a number\"}").has_value());
}

TEST(CanonicalTest, GoldenDigestMatchesTheGoldenFiles) {
  // FNV-1a over every golden CSV in file-name order: name, then bytes.
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator{SPMS_GOLDEN_DIR}) {
    if (entry.path().extension() == ".csv") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end(), [](const fs::path& a, const fs::path& b) {
    return a.filename().string() < b.filename().string();
  });
  ASSERT_FALSE(files.empty());
  std::uint64_t h = fnv1a("");
  for (const auto& file : files) {
    h = fnv1a(file.filename().string(), h);
    std::ifstream in{file, std::ios::binary};
    h = fnv1a(std::string{std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}},
              h);
  }
  char hex[19];
  std::snprintf(hex, sizeof hex, "0x%016llx", static_cast<unsigned long long>(h));
  EXPECT_EQ(h, kGoldenDigest)
      << "tests/golden/ changed: a re-pinned golden is a change of model behaviour.  Set "
         "kGoldenDigest to "
      << hex << " and bump kSchemaVersion in the same change (exp/store/canonical.hpp).";
}

TEST(CanonicalTest, ConfigBytesArePinned) {
  // The canonical config bytes are the store key: a byte that moves orphans
  // every stored result.  Pin the default config's key and a hash over the
  // canonical config of every registry job (registry order, then expansion
  // order, two consecutive seeds), with kGoldenDigest's FNV-1a constants.
  // The key is salted with kSchemaVersion, so a schema bump moves it and
  // the same change re-records it; the registry hash covers the bytes alone.
  std::uint64_t h = fnv1a("");
  std::size_t jobs = 0;
  for (const auto& info : scenario_registry()) {
    auto spec = info.make();
    spec.use_consecutive_seeds(2);
    for (const auto& job : spec.expand()) {
      h = fnv1a(canonical_config_json(job.config), h);
      ++jobs;
    }
  }
  char hex[19];
  std::snprintf(hex, sizeof hex, "0x%016llx", static_cast<unsigned long long>(h));
  const std::string key = config_key(ExperimentConfig{});
  EXPECT_EQ(jobs, 472u);
  EXPECT_EQ(key, "730bcdc5dce878d5")
      << "default config key is now " << key
      << "; a kSchemaVersion bump moves it, so re-record it in the same change.  If the "
         "schema did not change, the canonical config bytes moved (see the registry hash)";
  EXPECT_EQ(h, 0x055ed6111a241cf3ULL)
      << "registry config hash is now " << hex
      << "; the canonical config bytes moved, which orphans every stored result (bump "
         "kSchemaVersion if that is intended)";
}

TEST(CanonicalTest, RecordLineRoundTrips) {
  const ExperimentConfig cfg;
  const std::string canonical = canonical_config_json(cfg);
  const std::string key = config_key(cfg);
  const std::string result_json = result_to_json(awkward_result());
  const auto rec = parse_record_line(make_record_line(key, canonical, result_json));
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->schema, kSchemaVersion);
  EXPECT_EQ(rec->key, key);
  EXPECT_EQ(rec->config_json, canonical);
  EXPECT_EQ(rec->result_json, result_json);
  EXPECT_FALSE(parse_record_line("not json at all").has_value());
  EXPECT_FALSE(parse_record_line("{\"schema\":1,\"key\":\"k\"}").has_value());
}

// --- ResultStore -------------------------------------------------------------

TEST_F(StoreTest, PersistsAndReloads) {
  const auto dir = temp_dir();
  ExperimentConfig cfg_a;
  ExperimentConfig cfg_b;
  cfg_b.seed = 99;
  const auto result = awkward_result();
  {
    ResultStore store{dir};
    store.put(config_key(cfg_a), canonical_config_json(cfg_a), result);
    store.put(config_key(cfg_b), canonical_config_json(cfg_b), result);
    EXPECT_EQ(store.size(), 2u);
  }
  ResultStore reloaded{dir};
  reloaded.load();
  EXPECT_EQ(reloaded.size(), 2u);
  EXPECT_EQ(reloaded.corrupt_lines(), 0u);
  const auto hit = reloaded.find(config_key(cfg_a), canonical_config_json(cfg_a));
  ASSERT_TRUE(hit.has_value());
  expect_bit_identical(result, *hit);
  // Unknown key and key/config mismatch both read as misses.
  EXPECT_FALSE(reloaded.find("0000000000000000", canonical_config_json(cfg_a)).has_value());
  EXPECT_FALSE(reloaded.find(config_key(cfg_a), canonical_config_json(cfg_b)).has_value());
}

TEST_F(StoreTest, SkipsCorruptAndForeignLinesButKeepsTheRest) {
  const auto dir = temp_dir();
  ExperimentConfig cfg;
  {
    ResultStore store{dir};
    store.put(config_key(cfg), canonical_config_json(cfg), awkward_result());
  }
  {
    // Simulate a crash-truncated tail, editor noise, a key/config mismatch,
    // and a foreign schema version, all appended after the good record.
    std::ofstream out{dir / "results.jsonl", std::ios::app};
    out << "{\"schema\":1,\"key\":\"dead\",\"config\":{\"trunca";  // no newline needed
    out << "\nnot json\n\n";
    out << make_record_line("beefbeefbeefbeef", canonical_config_json(cfg),
                            result_to_json(awkward_result()))
        << "\n";  // key does not hash from config
    std::string foreign = make_record_line(config_key(cfg), canonical_config_json(cfg),
                                           result_to_json(awkward_result()));
    const std::string current = "\"schema\":" + std::to_string(kSchemaVersion);
    foreign.replace(foreign.find(current), current.size(), "\"schema\":0");
    out << foreign << "\n";
  }
  ResultStore store{dir};
  store.load();
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.corrupt_lines(), 3u);  // truncated + noise + key mismatch; foreign is invisible
  EXPECT_TRUE(store.find(config_key(cfg), canonical_config_json(cfg)).has_value());
}

TEST_F(StoreTest, LastCompleteRecordWinsAndCompactDeduplicates) {
  const auto dir = temp_dir();
  ExperimentConfig cfg;
  RunResult first = awkward_result();
  RunResult second = awkward_result();
  second.deliveries += 1;
  {
    ResultStore store{dir};
    store.put(config_key(cfg), canonical_config_json(cfg), first);
    store.put(config_key(cfg), canonical_config_json(cfg), second);
  }
  ResultStore store{dir};
  store.load();
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.find(config_key(cfg), canonical_config_json(cfg))->deliveries,
            second.deliveries);
  store.compact();
  // One file, one line, still the winning record.
  std::size_t files = 0;
  for (const auto& e : fs::directory_iterator{dir}) {
    ++files;
    EXPECT_EQ(e.path().filename(), "results.jsonl");
  }
  EXPECT_EQ(files, 1u);
  ResultStore compacted{dir};
  compacted.load();
  EXPECT_EQ(compacted.size(), 1u);
  expect_bit_identical(second, *compacted.find(config_key(cfg), canonical_config_json(cfg)));
}

TEST_F(StoreTest, CompactWithoutLoadPreservesDiskRecords) {
  const auto dir = temp_dir();
  ExperimentConfig on_disk;
  ExperimentConfig in_memory;
  in_memory.seed = 42;
  {
    ResultStore store{dir};
    store.put(config_key(on_disk), canonical_config_json(on_disk), awkward_result());
  }
  // A fresh handle that never load()ed: compact must fold the disk record
  // in rather than erase it with its (partial) in-memory view.
  ResultStore store{dir};
  store.put(config_key(in_memory), canonical_config_json(in_memory), awkward_result());
  store.compact();
  ResultStore reloaded{dir};
  reloaded.load();
  EXPECT_EQ(reloaded.size(), 2u);
  EXPECT_TRUE(reloaded.find(config_key(on_disk), canonical_config_json(on_disk)).has_value());
  EXPECT_TRUE(
      reloaded.find(config_key(in_memory), canonical_config_json(in_memory)).has_value());
}

TEST_F(StoreTest, MergeUnionsDisjointAndOverlappingStores) {
  const auto dir_a = temp_dir();
  const auto dir_b = temp_dir();
  ExperimentConfig shared;
  ExperimentConfig only_b;
  only_b.seed = 77;
  ResultStore a{dir_a};
  a.put(config_key(shared), canonical_config_json(shared), awkward_result());
  ResultStore b{dir_b};
  b.put(config_key(shared), canonical_config_json(shared), awkward_result());
  b.put(config_key(only_b), canonical_config_json(only_b), awkward_result());
  // Every file of a's directory, name and bytes.
  const auto files_of_a = [&] {
    std::map<std::string, std::string> files;
    for (const auto& e : fs::directory_iterator{dir_a}) {
      std::ifstream in{e.path(), std::ios::binary};
      files[e.path().filename().string()] =
          std::string{std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
    }
    return files;
  };
  const auto before = files_of_a();
  EXPECT_EQ(a.merge_from(b), 1u);  // the shared record is not duplicated
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(a.merge_from(a), 0u);  // self-merge is a no-op
  EXPECT_EQ(files_of_a(), before) << "merge_from must not write; compact() does";

  // compact() writes the union, each record once.
  a.compact();
  const auto after = files_of_a();
  ASSERT_EQ(after.size(), 1u);
  const std::string& lines = after.at("results.jsonl");
  EXPECT_EQ(std::count(lines.begin(), lines.end(), '\n'), 2);
  ResultStore reloaded{dir_a};
  reloaded.load();
  EXPECT_EQ(reloaded.size(), 2u);
  EXPECT_TRUE(reloaded.find(config_key(only_b), canonical_config_json(only_b)).has_value());
}

TEST_F(StoreTest, InventoryReportsScenariosSchemasAndCorruption) {
  const auto dir = temp_dir();
  ExperimentConfig a;
  a.label = "figX/SPMS/n16/r12/s1";
  ExperimentConfig b = a;
  b.label = "figX/SPMS/n16/r12/s2";
  b.seed = 2;
  ExperimentConfig c;
  c.label = "faults-smoke/SPMS/n16/r12/crash/s1";
  ExperimentConfig unlabeled;  // single-run config: empty label
  {
    ResultStore store{dir};
    const auto with_label = [&](const ExperimentConfig& cfg) {
      RunResult r = awkward_result();
      r.label = cfg.label;
      store.put(config_key(cfg), canonical_config_json(cfg), r);
    };
    with_label(a);
    with_label(b);
    with_label(b);  // duplicate key: must count once
    with_label(c);
    with_label(unlabeled);
  }
  {
    // One corrupt line and one foreign-schema line.
    std::ofstream out{dir / "results.jsonl", std::ios::app};
    out << "garbage\n";
    std::string foreign = make_record_line(config_key(a), canonical_config_json(a),
                                           result_to_json(awkward_result()));
    const std::string current = "\"schema\":" + std::to_string(kSchemaVersion);
    foreign.replace(foreign.find(current), current.size(), "\"schema\":1");
    out << foreign << "\n";
  }
  ResultStore store{dir};
  const auto inv = store.inventory();
  EXPECT_EQ(inv.files, 1u);
  EXPECT_EQ(inv.total_lines, 7u);
  EXPECT_EQ(inv.corrupt_lines, 1u);
  EXPECT_EQ(inv.schema_lines.at(kSchemaVersion), 5u);
  EXPECT_EQ(inv.schema_lines.at(1), 1u);
  EXPECT_EQ(inv.scenarios.at("figX"), 2u);
  EXPECT_EQ(inv.scenarios.at("faults-smoke"), 1u);
  EXPECT_EQ(inv.scenarios.at("(unlabeled)"), 1u);
}

// --- BatchRunner integration -------------------------------------------------

TEST_F(StoreTest, WarmRunExecutesNothingAndIsBitIdenticalAtAnyJobs) {
  const auto spec = small_spec();
  ResultStore store{temp_dir()};

  BatchOptions cold_opts;
  cold_opts.jobs = 4;
  cold_opts.store = &store;
  const auto cold = BatchRunner{cold_opts}.run(spec);
  EXPECT_EQ(cold.executed(), 4u);
  EXPECT_EQ(cold.cached(), 0u);
  EXPECT_EQ(cold.workers(), 4u);
  EXPECT_EQ(store.size(), 4u);

  for (const std::size_t jobs : {std::size_t{1}, std::size_t{8}}) {
    BatchOptions warm_opts;
    warm_opts.jobs = jobs;
    warm_opts.store = &store;
    std::size_t callbacks = 0;
    warm_opts.on_result = [&](const SweepJob&, const RunResult&, std::size_t, std::size_t) {
      ++callbacks;
    };
    const auto warm = BatchRunner{warm_opts}.run(spec);
    EXPECT_EQ(warm.executed(), 0u) << "jobs=" << jobs;
    EXPECT_EQ(warm.cached(), 4u);
    EXPECT_EQ(warm.workers(), 0u) << "nothing executed, so no worker ran";
    EXPECT_EQ(callbacks, 0u) << "cache hits must not replay through on_result";
    ASSERT_EQ(warm.runs().size(), cold.runs().size());
    for (std::size_t i = 0; i < cold.runs().size(); ++i) {
      expect_bit_identical(cold.runs()[i], warm.runs()[i]);
    }
    // Aggregate rows fold bit-identical inputs, so they match too.
    ASSERT_EQ(warm.points().size(), cold.points().size());
    for (std::size_t p = 0; p < cold.points().size(); ++p) {
      EXPECT_EQ(point_row(warm.points()[p]), point_row(cold.points()[p]));
    }
  }
}

TEST_F(StoreTest, PartialStoreRunsOnlyTheMissingCells) {
  const auto spec = small_spec();
  ResultStore store{temp_dir()};
  const auto jobs = spec.expand();
  // Pre-populate two of the four cells with genuine results.
  for (const std::size_t i : {std::size_t{0}, std::size_t{3}}) {
    store.put(config_key(jobs[i].config), canonical_config_json(jobs[i].config),
              run_experiment(jobs[i].config));
  }
  BatchOptions opts;
  opts.jobs = 2;
  opts.store = &store;
  std::size_t reported_total = 0;
  opts.on_result = [&](const SweepJob&, const RunResult&, std::size_t, std::size_t total) {
    reported_total = total;
  };
  const auto batch = BatchRunner{opts}.run(spec);
  EXPECT_EQ(batch.executed(), 2u);
  EXPECT_EQ(batch.cached(), 2u);
  EXPECT_EQ(batch.workers(), 2u);
  EXPECT_EQ(reported_total, 2u) << "on_result totals must count executed jobs only";
  EXPECT_EQ(store.size(), 4u);
}

TEST_F(StoreTest, NoCacheReexecutesButStillWritesThrough) {
  const auto spec = small_spec();
  ResultStore store{temp_dir()};
  BatchOptions opts;
  opts.jobs = 2;
  opts.store = &store;
  const auto cold = BatchRunner{opts}.run(spec);
  opts.use_cache = false;
  const auto forced = BatchRunner{opts}.run(spec);
  EXPECT_EQ(forced.executed(), 4u);
  EXPECT_EQ(forced.cached(), 0u);
  for (std::size_t i = 0; i < cold.runs().size(); ++i) {
    expect_bit_identical(cold.runs()[i], forced.runs()[i]);
  }
  EXPECT_EQ(store.size(), 4u);
}

// --- sharding ----------------------------------------------------------------

TEST(ShardTest, FilterShardPartitionsJobsExactly) {
  SweepSpec spec = small_spec();
  spec.node_counts = {16, 25};  // 4 points x 2 seeds = 8 jobs
  const auto all = spec.expand();
  EXPECT_THROW((void)filter_shard(spec.expand(), 2, 2), std::invalid_argument);
  EXPECT_THROW((void)filter_shard(spec.expand(), 0, 0), std::invalid_argument);
  std::set<std::string> seen;
  std::size_t total = 0;
  for (std::size_t s = 0; s < 3; ++s) {
    const auto shard = filter_shard(spec.expand(), s, 3);
    total += shard.size();
    for (std::size_t i = 0; i < shard.size(); ++i) {
      EXPECT_EQ(shard[i].index, i) << "shard indices must be contiguous";
      seen.insert(shard[i].config.label);  // labels keep canonical coordinates
    }
  }
  EXPECT_EQ(total, all.size());
  EXPECT_EQ(seen.size(), all.size()) << "shards must partition the sweep";
}

TEST_F(StoreTest, MergedShardStoresReproduceTheUnshardedRunExactly) {
  const auto spec = small_spec();
  const auto unsharded = BatchRunner{{}}.run(spec);

  ResultStore shard0{temp_dir()};
  ResultStore shard1{temp_dir()};
  for (std::size_t s = 0; s < 2; ++s) {
    BatchOptions opts;
    opts.jobs = 2;
    opts.store = s == 0 ? &shard0 : &shard1;
    opts.shard_index = s;
    opts.shard_count = 2;
    const auto part = BatchRunner{opts}.run(spec);
    EXPECT_EQ(part.runs().size(), 2u);
    EXPECT_EQ(part.executed(), 2u);
  }

  ResultStore merged{temp_dir()};
  EXPECT_EQ(merged.merge_from(shard0), 2u);
  EXPECT_EQ(merged.merge_from(shard1), 2u);

  BatchOptions warm_opts;
  warm_opts.store = &merged;
  const auto warm = BatchRunner{warm_opts}.run(spec);
  EXPECT_EQ(warm.executed(), 0u);
  EXPECT_EQ(warm.cached(), 4u);
  ASSERT_EQ(warm.runs().size(), unsharded.runs().size());
  for (std::size_t i = 0; i < warm.runs().size(); ++i) {
    expect_bit_identical(unsharded.runs()[i], warm.runs()[i]);
  }
}

// --- store gc ----------------------------------------------------------------

/// Writes one good record plus one schema-v1 line and one corrupt line.
void seed_mixed_store(const fs::path& dir, const ExperimentConfig& cfg) {
  {
    ResultStore store{dir};
    store.put(config_key(cfg), canonical_config_json(cfg), awkward_result());
  }
  std::ofstream out{dir / "results.jsonl", std::ios::app};
  std::string foreign = make_record_line(config_key(cfg), canonical_config_json(cfg),
                                         result_to_json(awkward_result()));
  const std::string current = "\"schema\":" + std::to_string(kSchemaVersion);
  foreign.replace(foreign.find(current), current.size(), "\"schema\":1");
  out << foreign << "\n";
  out << "corrupt, not json\n";
}

TEST_F(StoreTest, GcEvictsForeignSchemaAndCorruptLines) {
  const auto dir = temp_dir();
  ExperimentConfig cfg;
  seed_mixed_store(dir, cfg);

  ResultStore store{dir};
  const auto report = store.gc({});
  EXPECT_FALSE(report.dry_run);
  EXPECT_EQ(report.kept, 1u);
  EXPECT_EQ(report.evicted_schema, 1u);
  EXPECT_EQ(report.evicted_age, 0u);
  EXPECT_EQ(report.dropped_corrupt, 1u);

  // Only the clean record survives, and a reload sees nothing corrupt.
  ResultStore reloaded{dir};
  reloaded.load();
  EXPECT_EQ(reloaded.size(), 1u);
  EXPECT_EQ(reloaded.corrupt_lines(), 0u);
  expect_bit_identical(awkward_result(),
                       *reloaded.find(config_key(cfg), canonical_config_json(cfg)));
  EXPECT_EQ(reloaded.inventory().schema_lines.count(1), 0u);
}

TEST_F(StoreTest, GcDryRunReportsButTouchesNothing) {
  const auto dir = temp_dir();
  ExperimentConfig cfg;
  seed_mixed_store(dir, cfg);

  GcOptions options;
  options.dry_run = true;
  ResultStore store{dir};
  const auto report = store.gc(options);
  EXPECT_TRUE(report.dry_run);
  EXPECT_EQ(report.kept, 1u);
  EXPECT_EQ(report.evicted_schema, 1u);
  EXPECT_EQ(report.dropped_corrupt, 1u);

  // The stale lines are still on disk: a fresh inventory sees the v1 record
  // and the corrupt line exactly as before.
  const auto inv = ResultStore{dir}.inventory();
  EXPECT_EQ(inv.schema_lines.at(1), 1u);
  EXPECT_EQ(inv.corrupt_lines, 1u);
}

TEST_F(StoreTest, GcAgeEvictionDropsOldFilesRecords) {
  const auto dir = temp_dir();
  ExperimentConfig old_cfg;
  ExperimentConfig new_cfg;
  new_cfg.seed = 77;
  {
    // Old records live in their own shard file whose mtime we age by hand.
    ResultStore store{dir};
    store.put(config_key(old_cfg), canonical_config_json(old_cfg), awkward_result());
  }
  fs::rename(dir / "results.jsonl", dir / "aged.jsonl");
  fs::last_write_time(dir / "aged.jsonl",
                      fs::file_time_type::clock::now() - std::chrono::hours{10 * 24});
  {
    ResultStore store{dir};
    store.put(config_key(new_cfg), canonical_config_json(new_cfg), awkward_result());
  }

  GcOptions options;
  options.max_age_days = 7.0;
  ResultStore store{dir};
  const auto report = store.gc(options);
  EXPECT_EQ(report.evicted_age, 1u);
  EXPECT_EQ(report.kept, 1u);

  ResultStore reloaded{dir};
  reloaded.load();
  EXPECT_EQ(reloaded.size(), 1u);
  EXPECT_FALSE(reloaded.find(config_key(old_cfg), canonical_config_json(old_cfg)).has_value());
  EXPECT_TRUE(reloaded.find(config_key(new_cfg), canonical_config_json(new_cfg)).has_value());
}

TEST(ShardTest, ShardedBatchCarriesOnlyTouchedPoints) {
  SweepSpec spec = small_spec();
  spec.seeds = {1};  // 2 points x 1 seed: shard 0/2 sees exactly one point
  BatchOptions opts;
  opts.shard_count = 2;
  const auto batch = BatchRunner{opts}.run(spec);
  ASSERT_EQ(batch.runs().size(), 1u);
  ASSERT_EQ(batch.points().size(), 1u);
  EXPECT_EQ(batch.points()[0].protocol, ProtocolKind::kSpms);
  EXPECT_THROW((void)batch.point(ProtocolKind::kSpin, 16, 12.0), std::out_of_range);
}

}  // namespace
}  // namespace spms::exp::store
