#include "exp/config.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "exp/store/canonical.hpp"

/// One config vocabulary: set_field parses exactly the keys and value
/// spellings that the result store writes, so a config survives being
/// rebuilt key by key from its own canonical JSON, and anything the store
/// would never write is refused without touching the config.

namespace spms::exp {
namespace {

using sim::Duration;

/// The (key, value text) members of a canonical config object, string
/// values unquoted.  Enough for configs whose strings need no escaping.
std::vector<std::pair<std::string, std::string>> members(const std::string& json) {
  std::vector<std::pair<std::string, std::string>> out;
  std::size_t i = 1;  // past '{'
  while (i < json.size() && json[i] == '"') {
    const auto key_end = json.find('"', i + 1);
    std::string key = json.substr(i + 1, key_end - i - 1);
    const auto v = key_end + 2;  // past '":'
    const bool quoted = json[v] == '"';
    const auto v_end = quoted ? json.find('"', v + 1) + 1 : json.find_first_of(",}", v);
    std::string value = quoted ? json.substr(v + 1, v_end - v - 2) : json.substr(v, v_end - v);
    out.emplace_back(std::move(key), std::move(value));
    i = v_end + 1;
  }
  return out;
}

/// Every field moved off its default (and a few onto awkward values: a
/// negative int, the largest seed, a double with no short decimal form).
ExperimentConfig all_changed() {
  ExperimentConfig c;
  c.label = "rebuilt";
  c.protocol = ProtocolKind::kFlooding;
  c.pattern = TrafficPattern::kSink;
  c.deployment = Deployment::kUniformRandom;
  c.node_count = 170;
  c.grid_pitch_m = 4.5;
  c.zone_radius_m = 17.25;
  c.mac.carrier_sense = false;
  c.mac.infinite_parallelism = true;
  c.mac.contention_g_ms = 0.01;
  c.mac.slot_time = Duration::nanos(100'001);
  c.mac.num_slots = -20;
  c.mac.t_tx_per_byte = Duration::nanos(50'001);
  c.mac.t_proc = Duration::nanos(20'001);
  c.energy.rx_power_mw = 0.1 + 0.2;
  c.energy.charge_overhearing = true;
  c.battery.finite = true;
  c.battery.capacity_uj = 123.456;
  c.battery.heterogeneity = 0.25;
  c.battery.idle_drain_mw = 0.02;
  c.battery.idle_tick = Duration::nanos(51'000'000);
  c.proto.adv_bytes = 3;
  c.proto.req_bytes = 4;
  c.proto.data_bytes = 41;
  c.proto.tout_adv = Duration::nanos(60'000'000);
  c.proto.tout_dat = Duration::nanos(120'000'000);
  c.proto.max_retries = 17;
  c.proto.service_guard = Duration::nanos(25'000'001);
  c.proto.timer_defer_limit = 4001;
  c.spms_ext.relay_caching = true;
  c.spms_ext.num_scones = 2;
  c.spms_ext.cross_zone_ttl = 3;
  c.traffic.packets_per_node = 11;
  c.traffic.mean_interarrival = Duration::nanos(999'999);
  c.dbf.header_bytes = 3;
  c.dbf.bytes_per_entry = 7;
  c.dbf.charge_energy = false;
  c.dbf.max_rounds = 255;
  auto& f = c.faults;
  f.crash.enabled = true;
  f.crash.mean_time_between_failures = Duration::nanos(2'500'000'000);
  f.crash.repair_min = Duration::nanos(250'000'000);
  f.crash.repair_max = Duration::nanos(750'000'000);
  f.region.enabled = true;
  f.region.mean_time_between_outages = Duration::nanos(1'500'000'000);
  f.region.radius_m = 12.0;
  f.region.repair_min = Duration::nanos(300'000'000);
  f.region.repair_max = Duration::nanos(700'000'000);
  f.link.enabled = true;
  f.link.drop_start = 0.05;
  f.link.drop_end = 0.25;
  f.sink_churn.enabled = true;
  f.sink_churn.hops = 3;
  f.sink_churn.mean_time_between_failures = Duration::nanos(1'000'000'000);
  f.sink_churn.repair_min = Duration::nanos(150'000'000);
  f.sink_churn.repair_max = Duration::nanos(450'000'000);
  c.mobility = true;
  c.mobility_params.epoch_interval = Duration::nanos(400'000'000);
  c.mobility_params.move_fraction = 0.05;
  c.cluster_p_other = 0.06;
  c.seed = 18'446'744'073'709'551'615ULL;
  c.activity_horizon = Duration::nanos(2'000'000'000);
  c.max_events = 150'000;
  return c;
}

TEST(ConfigFieldsTest, SetFieldRebuildsEveryCanonicalKeyFromTheStoresSpelling) {
  const auto target = all_changed();
  const auto json = store::canonical_config_json(target);
  const auto written = members(json);
  const auto defaults = members(store::canonical_config_json(ExperimentConfig{}));
  ASSERT_EQ(written.size(), 62u);
  ASSERT_EQ(defaults.size(), written.size());

  ExperimentConfig rebuilt;
  for (std::size_t i = 0; i < written.size(); ++i) {
    const auto& [key, value] = written[i];
    EXPECT_EQ(defaults[i].first, key);
    EXPECT_NE(defaults[i].second, value) << key << " still has its default value";
    set_field(rebuilt, key, value);
  }
  EXPECT_EQ(store::canonical_config_json(rebuilt), json);
}

TEST(ConfigFieldsTest, SetFieldRejectsWhatTheStoreNeverWritesAndChangesNothing) {
  ExperimentConfig cfg;
  const auto before = store::canonical_config_json(cfg);
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"nodes", "49"},                                // unknown key
      {"mobility.field_side_m", "50"},                // the deployment sets the field
      {"percentiles.sketch", "true"},                 // quantiles are always exact
      {"percentiles.compression", "100"},
      {"node_count", "-1"},                           // sign on an unsigned field
      {"node_count", "+49"},
      {"node_count", "18446744073709551616"},         // 2^64 overflows
      {"faults.sink_churn.hops", "4294967296"},       // 2^32 overflows a uint32
      {"node_count", "49 "},
      {"mac.num_slots", "2147483648"},                // overflows an int
      {"mobility", "yes"},                            // bools are true/false
      {"mobility", "1"},
      {"protocol", "spms"},                           // enum names as written
      {"pattern", "Cluster"},
      {"deployment", "random"},
      {"zone_radius_m", "nan"},                       // non-finite doubles
      {"zone_radius_m", "inf"},
      {"zone_radius_m", "-inf"},
      {"zone_radius_m", "1e999"},
      {"zone_radius_m", ""},
      {"proto.tout_adv_ns", "1.5"},                   // durations in whole ns
      {"activity_horizon_ns", "2s"},
  };
  for (const auto& [key, value] : bad) {
    EXPECT_THROW(set_field(cfg, key, value), std::invalid_argument) << key << '=' << value;
  }
  EXPECT_EQ(store::canonical_config_json(cfg), before);
}

TEST(ConfigFieldsTest, EnumNamesMatchTheStoreAndParseBack) {
  ExperimentConfig cfg;
  set_field(cfg, "protocol", "SPIN");
  set_field(cfg, "pattern", "cluster");
  set_field(cfg, "deployment", "uniform-random");
  EXPECT_EQ(cfg.protocol, ProtocolKind::kSpin);
  EXPECT_EQ(cfg.pattern, TrafficPattern::kCluster);
  EXPECT_EQ(cfg.deployment, Deployment::kUniformRandom);
  EXPECT_STREQ(to_string(TrafficPattern::kAllToAll), "all-to-all");
  EXPECT_STREQ(to_string(Deployment::kGrid), "grid");
}

}  // namespace
}  // namespace spms::exp
