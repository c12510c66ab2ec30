#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "core/protocol.hpp"
#include "core/spms.hpp"
#include "core/traffic.hpp"
#include "faults/plan.hpp"
#include "net/mobility.hpp"
#include "net/params.hpp"
#include "routing/bellman_ford.hpp"
#include "sim/time.hpp"

/// \file config.hpp
/// One struct describes a complete experiment run (Table 1 of the paper
/// plus deployment / protocol / fault-model switches).  A run is a pure
/// function of this struct — same config, same seed, same result.

namespace spms::exp {

/// Which dissemination protocol the run exercises.
enum class ProtocolKind { kSpms, kSpin, kFlooding };

[[nodiscard]] constexpr const char* to_string(ProtocolKind k) {
  switch (k) {
    case ProtocolKind::kSpms: return "SPMS";
    case ProtocolKind::kSpin: return "SPIN";
    case ProtocolKind::kFlooding: return "FLOOD";
  }
  return "?";
}

/// Which communication pattern (paper Sections 5.1 / 5.2; kSink is the
/// §5.1 "source to sink" special case — every node reports to one sink).
enum class TrafficPattern { kAllToAll, kCluster, kSink };

[[nodiscard]] constexpr const char* to_string(TrafficPattern p) {
  switch (p) {
    case TrafficPattern::kAllToAll: return "all-to-all";
    case TrafficPattern::kCluster: return "cluster";
    case TrafficPattern::kSink: return "sink";
  }
  return "?";
}

/// Node placement (the paper deploys a uniform-density grid; the random
/// variant exercises the protocols off the lattice).
enum class Deployment { kGrid, kUniformRandom };

[[nodiscard]] constexpr const char* to_string(Deployment d) {
  switch (d) {
    case Deployment::kGrid: return "grid";
    case Deployment::kUniformRandom: return "uniform-random";
  }
  return "?";
}

/// Full experiment description.  Defaults reproduce the paper's Table 1 on
/// the reference deployment (5 m grid pitch; see EXPERIMENTS.md,
/// "Calibration notes").
struct ExperimentConfig {
  std::string label;  ///< free-form tag echoed in reports

  ProtocolKind protocol = ProtocolKind::kSpms;
  TrafficPattern pattern = TrafficPattern::kAllToAll;

  // --- deployment -----------------------------------------------------------
  Deployment deployment = Deployment::kGrid;
  std::size_t node_count = 169;
  double grid_pitch_m = 5.0;  ///< grid pitch; also sets the random field's density
  double zone_radius_m = 20.0;

  // --- substrate models (Table 1) --------------------------------------------
  net::MacParams mac;
  net::EnergyModelParams energy;
  /// Finite-budget battery model (net/energy.hpp).  Default: the historical
  /// infinite battery.  With `battery.finite` and `faults.battery.enabled`,
  /// nodes that spend their charge die permanently through the fault layer —
  /// the lifetime-* scenario family's regime.
  net::BatteryParams battery;
  core::ProtocolParams proto;
  core::SpmsExtensions spms_ext;  ///< future-work extensions (off by default)
  core::TrafficParams traffic;
  routing::DbfParams dbf;

  // --- faults -----------------------------------------------------------------
  /// Stacked fault processes (crash/repair renewal, region blackouts,
  /// battery deaths, link degradation, sink churn); see faults/plan.hpp.
  /// Every parameter feeds the store's config key.
  faults::FaultPlan faults;

  // --- mobility ---------------------------------------------------------------
  bool mobility = false;
  net::MobilityParams mobility_params;  ///< moved nodes land in the deployment's field

  // --- cluster pattern ---------------------------------------------------------
  double cluster_p_other = 0.05;  ///< interest probability for zone bystanders

  // --- run control ---------------------------------------------------------------
  std::uint64_t seed = 1;
  /// Failure/mobility processes stop initiating events at this horizon;
  /// protocol traffic then drains to quiescence.
  sim::Duration activity_horizon = sim::Duration::ms(100.0);
  /// Hard event budget (runaway guard).
  std::size_t max_events = 200'000'000;
};

/// The one list of config fields: calls `f(key, field)` for every field of
/// `c` (const or not) under its canonical key, in canonical order.  The
/// result store writes configs by walking it (store::canonical_config_json)
/// and set_field parses one field by walking it, so a key the CLI's --set
/// accepts is exactly a key a stored config carries.  Durations appear
/// under `*_ns` keys as integer nanoseconds.
template <class Config, class Fn>
void visit_fields(Config& c, Fn&& f) {
  f("label", c.label);
  f("protocol", c.protocol);
  f("pattern", c.pattern);
  f("deployment", c.deployment);
  f("node_count", c.node_count);
  f("grid_pitch_m", c.grid_pitch_m);
  f("zone_radius_m", c.zone_radius_m);
  f("mac.carrier_sense", c.mac.carrier_sense);
  f("mac.infinite_parallelism", c.mac.infinite_parallelism);
  f("mac.contention_g_ms", c.mac.contention_g_ms);
  f("mac.slot_time_ns", c.mac.slot_time);
  f("mac.num_slots", c.mac.num_slots);
  f("mac.t_tx_per_byte_ns", c.mac.t_tx_per_byte);
  f("mac.t_proc_ns", c.mac.t_proc);
  f("energy.rx_power_mw", c.energy.rx_power_mw);
  f("energy.charge_overhearing", c.energy.charge_overhearing);
  f("battery.finite", c.battery.finite);
  f("battery.capacity_uj", c.battery.capacity_uj);
  f("battery.heterogeneity", c.battery.heterogeneity);
  f("battery.idle_drain_mw", c.battery.idle_drain_mw);
  f("battery.idle_tick_ns", c.battery.idle_tick);
  f("proto.adv_bytes", c.proto.adv_bytes);
  f("proto.req_bytes", c.proto.req_bytes);
  f("proto.data_bytes", c.proto.data_bytes);
  f("proto.tout_adv_ns", c.proto.tout_adv);
  f("proto.tout_dat_ns", c.proto.tout_dat);
  f("proto.max_retries", c.proto.max_retries);
  f("proto.retry_backoff", c.proto.retry_backoff);
  f("proto.max_backoff_exp", c.proto.max_backoff_exp);
  f("proto.service_guard_ns", c.proto.service_guard);
  f("proto.timer_defer_limit", c.proto.timer_defer_limit);
  f("spms_ext.relay_caching", c.spms_ext.relay_caching);
  f("spms_ext.num_scones", c.spms_ext.num_scones);
  f("spms_ext.cross_zone_ttl", c.spms_ext.cross_zone_ttl);
  f("traffic.packets_per_node", c.traffic.packets_per_node);
  f("traffic.mean_interarrival_ns", c.traffic.mean_interarrival);
  f("dbf.header_bytes", c.dbf.header_bytes);
  f("dbf.bytes_per_entry", c.dbf.bytes_per_entry);
  f("dbf.charge_energy", c.dbf.charge_energy);
  f("dbf.max_rounds", c.dbf.max_rounds);
  f("faults.crash.enabled", c.faults.crash.enabled);
  f("faults.crash.mtbf_ns", c.faults.crash.mean_time_between_failures);
  f("faults.crash.repair_min_ns", c.faults.crash.repair_min);
  f("faults.crash.repair_max_ns", c.faults.crash.repair_max);
  f("faults.region.enabled", c.faults.region.enabled);
  f("faults.region.mtbo_ns", c.faults.region.mean_time_between_outages);
  f("faults.region.radius_m", c.faults.region.radius_m);
  f("faults.region.repair_min_ns", c.faults.region.repair_min);
  f("faults.region.repair_max_ns", c.faults.region.repair_max);
  f("faults.battery.enabled", c.faults.battery.enabled);
  f("faults.link.enabled", c.faults.link.enabled);
  f("faults.link.drop_start", c.faults.link.drop_start);
  f("faults.link.drop_end", c.faults.link.drop_end);
  f("faults.sink_churn.enabled", c.faults.sink_churn.enabled);
  f("faults.sink_churn.hops", c.faults.sink_churn.hops);
  f("faults.sink_churn.mtbf_ns", c.faults.sink_churn.mean_time_between_failures);
  f("faults.sink_churn.repair_min_ns", c.faults.sink_churn.repair_min);
  f("faults.sink_churn.repair_max_ns", c.faults.sink_churn.repair_max);
  f("mobility", c.mobility);
  f("mobility.epoch_interval_ns", c.mobility_params.epoch_interval);
  f("mobility.move_fraction", c.mobility_params.move_fraction);
  f("cluster_p_other", c.cluster_p_other);
  f("seed", c.seed);
  f("activity_horizon_ns", c.activity_horizon);
  f("max_events", c.max_events);
}

/// Sets the field under `key` (a visit_fields key) from `text`, spelled the
/// way the result store writes it: enum names as written (`SPMS`,
/// `cluster`, `uniform-random`), `true`/`false`, decimal integers (no sign
/// on an unsigned field), finite doubles, and integer nanoseconds under the
/// `*_ns` keys.  Throws std::invalid_argument on an unknown key or a value
/// that does not parse or fit, and leaves `cfg` unchanged then.
void set_field(ExperimentConfig& cfg, std::string_view key, std::string_view text);

}  // namespace spms::exp
