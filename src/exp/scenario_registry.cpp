#include "exp/scenario_registry.hpp"

#include <algorithm>

namespace spms::exp {

namespace {

constexpr std::size_t kNodesAxis[] = {25, 49, 100, 169, 225};
constexpr double kRadiiAxis[] = {5.0, 10.0, 15.0, 20.0, 25.0, 30.0};

/// Battery budget of the scaled faults-* regime: near the 90th percentile
/// of per-node spend on the reference 169-node / 2-packet deployment, so
/// roughly a tenth of the fleet (the busy relays) dies of depletion.
constexpr double kScaledBatteryCapacityUj = 900.0;

// The other fault models' scaled regimes for the faults-* campaign
// (EXPERIMENTS.md documents each): region blackouts every ~1.5 s over a
// 12 m disk, energy-driven battery deaths on a finite budget sized so
// roughly a tenth of the reference fleet runs dry, link drops ramping
// 0 → 25%, and crash churn confined to the sink's 2-hop neighborhood.
// Each also stretches the activity horizon to the 6 s failure timescale.

void scaled_region_outages(ExperimentConfig& cfg) {
  cfg.faults.region.enabled = true;
  cfg.faults.region.mean_time_between_outages = sim::Duration::ms(1500.0);
  cfg.faults.region.radius_m = 12.0;
  cfg.faults.region.repair_min = sim::Duration::ms(300.0);
  cfg.faults.region.repair_max = sim::Duration::ms(700.0);
  cfg.activity_horizon = sim::Duration::ms(6000.0);
}

void scaled_battery_depletion(ExperimentConfig& cfg) {
  // Energy-driven counterpart of the old 10%-die regime: the budget sits
  // near the 90th percentile of per-node spend on the reference 169-node
  // deployment (EXPERIMENTS.md), so the busiest ~tenth of the fleet — the
  // relays — actually runs dry.
  energy_budget(cfg, kScaledBatteryCapacityUj);
  cfg.activity_horizon = sim::Duration::ms(6000.0);
}

void scaled_link_degradation(ExperimentConfig& cfg) {
  cfg.faults.link.enabled = true;
  cfg.faults.link.drop_start = 0.0;
  cfg.faults.link.drop_end = 0.25;
  cfg.activity_horizon = sim::Duration::ms(6000.0);
}

void scaled_sink_churn(ExperimentConfig& cfg) {
  cfg.faults.sink_churn.enabled = true;
  cfg.faults.sink_churn.hops = 2;
  cfg.faults.sink_churn.mean_time_between_failures = sim::Duration::ms(1000.0);
  cfg.faults.sink_churn.repair_min = sim::Duration::ms(150.0);
  cfg.faults.sink_churn.repair_max = sim::Duration::ms(450.0);
  cfg.activity_horizon = sim::Duration::ms(6000.0);
}

/// Round-dominated regime (paper-style MAC): no queueing, backoff + airtime
/// only.  Isolates the paper's falling-delay-with-radius mechanism (Fig. 9).
void round_dominated_mac(ExperimentConfig& cfg) {
  cfg.mac.infinite_parallelism = true;
  cfg.proto.tout_adv = sim::Duration::ms(10.0);
  cfg.proto.tout_dat = sim::Duration::ms(20.0);
}

std::vector<std::size_t> nodes_axis(std::size_t upto = 225) {
  std::vector<std::size_t> out;
  for (const auto n : kNodesAxis) {
    if (n <= upto) out.push_back(n);
  }
  return out;
}

std::vector<double> radii_axis(double from = 5.0, double upto = 30.0) {
  std::vector<double> out;
  for (const auto r : kRadiiAxis) {
    if (r >= from && r <= upto) out.push_back(r);
  }
  return out;
}

std::vector<ProtocolKind> pair_axis() {
  return {ProtocolKind::kSpms, ProtocolKind::kSpin};
}

ConfigVariant clean() { return {"clean", nullptr}; }
ConfigVariant failures() { return {"failures", scaled_failures}; }

SweepSpec fig06() {
  SweepSpec spec;
  spec.name = "fig06";
  spec.base = reference_config();
  spec.protocols = pair_axis();
  spec.node_counts = nodes_axis();
  return spec;
}

SweepSpec fig07() {
  SweepSpec spec;
  spec.name = "fig07";
  spec.base = reference_config();
  spec.protocols = pair_axis();
  spec.zone_radii = radii_axis();
  return spec;
}

SweepSpec fig08() {
  auto spec = fig06();
  spec.name = "fig08";
  return spec;
}

SweepSpec fig09() {
  SweepSpec spec;
  spec.name = "fig09";
  spec.base = reference_config();
  spec.protocols = pair_axis();
  spec.zone_radii = radii_axis();
  spec.variants = {{"shared", nullptr}, {"round-mac", round_dominated_mac}};
  return spec;
}

SweepSpec fig10() {
  SweepSpec spec;
  spec.name = "fig10";
  spec.base = reference_config();
  spec.protocols = pair_axis();
  spec.node_counts = nodes_axis(/*upto=*/169);
  spec.variants = {clean(), failures()};
  return spec;
}

SweepSpec fig11() {
  SweepSpec spec;
  spec.name = "fig11";
  spec.base = reference_config();
  spec.protocols = pair_axis();
  spec.zone_radii = radii_axis();
  spec.variants = {clean(), failures()};
  return spec;
}

SweepSpec fig12() {
  SweepSpec spec;
  spec.name = "fig12";
  spec.base = reference_config();
  // The paper's full traffic load: the break-even analysis (Section 5.1.3)
  // shows one full-zone DBF rebuild costs several hundred packets' worth of
  // savings, so the figure only lands in the paper's 5-21% winning band when
  // enough packets flow between reconvergences.
  spec.base.traffic.packets_per_node = 10;
  spec.base.mobility = true;
  spec.base.mobility_params.epoch_interval = sim::Duration::ms(400);
  spec.base.mobility_params.move_fraction = 0.05;
  spec.base.activity_horizon = sim::Duration::ms(700);
  spec.protocols = pair_axis();
  spec.zone_radii = radii_axis(10.0, 25.0);
  return spec;
}

SweepSpec fig13() {
  SweepSpec spec;
  spec.name = "fig13";
  spec.base = reference_config();
  spec.base.pattern = TrafficPattern::kCluster;
  // The paper's stated reception assumption Er = Em: with so few deliveries
  // per item a realistic receive draw would be dominated by zone-wide ADV
  // reception that both protocols pay identically, flattening the figure;
  // the 35-59% band is only consistent with Er = Em here (EXPERIMENTS.md).
  spec.base.energy.rx_power_mw = 0.0125;
  spec.base.traffic.packets_per_node = 5;
  spec.protocols = pair_axis();
  spec.zone_radii = radii_axis(10.0);
  spec.variants = {clean(), failures()};
  return spec;
}

SweepSpec ablation_mac() {
  SweepSpec spec;
  spec.name = "ablation_mac";
  spec.base = reference_config();
  spec.base.node_count = 49;
  spec.protocols = pair_axis();
  spec.variants = {
      {"base", nullptr},
      {"no-carrier-sense", [](ExperimentConfig& c) { c.mac.carrier_sense = false; }},
      {"overhearing-charged", [](ExperimentConfig& c) { c.energy.charge_overhearing = true; }},
      {"rx-0.0125", [](ExperimentConfig& c) { c.energy.rx_power_mw = 0.0125; }},
      {"rx-0.05", [](ExperimentConfig& c) { c.energy.rx_power_mw = 0.05; }},
      {"rx-0.2", [](ExperimentConfig& c) { c.energy.rx_power_mw = 0.2; }},
      {"rx-0.8", [](ExperimentConfig& c) { c.energy.rx_power_mw = 0.8; }},
  };
  return spec;
}

SweepSpec flooding_baseline() {
  SweepSpec spec;
  spec.name = "flooding_baseline";
  spec.base = reference_config();
  spec.base.node_count = 49;
  spec.base.protocol = ProtocolKind::kFlooding;
  return spec;
}

SweepSpec mobility_breakeven() {
  SweepSpec spec;
  spec.name = "mobility_breakeven";
  spec.base = reference_config();
  spec.protocols = pair_axis();
  spec.zone_radii = radii_axis(15.0, 25.0);
  return spec;
}

SweepSpec extensions() {
  SweepSpec spec;
  spec.name = "extensions";
  spec.base = reference_config();
  spec.base.node_count = 100;
  spec.base.protocol = ProtocolKind::kSpms;
  spec.base.faults.crash.enabled = true;
  spec.base.activity_horizon = sim::Duration::ms(2000);
  const auto caching = [](ExperimentConfig& c) { c.spms_ext.relay_caching = true; };
  const auto scones = [](ExperimentConfig& c) { c.spms_ext.num_scones = 2; };
  const auto both = [=](ExperimentConfig& c) { caching(c); scones(c); };
  const auto no_fail = [](ExperimentConfig& c) { c.faults.crash.enabled = false; };
  spec.variants = {
      {"published", nullptr},
      {"relay-caching", caching},
      {"scones-2", scones},
      {"caching+scones-2", both},
      {"published-clean", no_fail},
      {"relay-caching-clean", [=](ExperimentConfig& c) { caching(c); no_fail(c); }},
      {"scones-2-clean", [=](ExperimentConfig& c) { scones(c); no_fail(c); }},
      {"caching+scones-2-clean", [=](ExperimentConfig& c) { both(c); no_fail(c); }},
  };
  return spec;
}

SweepSpec smoke() {
  SweepSpec spec;
  spec.name = "smoke";
  spec.base = reference_config();
  spec.base.node_count = 16;
  spec.base.zone_radius_m = 12.0;
  spec.base.traffic.packets_per_node = 1;
  spec.protocols = pair_axis();
  return spec;
}

// --- faults-* campaign family ------------------------------------------------

/// One variant per fault model plus the stacked worst case; the shared axis
/// of the whole family.
std::vector<ConfigVariant> fault_model_axis(bool with_clean) {
  std::vector<ConfigVariant> v;
  if (with_clean) v.push_back({"clean", nullptr});
  v.push_back({"crash", scaled_failures});
  v.push_back({"region", scaled_region_outages});
  v.push_back({"battery", scaled_battery_depletion});
  v.push_back({"link", scaled_link_degradation});
  v.push_back({"sink-churn", scaled_sink_churn});
  v.push_back({"stacked", scaled_stacked_faults});
  return v;
}

SweepSpec faults_smoke() {
  SweepSpec spec;
  spec.name = "faults-smoke";
  spec.base = reference_config();
  spec.base.node_count = 16;
  spec.base.zone_radius_m = 12.0;
  spec.base.traffic.packets_per_node = 1;
  // CI-sized regimes: the scaled 6 s campaign compressed onto a 1 s horizon
  // so every model still fires a handful of events while the whole sweep
  // stays seconds-cheap.
  spec.base.activity_horizon = sim::Duration::ms(1000.0);
  const auto mini_crash = [](ExperimentConfig& c) {
    c.faults.crash.enabled = true;
    c.faults.crash.mean_time_between_failures = sim::Duration::ms(300.0);
    c.faults.crash.repair_min = sim::Duration::ms(40.0);
    c.faults.crash.repair_max = sim::Duration::ms(80.0);
  };
  const auto mini_region = [](ExperimentConfig& c) {
    c.faults.region.enabled = true;
    c.faults.region.mean_time_between_outages = sim::Duration::ms(250.0);
    c.faults.region.radius_m = 8.0;
    c.faults.region.repair_min = sim::Duration::ms(50.0);
    c.faults.region.repair_max = sim::Duration::ms(100.0);
  };
  const auto mini_battery = [](ExperimentConfig& c) {
    // CI-sized energy budget: tight enough that the busiest couple of the
    // 16 nodes drain within the 1 s horizon.
    energy_budget(c, 30.0);
  };
  const auto mini_link = [](ExperimentConfig& c) {
    c.faults.link.enabled = true;
    c.faults.link.drop_start = 0.0;
    c.faults.link.drop_end = 0.3;
  };
  const auto mini_sink = [](ExperimentConfig& c) {
    c.faults.sink_churn.enabled = true;
    c.faults.sink_churn.hops = 2;
    c.faults.sink_churn.mean_time_between_failures = sim::Duration::ms(150.0);
    c.faults.sink_churn.repair_min = sim::Duration::ms(30.0);
    c.faults.sink_churn.repair_max = sim::Duration::ms(60.0);
  };
  spec.variants = {
      {"crash", mini_crash},
      {"region", mini_region},
      {"battery", mini_battery},
      {"link", mini_link},
      {"sink-churn", mini_sink},
      {"stacked",
       [=](ExperimentConfig& c) {
         mini_crash(c);
         mini_region(c);
         mini_battery(c);
         mini_link(c);
         mini_sink(c);
       }},
  };
  return spec;
}

SweepSpec faults_models() {
  SweepSpec spec;
  spec.name = "faults-models";
  spec.base = reference_config();
  spec.protocols = pair_axis();
  spec.node_counts = {49, 100, 169};
  spec.variants = fault_model_axis(/*with_clean=*/true);
  return spec;
}

SweepSpec faults_intensity() {
  SweepSpec spec;
  spec.name = "faults-intensity";
  spec.base = reference_config();
  spec.base.node_count = 100;
  spec.protocols = pair_axis();
  // One knob, the whole stacked plan: event rates scale with k, battery
  // budgets shrink with k (more pressure, more depletion deaths), peak link
  // loss scales (clamped) with k.
  const auto intensity = [](double k) {
    return [k](ExperimentConfig& c) {
      scaled_stacked_faults(c);
      auto& f = c.faults;
      f.crash.mean_time_between_failures = f.crash.mean_time_between_failures * (1.0 / k);
      f.region.mean_time_between_outages = f.region.mean_time_between_outages * (1.0 / k);
      c.battery.capacity_uj = c.battery.capacity_uj / k;
      f.link.drop_end = std::min(0.9, f.link.drop_end * k);
      f.sink_churn.mean_time_between_failures =
          f.sink_churn.mean_time_between_failures * (1.0 / k);
    };
  };
  spec.variants = {
      {"x0.5", intensity(0.5)},
      {"x1", intensity(1.0)},
      {"x2", intensity(2.0)},
      {"x4", intensity(4.0)},
  };
  return spec;
}

// --- lifetime-* family -------------------------------------------------------
//
// Network lifetime under a finite energy budget: the evaluation axis the
// energy-aware literature ranks protocols by (time-to-first-death, half-life,
// residual-energy variance/Gini) and the paper's premise made measurable.
// All lifetime scenarios run the 49-node reference field with a heavier
// 4-packet load so consumption differences between protocols accumulate
// into visibly different death schedules.

/// Shared base of the lifetime scenarios (before the battery budget).
ExperimentConfig lifetime_base() {
  auto cfg = reference_config();
  cfg.node_count = 49;
  cfg.traffic.packets_per_node = 4;
  cfg.activity_horizon = sim::Duration::ms(4000.0);
  return cfg;
}

/// Budget that lands in the interesting regime on the 49-node base: a
/// minority of nodes dies mid-run, the network stays partly functional.
constexpr double kLifetimeReferenceCapacityUj = 320.0;

SweepSpec lifetime_capacity() {
  SweepSpec spec;
  spec.name = "lifetime-capacity";
  spec.base = lifetime_base();
  spec.protocols = pair_axis();
  const auto cap = [](double uj) {
    return [uj](ExperimentConfig& c) { energy_budget(c, uj); };
  };
  spec.variants = {
      {"starved", cap(kLifetimeReferenceCapacityUj * 0.5)},
      {"tight", cap(kLifetimeReferenceCapacityUj)},
      {"ample", cap(kLifetimeReferenceCapacityUj * 2.0)},
      {"infinite", nullptr},  // the historical no-budget baseline
  };
  return spec;
}

SweepSpec lifetime_hetero() {
  SweepSpec spec;
  spec.name = "lifetime-hetero";
  spec.base = lifetime_base();
  spec.protocols = pair_axis();
  const auto hetero = [](double h) {
    return [h](ExperimentConfig& c) { energy_budget(c, kLifetimeReferenceCapacityUj, h); };
  };
  spec.variants = {
      {"h0", hetero(0.0)},
      {"h0.2", hetero(0.2)},
      {"h0.4", hetero(0.4)},
      {"h0.6", hetero(0.6)},
  };
  return spec;
}

SweepSpec lifetime_race() {
  SweepSpec spec;
  spec.name = "lifetime-race";
  spec.base = lifetime_base();
  energy_budget(spec.base, kLifetimeReferenceCapacityUj);
  // All three protocols on the same budget: the race the paper's
  // energy-aware claim implies but never runs.
  spec.protocols = {ProtocolKind::kSpms, ProtocolKind::kSpin, ProtocolKind::kFlooding};
  return spec;
}

SweepSpec lifetime_smoke() {
  SweepSpec spec;
  spec.name = "lifetime-smoke";
  spec.base = reference_config();
  spec.base.node_count = 16;
  spec.base.zone_radius_m = 12.0;
  spec.base.traffic.packets_per_node = 2;
  spec.base.activity_horizon = sim::Duration::ms(800.0);
  spec.protocols = pair_axis();
  // Tight enough that several of the 16 nodes deplete mid-run: the CI
  // acceptance pin for energy-driven deaths.
  energy_budget(spec.base, 38.0);
  return spec;
}

// --- scale-* family ----------------------------------------------------------
//
// Throughput/memory scaling harness, not a paper figure.  The §5.2 cluster
// traffic (fig13's pattern) with one reading per node on the reference
// grid, zone radius 10 m (~12 neighbours): each reading goes to its
// cluster head and a few zone bystanders, so protocol traffic stays
// zone-local, every size delivers its items, and the event count grows
// linearly with node count — the regime where events/sec and
// bytes-per-node are meaningful (EXPERIMENTS.md "Scaling").

SweepSpec scale_spec(const char* name, std::size_t nodes) {
  SweepSpec spec;
  spec.name = name;
  spec.base = reference_config();
  spec.base.node_count = nodes;
  spec.base.zone_radius_m = 10.0;
  spec.base.pattern = TrafficPattern::kCluster;
  spec.base.traffic.packets_per_node = 1;
  return spec;
}

SweepSpec scale_1k() { return scale_spec("scale-1k", 1'000); }
SweepSpec scale_10k() { return scale_spec("scale-10k", 10'000); }
SweepSpec scale_100k() { return scale_spec("scale-100k", 100'000); }
SweepSpec scale_1m() { return scale_spec("scale-1m", 1'000'000); }

}  // namespace

ExperimentConfig reference_config() {
  ExperimentConfig cfg;
  cfg.node_count = 169;
  cfg.grid_pitch_m = 5.0;
  cfg.zone_radius_m = 20.0;
  cfg.traffic.packets_per_node = 2;
  cfg.seed = 2004;  // DSN 2004
  return cfg;
}

void scaled_failures(ExperimentConfig& cfg) {
  cfg.faults.crash.enabled = true;
  cfg.faults.crash.mean_time_between_failures = sim::Duration::ms(2500.0);
  cfg.faults.crash.repair_min = sim::Duration::ms(250.0);
  cfg.faults.crash.repair_max = sim::Duration::ms(750.0);
  cfg.activity_horizon = sim::Duration::ms(6000.0);
}

void energy_budget(ExperimentConfig& cfg, double capacity_uj, double heterogeneity) {
  cfg.battery.finite = true;
  cfg.battery.capacity_uj = capacity_uj;
  cfg.battery.heterogeneity = heterogeneity;
  // A whisper of sleep drain: enough that lightly-loaded nodes are on the
  // clock too, small enough that traffic stays the dominant consumer.
  cfg.battery.idle_drain_mw = 0.01;
  cfg.battery.idle_tick = sim::Duration::ms(50.0);
}

void scaled_stacked_faults(ExperimentConfig& cfg) {
  scaled_failures(cfg);
  scaled_region_outages(cfg);
  scaled_battery_depletion(cfg);
  scaled_link_degradation(cfg);
  scaled_sink_churn(cfg);
}

const std::vector<ScenarioInfo>& scenario_registry() {
  static const std::vector<ScenarioInfo> registry = {
      {"fig06", "energy per packet vs number of nodes (all-to-all, static)",
       "SPMS saves 26-43%; gap widens with the field", fig06},
      {"fig07", "energy per packet vs transmission radius (169 nodes)",
       "gap grows with radius; small at r<=10 m", fig07},
      {"fig08", "mean delay vs number of nodes (all-to-all, static)",
       "SPMS ~10x faster; gap widens with node count", fig08},
      {"fig09", "mean delay vs transmission radius (169 nodes), two MAC regimes",
       "delay falls with radius for both; SPMS below SPIN", fig09},
      {"fig10", "mean delay vs number of nodes, with transient failures",
       "failures raise delay; effect grows with node count", fig10},
      {"fig11", "mean delay vs transmission radius, with transient failures",
       "failure penalty grows with radius (more relays to lose)", fig11},
      {"fig12", "energy per packet vs radius, mobile nodes (all-to-all)",
       "SPMS wins by only 5-21% once DBF reconvergence is paid", fig12},
      {"fig13", "energy per packet vs radius, cluster-based traffic",
       "SPMS saves 35-59% failure-free; failures cost both more energy", fig13},
      {"ablation_mac", "MAC / energy-model choices on the 49-node reference",
       "not a paper figure; quantifies calibration-note decisions", ablation_mac},
      {"flooding_baseline", "classic flooding on the 49-node reference",
       "Section 1's baseline: full DATA frames from every node", flooding_baseline},
      {"mobility_breakeven", "packets needed between mobility events (Section 5.1.3)",
       "paper's calibration: 239.18 packets", mobility_breakeven},
      {"extensions", "SPMS future-work features under failure churn",
       "paper Section 6: relay caching should improve fault tolerance", extensions},
      {"smoke", "16-node quick check (CI smoke; not a paper figure)",
       "both protocols deliver everything on a small static grid", smoke},
      {"faults-models", "every fault model vs the crash-only baseline, 49-169 nodes",
       "resilience claims must survive regimes beyond independent crashes", faults_models},
      {"faults-intensity", "stacked worst-case faults at 0.5x-4x intensity, 100 nodes",
       "graceful degradation: delivery and recovery latency vs fault pressure",
       faults_intensity},
      {"faults-smoke", "16-node fault-model quick check (CI smoke; not a paper figure)",
       "all five fault models run, cache, and resume deterministically", faults_smoke},
      {"lifetime-capacity", "network lifetime vs battery budget, 49 nodes",
       "finite budgets turn energy savings into longer time-to-first-death",
       lifetime_capacity},
      {"lifetime-hetero", "network lifetime vs battery heterogeneity, 49 nodes",
       "uneven initial charge advances first death; half-life degrades gracefully",
       lifetime_hetero},
      {"lifetime-race", "SPMS vs SPIN vs flooding on one finite budget, 49 nodes",
       "the energy-aware protocol outlives its rivals on the same batteries",
       lifetime_race},
      {"lifetime-smoke", "16-node energy-death quick check (CI smoke; not a paper figure)",
       "energy-driven deaths fire, cache, and resume deterministically", lifetime_smoke},
      {"scale-1k", "1k-node cluster-traffic scaling run",
       "throughput harness, not a paper figure; events grow linearly", scale_1k},
      {"scale-10k", "10k-node cluster-traffic scaling run (CI scale-smoke)",
       "throughput harness, not a paper figure; events grow linearly", scale_10k},
      {"scale-100k", "100k-node cluster-traffic scaling run",
       "throughput harness, not a paper figure; events grow linearly", scale_100k},
      {"scale-1m", "10^6-node cluster-traffic scaling run",
       "the million-node pass: SoA + flat hot state at full scale", scale_1m},
  };
  return registry;
}

const ScenarioInfo* find_scenario(std::string_view name) {
  const auto& registry = scenario_registry();
  const auto it = std::find_if(registry.begin(), registry.end(),
                               [&](const ScenarioInfo& s) { return s.name == name; });
  return it == registry.end() ? nullptr : &*it;
}

}  // namespace spms::exp
