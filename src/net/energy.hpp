#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>

#include "sim/time.hpp"

/// \file energy.hpp
/// Per-node energy accounting and the finite-battery model.
///
/// Energy is tracked in microjoules (mW x ms).  Transmit energy is the
/// level's RF output power times the airtime; receive energy uses a fixed
/// receive power (the paper adopts Er = Em, the weakest level's power,
/// citing [16]; it is configurable here).  Routing-protocol energy (the
/// distributed Bellman-Ford traffic) is attributed separately so the
/// mobility experiment (Fig. 12) can charge and report it.
///
/// A Battery extends the passive meter with a finite charge budget: every
/// spend is clamped against the remaining charge (so spend + residual equals
/// the initial charge, to floating-point rounding), and the first spend that
/// drains the charge
/// marks the battery depleted.  The Network consults that flag — a depleted
/// node can neither transmit nor receive — and pushes a depletion
/// notification up into the fault layer, which turns it into a permanent
/// death (see faults/controller.hpp).  Infinite batteries (the default) behave
/// exactly like the historical write-only meter.

namespace spms::net {

/// What a joule was spent on; used to split dissemination vs routing cost.
enum class EnergyUse {
  kProtocol,  ///< ADV/REQ/DATA traffic
  kRouting,   ///< distance-vector (DBF) table building
};

/// Accumulates one node's energy expenditure in microjoules.
class EnergyMeter {
 public:
  void add_tx(double uj, EnergyUse use) {
    (use == EnergyUse::kProtocol ? protocol_tx_uj_ : routing_tx_uj_) += uj;
  }
  void add_rx(double uj, EnergyUse use) {
    (use == EnergyUse::kProtocol ? protocol_rx_uj_ : routing_rx_uj_) += uj;
  }

  [[nodiscard]] double protocol_tx_uj() const { return protocol_tx_uj_; }
  [[nodiscard]] double protocol_rx_uj() const { return protocol_rx_uj_; }
  [[nodiscard]] double routing_tx_uj() const { return routing_tx_uj_; }
  [[nodiscard]] double routing_rx_uj() const { return routing_rx_uj_; }

  [[nodiscard]] double protocol_uj() const { return protocol_tx_uj_ + protocol_rx_uj_; }
  [[nodiscard]] double routing_uj() const { return routing_tx_uj_ + routing_rx_uj_; }
  [[nodiscard]] double total_uj() const { return protocol_uj() + routing_uj(); }

  void reset() { *this = EnergyMeter{}; }

 private:
  double protocol_tx_uj_ = 0.0;
  double protocol_rx_uj_ = 0.0;
  double routing_tx_uj_ = 0.0;
  double routing_rx_uj_ = 0.0;
};

/// Battery configuration of a deployment (part of ExperimentConfig; every
/// field feeds the store's config key).  The default is the historical
/// infinite battery: nodes spend forever and never die of depletion.
struct BatteryParams {
  /// Finite charge budget.  When false every other field is inert.
  bool finite = false;

  /// Initial charge per node, microjoules (homogeneous deployments).
  double capacity_uj = 0.0;

  /// Per-node heterogeneity: each node's initial charge is drawn uniformly
  /// from [capacity*(1-h), capacity*(1+h)] on a dedicated RNG sub-stream
  /// (ascending node id), so deployments with mixed battery health are one
  /// seeded knob.  0 keeps the fleet homogeneous (and draws nothing).
  double heterogeneity = 0.0;

  /// Idle/sleep drain power in mW, charged on a deterministic tick (below)
  /// to every non-depleted node — radios leak even when silent, which is
  /// what ultimately bounds lifetime for lightly-loaded nodes.  0 disables
  /// the tick entirely.
  double idle_drain_mw = 0.0;

  /// Idle drain tick period.  Coarser ticks mean fewer events; the drain
  /// charged per tick is idle_drain_mw * tick, so the total is
  /// tick-granularity-exact, not approximate.
  sim::Duration idle_tick = sim::Duration::ms(50.0);
};

/// RNG sub-stream id of the heterogeneous initial-charge draws (forked from
/// the run's root seed by Network's constructor; fork() is const, so the
/// battery config can never perturb any other stream in the run).
inline constexpr std::uint64_t kBatteryInitStream = 0xBA77E21;

/// One node's energy state: the spend meter plus an optional finite charge.
/// All spend paths clamp against the remaining charge, so
///   meter totals + idle spend + residual == initial charge
/// holds to floating-point rounding (the conservation invariant
/// tests/net/battery_test and tests/exp/lifetime_test pin).
class Battery {
 public:
  /// Infinite battery: pure meter behaviour, never depletes.
  Battery() = default;

  /// Gives the battery a finite initial charge (microjoules).
  void init_finite(double initial_charge_uj) {
    finite_ = true;
    initial_charge_uj_ = initial_charge_uj;
    remaining_uj_ = initial_charge_uj;
    depleted_ = remaining_uj_ <= 0.0;
  }

  /// Spend paths: each clamps to the remaining charge and flips `depleted`
  /// when the charge hits zero.  Returns the amount actually spent.
  double add_tx(double uj, EnergyUse use) {
    const double spent = drain(uj);
    meter_.add_tx(spent, use);
    return spent;
  }
  double add_rx(double uj, EnergyUse use) {
    const double spent = drain(uj);
    meter_.add_rx(spent, use);
    return spent;
  }
  double add_idle(double uj) {
    const double spent = drain(uj);
    idle_uj_ += spent;
    return spent;
  }

  [[nodiscard]] bool finite() const { return finite_; }
  [[nodiscard]] bool depleted() const { return depleted_; }
  [[nodiscard]] double initial_charge_uj() const {
    return finite_ ? initial_charge_uj_ : std::numeric_limits<double>::infinity();
  }
  [[nodiscard]] double remaining_uj() const {
    return finite_ ? remaining_uj_ : std::numeric_limits<double>::infinity();
  }

  /// Idle/sleep drain spent so far (not part of the meter's use classes).
  [[nodiscard]] double idle_uj() const { return idle_uj_; }
  /// Everything spent: protocol + routing + idle.
  [[nodiscard]] double spent_uj() const { return meter_.total_uj() + idle_uj_; }

  /// The protocol/routing spend meter.
  [[nodiscard]] const EnergyMeter& meter() const { return meter_; }

 private:
  /// Clamps a spend against the remaining charge; marks depletion.
  double drain(double uj) {
    if (!finite_) return uj;
    if (depleted_) return 0.0;
    const double spent = uj < remaining_uj_ ? uj : remaining_uj_;
    remaining_uj_ -= spent;
    if (remaining_uj_ <= 0.0) {
      remaining_uj_ = 0.0;
      depleted_ = true;
    }
    return spent;
  }

  EnergyMeter meter_;
  double idle_uj_ = 0.0;
  bool finite_ = false;
  bool depleted_ = false;
  double initial_charge_uj_ = 0.0;
  double remaining_uj_ = 0.0;
};

/// Network-wide totals (sum of the per-node meters), produced by Network.
struct EnergyBreakdown {
  double protocol_tx_uj = 0.0;
  double protocol_rx_uj = 0.0;
  double routing_tx_uj = 0.0;
  double routing_rx_uj = 0.0;
  double idle_uj = 0.0;  ///< idle/sleep drain (finite-battery deployments)

  [[nodiscard]] double protocol_uj() const { return protocol_tx_uj + protocol_rx_uj; }
  [[nodiscard]] double routing_uj() const { return routing_tx_uj + routing_rx_uj; }
  [[nodiscard]] double total_uj() const { return protocol_uj() + routing_uj() + idle_uj; }
};

/// Residual-charge statistics of a finite-battery deployment at the end of a
/// run (all zeros for infinite batteries) — the lifetime-comparison metrics
/// of the energy-aware evaluations (mean/stddev of what is left, plus the
/// Gini coefficient of the residuals: 0 = perfectly even power distribution,
/// 1 = one node holds everything).
struct BatterySummary {
  std::uint64_t depleted_nodes = 0;
  double initial_total_uj = 0.0;
  double spent_total_uj = 0.0;
  double residual_mean_uj = 0.0;
  double residual_stddev_uj = 0.0;
  double residual_min_uj = 0.0;
  double residual_gini = 0.0;
};

}  // namespace spms::net
