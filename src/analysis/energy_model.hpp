#pragma once

/// \file energy_model.hpp
/// Closed-form energy model of the paper's Section 4.2 and the mobility
/// break-even of Section 5.1.3.
///
/// Setting: source and destination with (k-1) equally spaced relays in
/// between, per-bit transmit energies E1 > E2 > ... > Em for the power
/// levels, receive energy Er (the paper takes Er = Em, citing [16]), and
/// the propagation-law assumption E(d) ∝ d^alpha with alpha = 3.5 (the
/// 2-ray ground model beyond ~7 m).

namespace spms::analysis {

/// Parameters of the Section 4.2 ratio.
struct EnergyRatioParams {
  double alpha = 3.5;        ///< path-loss exponent
  double f = 1.0 / 34.0;     ///< A/(A+D+R); the motes give D ≈ 32A, R = A
};

/// Per-item energy of SPIN for the chain scenario, in units of per-bit
/// energy: E_SPIN = (A+D+R) (E1 + Er).  Relay count is irrelevant — SPIN
/// always transmits at maximum power.
[[nodiscard]] double spin_chain_energy(double adv, double data, double req, double e1, double er);

/// Per-item energy of SPMS over k low-power hops:
/// E_SPMS = k A E1 + k (D+R) Em + k (A+D+R) Er
/// (each hop's holder re-advertises at maximum power; REQ/DATA go at the
/// lowest level; every hop pays reception).
[[nodiscard]] double spms_chain_energy(double k, double adv, double data, double req, double e1,
                                       double em, double er);

/// The paper's closed-form ratio with E1 = k^alpha Em and Er = Em:
/// E_SPIN : E_SPMS = (k^alpha + 1) / (k (f k^alpha + 2 - f)).
/// Fig. 5 plots this against k (grid granularity 1 => k = radius).
[[nodiscard]] double spin_to_spms_energy_ratio(double k, const EnergyRatioParams& p = {});

/// Radius (k) at which the Fig. 5 ratio peaks, found by a 0.01 scan of
/// [1, k_max]: k = 4.28 (ratio 5.656) at the defaults.
[[nodiscard]] double energy_ratio_peak_k(const EnergyRatioParams& p = {}, double k_max = 64.0);

/// Section 5.1.3 break-even: the minimum number of successfully transmitted
/// packets between two mobility events for SPMS to still save energy,
/// breakeven = E_DBF / (E_SPIN_per_packet - E_SPMS_per_packet).
/// Returns +inf when SPMS does not save per-packet energy.  The paper's
/// calibration arrives at 239.18 packets.
[[nodiscard]] double mobility_breakeven_packets(double dbf_energy_uj, double spin_per_packet_uj,
                                                double spms_per_packet_uj);

}  // namespace spms::analysis
