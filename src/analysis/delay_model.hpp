#pragma once

#include <cstddef>

/// \file delay_model.hpp
/// Closed-form delay model of the paper's Section 4.1.
///
/// Conventions (all times in ms, packet lengths in abstract units):
///  * Ttx — transmission time per unit of data;
///  * Tproc — per-packet processing delay at a receiver;
///  * Tcsma = G * n^2 — channel-access delay with n stations in the
///    transmission radius (paper's MAC model, refs [8][9]);
///  * A, R, D — lengths of ADV, REQ and DATA packets (paper: A:D = 1:30);
///  * n1 — stations inside the *maximum*-power radius; ns — stations inside
///    the *lowest*-power radius; n2 — an intermediate level where needed.
///
/// Every function mirrors one printed equation or case of Section 4.1 and
/// is cross-checked against the paper's spot value
/// Delay_SPIN : Delay_SPMS = 2.7865 at n1=45, ns=5.

namespace spms::analysis {

/// Model constants (defaults are the paper's: Ttx=0.05, Tproc=0.02, G=0.01,
/// A:R:D = 1:1:30, TOutADV=1.0, TOutDAT=2.5).
struct DelayParams {
  double ttx = 0.05;       ///< ms per data unit
  double tproc = 0.02;     ///< ms per packet
  double g = 0.01;         ///< Tcsma proportionality constant
  double adv = 1.0;        ///< A
  double req = 1.0;        ///< R
  double data = 30.0;      ///< D
  double tout_adv = 1.0;   ///< TOutADV, ms
  double tout_dat = 2.5;   ///< TOutDAT, ms
};

/// Channel-access delay Tcsma = G * n^2.
[[nodiscard]] double csma_delay(const DelayParams& p, double n);

/// Eq. (1): SPIN failure-free delay for one source-destination pair,
/// Tb = 3 G n1^2 + (A+R+D) Ttx + 2 Tproc.
[[nodiscard]] double spin_pair_delay(const DelayParams& p, double n1);

/// Eq. (2): SPMS failure-free delay when the destination is one (low-power)
/// hop away, Tb = G n1^2 + 2 G n2^2 + (A+R+D) Ttx + 2 Tproc.
[[nodiscard]] double spms_pair_delay(const DelayParams& p, double n1, double n2);

/// T_round = G n1^2 + 2 G ns^2 + (A+R+D) Ttx + 2 Tproc — one full
/// ADV/REQ/DATA exchange with low-power REQ/DATA.
[[nodiscard]] double spms_round_time(const DelayParams& p, double n1, double ns);

/// Case a.a: two hops, the relay requests the data too: Tc = 2 T_round.
[[nodiscard]] double spms_two_hop_delay(const DelayParams& p, double n1, double ns);

/// Case a.b: the relay does not request; the destination times out and
/// pulls through it: Tc = G n1^2 + 4 G ns^2 + (A+2R+2D) Ttx + 4 Tproc +
/// TOutADV.
[[nodiscard]] double spms_relay_no_request_delay(const DelayParams& p, double n1, double ns);

/// Eq. (3): worst case with k relay nodes (the last relay does not
/// request): Tc <= (k-1) T_round + TOutADV + [case a.b tail].
[[nodiscard]] double spms_k_relay_worst_delay(const DelayParams& p, std::size_t k, double n1,
                                              double ns);

/// Failure case b.a: the relay fails *before* re-advertising.  The
/// destination burns TOutADV, requests through the dead relay, burns
/// TOutDAT, then pulls directly from the PRONE:
/// Tc = G n1^2 + G ns^2 + 2 G n2^2 + (A+R+D) Ttx + TOutADV + TOutDAT + 2 Tproc.
[[nodiscard]] double spms_failure_before_adv_delay(const DelayParams& p, double n1, double n2,
                                                   double ns);

/// Failure case b.b: the relay fails *after* re-advertising; the
/// destination's REQ goes unanswered, then it pulls from the SCONE:
/// Tc = T_round + 2 G ns^2 + (A+R) Ttx + TOutDAT + G n2^2 + (A+D) Ttx + 2 Tproc.
[[nodiscard]] double spms_failure_after_adv_delay(const DelayParams& p, double n1, double n2,
                                                  double ns);

/// General failure position (Fig. 4): in a chain of k relays the (j-th from
/// last) relay fails:
/// Delay = (k-j) T_round + TOutADV + G ns^2 + TOutDAT + 2 G nj^2 +
///         (R+D) Ttx + 2 Tproc.
[[nodiscard]] double spms_failure_jth_from_last_delay(const DelayParams& p, std::size_t k,
                                                      std::size_t j, double n1, double ns,
                                                      double nj);

/// The paper's headline comparison: SPIN/SPMS failure-free delay ratio for
/// one pair with the destination in the lowest-power radius (n2 = ns).
/// At the paper's sample values (n1=45, ns=5) this returns 2.7865.
[[nodiscard]] double spin_to_spms_delay_ratio(const DelayParams& p, double n1, double ns);

/// Number of grid points (pitch `pitch_m`) within distance `r_m` of a grid
/// point, the boundary included and the point itself excluded — the
/// paper's "uniform density of nodes on the grid" station count n(r) for
/// Fig. 3.
[[nodiscard]] std::size_t grid_disc_count(double r_m, double pitch_m);

}  // namespace spms::analysis
