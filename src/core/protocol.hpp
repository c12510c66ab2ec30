#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string_view>

#include "core/interest.hpp"
#include "core/item_table.hpp"
#include "net/network.hpp"
#include "obs/event_trace.hpp"
#include "sim/simulation.hpp"

/// \file protocol.hpp
/// Common core of the data-dissemination protocols (SPMS, SPIN, flooding).
/// A protocol is the net::Agent of every node, reacts to traffic injected
/// via publish(), and reports deliveries through a callback.

namespace spms::core {

/// Packet sizes and timer constants shared by the protocol family
/// (paper Table 1).
struct ProtocolParams {
  std::size_t adv_bytes = 2;   ///< ADV frame size
  std::size_t req_bytes = 2;   ///< REQ frame size
  std::size_t data_bytes = 40; ///< DATA frame size (DATA:REQ = 20)

  /// SPMS: how long a node waits to hear a relay's ADV before requesting
  /// through the shortest path (TOutADV).
  sim::Duration tout_adv = sim::Duration::ms(1.0);
  /// SPMS: how long a requester waits for DATA before escalating (TOutDAT).
  /// SPIN reuses it as its re-request timeout under failures.
  sim::Duration tout_dat = sim::Duration::ms(2.5);

  /// Bound on REQ (re)tries per item per node before giving up.
  int max_retries = 16;

  /// Retry timeouts back off exponentially: the k-th retry waits
  /// tout_dat * retry_backoff^min(k, max_backoff_exp).  The paper assumes
  /// timeouts are "adjusted properly" so they do not fire while the reply is
  /// still queued; under bursty load a fixed 2.5 ms would fire spuriously
  /// and spiral, so the backoff restores the paper's intent (EXPERIMENTS.md,
  /// "Calibration notes": retry backoff).
  double retry_backoff = 2.0;
  int max_backoff_exp = 6;

  /// Holder-side service rate limit: a (item, requester) pair is served at
  /// most once per window.  Suppresses duplicate DATA when a retry races a
  /// reply that is still queued, while letting genuinely lost replies be
  /// re-served after the window.
  sim::Duration service_guard = sim::Duration::ms(25.0);

  /// Channel-activity gating of timers: an expiring tau_DAT / tau_ADV / SPIN
  /// retry timer whose owner has heard the channel busy within the last
  /// tout_dat re-arms instead of firing (the reply is plainly queued behind
  /// audible traffic, not lost).  This keeps Table 1's 1.0/2.5 ms timers
  /// meaningful under load while preserving fast failure detection on a
  /// quiet channel.  The limit bounds deferrals per item as a deadlock
  /// valve.
  int timer_defer_limit = 4000;
};

namespace detail {
/// min(2^(d/8), 256) for d = 0..63, computed once by the same std::pow call
/// the formula makes at run time (the volatile exponent keeps the compiler
/// from folding it into a differently rounded constant).
inline const std::array<double, 64> kDeferGrowth = [] {
  std::array<double, 64> growth{};
  for (std::size_t d = 0; d < growth.size(); ++d) {
    volatile double exponent = static_cast<double>(d) / 8.0;
    growth[d] = std::min(std::pow(2.0, exponent), 256.0);
  }
  return growth;
}();
}  // namespace detail

/// Growth factor of the quiet window after `deferrals` (>= 0) deferrals:
/// min(2^(deferrals/8), 256), which reaches its cap at 64.
[[nodiscard]] inline double defer_growth(int deferrals) {
  assert(deferrals >= 0);
  return deferrals < 64 ? detail::kDeferGrowth[static_cast<std::size_t>(deferrals)] : 256.0;
}

/// Quiet window for a gated timer's deferral number `deferrals` (see
/// ProtocolParams::timer_defer_limit): grows geometrically — doubles every 8
/// deferrals, capped at 256x `base` — so a requester stuck behind a long
/// congested phase wakes O(log) times instead of polling every tout_dat.
[[nodiscard]] inline sim::Duration defer_window(sim::Duration base, int deferrals) {
  return base * defer_growth(deferrals);
}

/// Invoked exactly once per (interested node, item) when the data arrives.
using DeliveryCallback =
    std::function<void(net::NodeId node, net::DataId item, sim::TimePoint at)>;

/// Base class for dissemination protocols.  The constructor installs the
/// protocol as the agent of every node of the network and the destructor
/// detaches it.  The base holds what the protocols share: the run's
/// simulation, network, interest and parameters, and one definition each
/// of the advertise-once broadcast, the retry backoff, the channel-gated
/// timer deferral, the holder-side service guard and the give-up tally.
class DisseminationProtocol : public net::Agent {
 public:
  DisseminationProtocol(sim::Simulation& sim, net::Network& net, const Interest& interest,
                        ProtocolParams params);
  ~DisseminationProtocol() override;

  DisseminationProtocol(const DisseminationProtocol&) = delete;
  DisseminationProtocol& operator=(const DisseminationProtocol&) = delete;

  /// Protocol name for reports ("SPMS", "SPIN", ...).
  [[nodiscard]] virtual std::string_view name() const = 0;

  /// New data sensed at `source`; starts the dissemination of `item`.
  /// `item.origin` must equal `source`.
  virtual void publish(net::NodeId source, net::DataId item) = 0;

  /// Nodes moved; protocols holding routing state refresh it here.  The
  /// scenario layer calls this from the mobility epoch hook.
  virtual void on_topology_changed() {}

  /// Installs the delivery callback (collector wiring).
  void set_delivery_callback(DeliveryCallback cb) { deliver_ = std::move(cb); }

  /// Count of (node, item) acquisitions abandoned after max_retries; used by
  /// the failure experiments to report residual losses.
  [[nodiscard]] std::uint64_t given_up() const { return given_up_; }

 protected:
  void notify_delivered(net::NodeId node, net::DataId item, sim::TimePoint at) const {
    if (deliver_) deliver_(node, item, at);
  }

  /// Broadcasts `item`'s ADV from `self` unless `advertised` is set: each
  /// node advertises an item once.  The ADV goes out at the zone radius (the
  /// node's maximum power) so the whole zone hears it; `advertised` is set,
  /// and `kind` traced, only once the MAC accepted the frame.
  void advertise_once(net::NodeId self, net::DataId item, bool& advertised, obs::TraceKind kind);

  /// How long a requester waits for DATA after its `attempts`-th REQ:
  /// tout_dat * retry_backoff^min(attempts - 1, max_backoff_exp).  A
  /// spuriously short wait would re-request data whose reply is merely
  /// queued behind other frames.
  [[nodiscard]] sim::Duration retry_wait(int attempts) const;

  /// Channel-gated timer deferral (ProtocolParams::timer_defer_limit).  Call
  /// it when a gated timer of `self` expires.  While `self` has heard the
  /// channel busy within the window of deferral number `deferrals`, and the
  /// limit is not reached, it increments `deferrals`, re-arms `timer` to
  /// call `wake` when the grown window has been quiet, and returns true: the
  /// reply is plainly queued behind audible traffic, not lost.  Otherwise it
  /// returns false and the caller acts on the expiry.  Checking with the
  /// current window and waking with the grown one lets a quiet channel fire
  /// the timer on schedule.
  template <class Fn>
  [[nodiscard]] bool defer_while_audible(net::NodeId self, int& deferrals,
                                         sim::EventHandle& timer, Fn&& wake) {
    if (net_.channel_quiet_at(self, defer_window(params_.tout_dat, deferrals)) <= sim_.now() ||
        deferrals >= params_.timer_defer_limit) {
      return false;
    }
    ++deferrals;
    timer = sim_.at(net_.channel_quiet_at(self, defer_window(params_.tout_dat, deferrals)),
                    std::forward<Fn>(wake));
    return true;
  }

  /// Holder-side service guard: `holder` serves (`item`, `requester`) at
  /// most once per service_guard window.  Returns true, and records the
  /// service, when the pair may be served now.  Suppresses a duplicate DATA
  /// when a retry races a reply that is still queued at the holder.
  [[nodiscard]] bool admit_service(net::NodeId holder, net::DataId item, net::NodeId requester);

  /// Give-up tally: true when `attempts` has reached max_retries.  The first
  /// such verdict for a (node, item) pair, tracked by `gave_up`, counts the
  /// give-up and traces it.
  [[nodiscard]] bool out_of_retries(net::NodeId self, net::DataId item, int attempts,
                                    bool& gave_up);

  sim::Simulation& sim_;
  net::Network& net_;
  const Interest& interest_;
  ProtocolParams params_;

 private:
  /// One service record: `holder` last served `item` to `requester`.
  struct ServiceKey {
    net::NodeId holder;
    net::DataId item;
    net::NodeId requester;
    bool operator==(const ServiceKey&) const = default;
  };
  struct ServiceKeyHash {
    std::size_t operator()(const ServiceKey& k) const noexcept {
      const std::uint64_t pair = (std::uint64_t{k.holder.v} << 32) | k.requester.v;
      return std::hash<net::DataId>{}(k.item) ^ (pair * 0x9e3779b97f4a7c15ull);
    }
  };

  DeliveryCallback deliver_;
  std::uint64_t given_up_ = 0;
  /// When each (holder, item, requester) pair was last served.
  FlatMap<ServiceKey, sim::TimePoint, ServiceKeyHash> served_;
};

}  // namespace spms::core
