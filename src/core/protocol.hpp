#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

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
  /// valve; every deferral counts, the ones a parked timer makes at its
  /// virtual wakes included (DisseminationProtocol::park_while_audible).
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

/// The deferral state of an item's channel-gated timers, kept in the
/// item's protocol state (ItemTable states never move, so a parked timer
/// needs no closure).  SPMS's tau_ADV and tau_DAT share one.
struct Deferral {
  static constexpr std::uint32_t kNotParked = 0xffffffffu;

  int count = 0;                      ///< deferrals so far, virtual wakes included
  std::uint32_t parked = kNotParked;  ///< the parked timer's record, while one is parked
  net::DataId item;                   ///< the item, recorded when a timer parks
};

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

  /// The handle a parked timer holds: valid, and matched by no scheduler
  /// slot.
  static constexpr sim::EventHandle kParked{~std::uint64_t{0}};
  [[nodiscard]] static bool is_parked(sim::EventHandle timer) { return timer.id == kParked.id; }

  /// Channel-gated timer deferral (ProtocolParams::timer_defer_limit).  Call
  /// it when the gated `timer` of `self` for `item` expires; `deferral` must
  /// have no timer parked (timers that share one park in turn).  With B the
  /// end of the last transmission `self` heard and W(d) =
  /// defer_window(tout_dat, d), the timer defers iff B + W(deferral.count)
  /// is still ahead and the limit is not reached.  A deferring timer
  /// counts one deferral, parks in `self`'s wake heap (`timer` becomes
  /// kParked) and returns true: the reply is plainly queued behind audible
  /// traffic, not lost.  Otherwise it returns false and the caller acts on
  /// the expiry.
  ///
  /// A parked timer is (count d, stamp S it last saw, wake w = S + W(d)).
  /// Its virtual wake at w fires it iff the stamp is still S or d reached
  /// the limit; otherwise d grows by one and it wakes again at B(w) +
  /// W(d), where B(w) is the stamp as it was just before instant w.  Each
  /// wake is decided as if the timer had woken at it, but no scheduler
  /// event is spent on it: it is decided at the first of the node's one
  /// scheduler event, the node's next park or cancel, and the network's
  /// next stamp rise, delivery, crash or recovery at the node at or after
  /// it (on_watch).  A firing timer runs on_wake(self, item).  So a wake
  /// runs before whatever else happens at the node at its instant, except
  /// a park.
  [[nodiscard]] bool park_while_audible(net::NodeId self, net::DataId item, Deferral& deferral,
                                        sim::EventHandle& timer);

  /// Stops a gated `timer` of `self`, scheduled or parked, and clears it.  If
  /// it is parked, `self`'s wakes at or before now are decided first, as
  /// they ran before a cancel at their instant: a due wake of this timer
  /// defers it, so the item's next timer starts from the same count, or
  /// fires it, and the timer its handler arms is the one cancelled.
  void cancel_timer(net::NodeId self, sim::EventHandle& timer, Deferral& deferral);

  /// A parked timer of `self` for `item` fires: the protocol runs the
  /// expiry handler of the timer it parked, whose park_while_audible call
  /// then returns false.  Protocols that park timers override it.
  virtual void on_wake(net::NodeId /*self*/, net::DataId /*item*/) {}

  /// Decides `self`'s wakes up to this instant before the network acts on
  /// the node.
  void on_watch(net::NodeId self) override;

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

  /// One parked timer in its node's wake heap.  Ties on `at` go to the
  /// earlier check, as the scheduler's FIFO order would run events that
  /// each check had scheduled.
  struct Wake {
    sim::TimePoint at;     ///< the next virtual wake
    sim::TimePoint seen;   ///< the node's busy stamp at the last check
    std::uint32_t order;   ///< the node's check count at that check
    std::uint32_t timer;   ///< its record in parked_
  };
  /// A parked timer's record: its deferral state and its heap position.
  /// Sifts write positions here, into one dense array, not into the
  /// scattered item states.  Keeping the position in the Deferral, with a
  /// 32-byte Wake that points at it, made the macro benchmark's dense
  /// run_s 8% higher (150 against 138 ms, four alternating pairs) and
  /// faults' 7%, in a build that also computed W at each use, which
  /// accounts for 2.6 points of it (see window()).
  struct Parked {
    Deferral* deferral;
    std::uint32_t slot;  ///< heap position; the next free record while unused
  };
  [[nodiscard]] static bool wakes_before(const Wake& a, const Wake& b) {
    return a.at != b.at ? a.at < b.at : a.order < b.order;
  }

  /// The parked timers of a node that holds more than kScanMax, by
  /// min(count, 64): W depends only on that.  `current` holds the timers
  /// that saw the node's present stamp (taken at `stamp`), `stale` those
  /// that saw an older one.  A node with fewer timers scans them instead.
  struct WakeCounts {
    std::array<std::uint32_t, 65> current{};
    std::array<std::uint32_t, 65> stale{};
    std::uint64_t current_bits = 0;  ///< non-empty buckets below 64
    std::uint64_t stale_bits = 0;
    sim::TimePoint stamp;
    std::uint32_t at_limit = 0;      ///< timers whose count reached the limit
    std::uint32_t next_free = 0;     ///< free-list link while unused
  };
  /// A count block is 552 bytes.  On the macro benchmark's cluster workload
  /// no node holds more than 8 parked timers, but up to 543 of its 1,024
  /// hold some at once: counts at every node raised its peak RSS from
  /// 6.56-6.61 to 6.80-6.82 MB and its run_s from 27.5-28.7 to 29.7-29.8 ms.
  /// A scan at every node took fig12 (--seeds 2 --jobs 4) from 47 to 79 s,
  /// its nodes holding up to 1,382 timers (EXPERIMENTS.md, "Performance").
  static constexpr std::uint32_t kScanMax = 8;

  /// A node's wake heap (a run of wakes_), its counts and its one event.
  struct NodeWakes {
    std::uint32_t base = 0;
    std::uint32_t capacity = 0;
    std::uint32_t size = 0;
    std::uint32_t counts = kNone;  ///< its WakeCounts while it holds more than kScanMax
    std::uint32_t checks = 0;      ///< orders the node's checks
    sim::EventHandle event;
    sim::TimePoint event_at;
  };

  static constexpr std::uint32_t kNone = 0xffffffffu;

  /// defer_window(tout_dat, deferrals), read from windows_.  Calling
  /// defer_window, whose multiply rounds through llround, at each use made
  /// the macro benchmark's dense run_s 2.6% higher (142 against 138 ms,
  /// six alternating pairs, six wins for the table).
  [[nodiscard]] sim::Duration window(int deferrals) const {
    return windows_[static_cast<std::size_t>(std::min(deferrals, 64))];
  }
  [[nodiscard]] Wake* heap(std::uint32_t v) { return wakes_.data() + nodes_[v].base; }
  void heap_set(std::uint32_t v, std::uint32_t pos, const Wake& w);
  /// Frees the record of `deferral`'s parked timer.
  void unpark(Deferral& deferral);
  void sift_up(std::uint32_t v, std::uint32_t pos);
  void sift_down(std::uint32_t v, std::uint32_t pos);
  void heap_push(std::uint32_t v, const Wake& w);
  void heap_remove(std::uint32_t v, std::uint32_t pos);

  /// `v`'s counts, with `current` moved to `stale` if the stamp rose
  /// since; nullptr while the node scans instead.
  WakeCounts* counts_of(std::uint32_t v);
  /// Gives `v`, past kScanMax timers, counts taken from its heap.
  void start_counts(std::uint32_t v);
  /// Adds `delta` timers with `count` deferrals that saw stamp `seen`.
  void tally(WakeCounts& c, sim::TimePoint seen, int count, int delta) const;

  /// Decides `v`'s wakes before now (`and_now`: at now too, which may fire).
  void run_wakes(std::uint32_t v, bool and_now);
  /// The earliest instant any parked timer of `v` fires if no more traffic
  /// is heard.
  [[nodiscard]] sim::TimePoint earliest_fire(std::uint32_t v);
  /// After `v`'s heap changed: points its watch at the first wake, or, with
  /// the last timer gone, drops its event and storage.
  void rewatch(std::uint32_t v);
  /// Moves `v`'s event to `at` unless it is due no later.  The event may
  /// sit early (a stamp moved every bound later); it then only decides
  /// wakes and reschedules itself.
  void wake_node_by(std::uint32_t v, sim::TimePoint at);
  void on_node_event(std::uint32_t v);

  DeliveryCallback deliver_;
  std::uint64_t given_up_ = 0;
  /// When each (holder, item, requester) pair was last served.
  FlatMap<ServiceKey, sim::TimePoint, ServiceKeyHash> served_;

  std::array<sim::Duration, 65> windows_;  ///< W(0..64); W stays at W(64) beyond
  std::vector<NodeWakes> nodes_;
  std::vector<Parked> parked_;
  std::uint32_t free_parked_ = kNone;
  /// Every node's wake heap, each in a run of power-of-two length; free
  /// runs chain through their first wake's `order`, by log2 length.
  std::vector<Wake> wakes_;
  std::array<std::uint32_t, 32> free_runs_;
  std::vector<WakeCounts> counts_;
  std::uint32_t free_counts_ = kNone;
};

}  // namespace spms::core
