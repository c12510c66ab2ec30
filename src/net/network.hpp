#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/energy.hpp"
#include "net/frame_queue.hpp"
#include "net/geometry.hpp"
#include "net/ids.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"
#include "net/params.hpp"
#include "net/radio.hpp"
#include "net/spatial_grid.hpp"
#include "sim/scheduler.hpp"
#include "sim/simulation.hpp"

/// \file network.hpp
/// The wireless network: nodes + medium + MAC + energy accounting.
///
/// Model (EXPERIMENTS.md, "Calibration notes": CSMA without collisions):
///  * Transmissions use the cheapest discrete power level covering the
///    requested distance; the "engineered coverage disc" of a transmission
///    is exactly that distance — every alive node inside it hears the frame.
///  * Channel access costs T_csma = G*n^2 (n = alive nodes in the disc)
///    plus a uniform slotted backoff; a node transmits one frame at a time.
///  * Airtime = bytes * t_tx_per_byte; propagation delay is zero (paper
///    Section 4.1).  Receivers process a frame t_proc after it arrives.
///  * A down node transmits nothing, hears nothing, and loses its MAC queue
///    the moment it fails ("any scheduled packet transfer is cancelled"),
///    counted as dropped frames like every other loss.
///
/// Hot-path notes: every disc query (neighbor lookup, contention count,
/// carrier-sense occupation, frame delivery) runs over a SpatialGrid keyed
/// on the zone radius instead of scanning all nodes; set_position() keeps
/// the grid coherent under mobility.  Per-node state is structure-of-arrays:
/// the disc scans touch only the dense position/liveness/busy-until arrays
/// (16/1/8 bytes per node) instead of one padded struct per node, so a
/// million-node field streams through cache.  Results are exactly those of
/// the historical per-object layout — same inclusive d^2 <= r^2 test,
/// ascending-id order — so RNG draw sequences and run results stay
/// byte-identical.

namespace spms::net {

/// Aggregate traffic counters for a run (used by tests and benches).
struct NetCounters {
  std::uint64_t tx_adv = 0;
  std::uint64_t tx_req = 0;
  std::uint64_t tx_data = 0;
  std::uint64_t tx_route = 0;
  std::uint64_t tx_bytes = 0;
  std::uint64_t deliveries = 0;           ///< agent on_receive invocations
  std::uint64_t dropped_sender_down = 0;  ///< frame of a down or crashing sender
  std::uint64_t dropped_out_of_range = 0; ///< requested disc beyond max range
  std::uint64_t dropped_receiver_down = 0;///< receiver failed before processing
  std::uint64_t dropped_link_fault = 0;   ///< reception lost to a link fault
  std::uint64_t dropped_battery_dead = 0; ///< frame lost to a drained battery

  [[nodiscard]] std::uint64_t tx_total() const { return tx_adv + tx_req + tx_data + tx_route; }
};

/// The one list of NetCounters fields: calls `f(key, field)` for every
/// field of `c` (const or not), in stored order, under the key both the
/// result store (exp::visit_result_fields) and the telemetry gauges use.
template <class Counters, class Fn>
void visit_counters(Counters& c, Fn&& f) {
  f("net.tx_adv", c.tx_adv);
  f("net.tx_req", c.tx_req);
  f("net.tx_data", c.tx_data);
  f("net.tx_route", c.tx_route);
  f("net.tx_bytes", c.tx_bytes);
  f("net.deliveries", c.deliveries);
  f("net.dropped_sender_down", c.dropped_sender_down);
  f("net.dropped_out_of_range", c.dropped_out_of_range);
  f("net.dropped_receiver_down", c.dropped_receiver_down);
  f("net.dropped_link_fault", c.dropped_link_fault);
  f("net.dropped_battery_dead", c.dropped_battery_dead);
}

/// Owns all nodes and simulates the shared wireless medium.
class Network {
 public:
  /// \param zone_radius_m  the node's maximum transmission radius for this
  ///        deployment (the paper's "zone" radius); must be covered by the
  ///        radio table's strongest level.
  /// \param battery  finite-budget battery model; the default is the
  ///        historical infinite battery.  Heterogeneous initial charges are
  ///        drawn here on a dedicated RNG sub-stream (ascending node id), so
  ///        no other stream in the run is perturbed by the battery config.
  /// \throws std::invalid_argument on an empty deployment or a zone radius
  ///         beyond the radio's maximum range.
  Network(sim::Simulation& sim, RadioTable radio, MacParams mac, EnergyModelParams energy,
          std::vector<Point> positions, double zone_radius_m, BatteryParams battery = {});

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // --- queries ---------------------------------------------------------------
  [[nodiscard]] std::size_t size() const { return pos_.size(); }
  [[nodiscard]] Point position(NodeId id) const { return pos_.at(id.v); }
  [[nodiscard]] bool is_up(NodeId id) const { return up_.at(id.v) != 0; }
  [[nodiscard]] double zone_radius() const { return zone_radius_m_; }
  [[nodiscard]] const RadioTable& radio() const { return radio_; }
  [[nodiscard]] const EnergyModelParams& energy_params() const { return energy_; }
  [[nodiscard]] sim::Simulation& simulation() { return sim_; }

  /// Ids of nodes within `radius_m` of `center` (excluding `center` itself),
  /// in ascending id order.  `include_down` keeps failed nodes in the list
  /// (zone membership ignores transient failures; contention does not).
  [[nodiscard]] std::vector<NodeId> neighbors_within(NodeId center, double radius_m,
                                                     bool include_down = true) const {
    std::vector<NodeId> out;
    neighbors_within(center, radius_m, include_down, out);
    return out;
  }

  /// Allocation-free variant: clears and refills `out` (reusing its
  /// capacity).  Same contents and ascending-id order as the value overload.
  void neighbors_within(NodeId center, double radius_m, bool include_down,
                        std::vector<NodeId>& out) const;

  /// Number of alive nodes strictly other than `center` within the disc;
  /// the contention count n of the MAC model.
  [[nodiscard]] std::size_t contention_count(NodeId center, double radius_m) const;

  /// Calls `visit(id)` for a superset of the nodes, up or down, within
  /// `radius_m` of `center`, in unspecified order; callers apply their own
  /// exact test.  For indexes built beside the medium (the cluster
  /// interest), so it does not count toward grid_queries().
  template <typename Visit>
  void visit_near(Point center, double radius_m, Visit&& visit) const {
    grid_.visit_disc(center, radius_m, visit);
  }

  /// Euclidean distance between two nodes, metres.
  [[nodiscard]] double distance_between(NodeId a, NodeId b) const {
    return distance(position(a), position(b));
  }

  /// The node's carrier-sense stamp: the end of the last transmission it
  /// heard (or made).  It only ever rises.
  [[nodiscard]] sim::TimePoint channel_busy_until(NodeId id) const {
    return channel_busy_until_.at(id.v);
  }

  /// Asks for the agent's on_watch(id) before the network raises `id`'s
  /// stamp, delivers a frame to it, or takes it down or up, at any instant
  /// at or after `from`; TimePoint::max(), the default, asks for none.
  void set_watch(NodeId id, sim::TimePoint from) { watch_.at(id.v) = from; }

  // --- wiring ----------------------------------------------------------------
  /// Installs the agent that handles `id`'s callbacks (non-owning; nullptr
  /// detaches).  One agent may serve many nodes: a dissemination protocol
  /// installs itself for every node and detaches when it dies.
  void set_agent(NodeId id, Agent* agent) { agent_.at(id.v) = agent; }

  /// Per-reception fault draw (link degradation): consulted once per hearer
  /// of every delivered frame; returning true fades that reception — no
  /// receive energy is charged and no agent sees the packet (counted in
  /// NetCounters::dropped_link_fault).  Pass nullptr to detach.
  using LinkFaultFn = std::function<bool(NodeId from, NodeId to)>;
  void set_link_fault(LinkFaultFn fn) { link_fault_ = std::move(fn); }

  /// Invoked (via a zero-delay event, so never from inside MAC bookkeeping)
  /// when a node's finite battery runs dry.  The fault controller hangs here
  /// and turns the depletion into a permanent death; pass nullptr to
  /// detach.  Fires at most once per node.
  using DepletionFn = std::function<void(NodeId)>;
  void set_on_depleted(DepletionFn fn) { on_depleted_ = std::move(fn); }

  // --- transmission ----------------------------------------------------------
  /// Broadcasts `packet` so that the disc of `coverage_m` metres around the
  /// sender is covered.  Returns false (and counts a drop) if the sender is
  /// down or the distance exceeds the radio's maximum range.
  bool send(NodeId from, Packet packet, double coverage_m,
            EnergyUse use = EnergyUse::kProtocol);

  /// Unicast helper: addresses `packet` to `to` and engineers the coverage
  /// disc to exactly the current sender-receiver distance.
  bool send_to(NodeId from, Packet packet, NodeId to, EnergyUse use = EnergyUse::kProtocol);

  // --- failures & mobility -----------------------------------------------------
  /// Crashes or repairs a node, firing the agent hooks.  A crash cancels
  /// the node's MAC queue, the frame in its airtime included.  Returns
  /// whether the node's state changed (false for a no-op).
  bool set_up(NodeId id, bool up);

  /// Teleports a node (mobility model), keeping the spatial index coherent;
  /// routing rebuild is the caller's job.
  void set_position(NodeId id, Point p) {
    Point& pos = pos_.at(id.v);
    grid_.move(id.v, pos, p);
    pos = p;
  }

  // --- direct energy charging (used by the routing layer's DBF accounting) ----
  /// Charges transmit energy for `bytes` at the cheapest level covering
  /// `coverage_m`, without simulating a frame.
  void charge_tx(NodeId id, std::size_t bytes, double coverage_m, EnergyUse use);
  /// Charges receive energy for `bytes` at a node.
  void charge_rx(NodeId id, std::size_t bytes, EnergyUse use);

  // --- battery -----------------------------------------------------------------
  /// Starts the deterministic idle-drain tick: every `battery.idle_tick`,
  /// each non-depleted node is charged idle_drain_mw * tick until (and
  /// including no tick after) `until`, so the run still drains to
  /// quiescence.  No-op for infinite batteries or zero drain.
  void start_idle_drain(sim::TimePoint until);

  [[nodiscard]] const BatteryParams& battery_params() const { return battery_; }
  [[nodiscard]] const Battery& battery(NodeId id) const { return battery_state_.at(id.v); }
  /// Nodes whose finite charge has run dry.
  [[nodiscard]] std::size_t depleted_count() const;
  /// Residual-charge statistics (all zeros for infinite batteries).
  [[nodiscard]] BatterySummary battery_summary() const;

  // --- accounting --------------------------------------------------------------
  [[nodiscard]] EnergyBreakdown energy() const;
  [[nodiscard]] const NetCounters& counters() const { return counters_; }
  [[nodiscard]] double node_energy_uj(NodeId id) const {
    return battery_state_.at(id.v).spent_uj();
  }
  /// Cumulative spatial-grid disc queries of the medium (observability
  /// gauge; stays at 0 for deployments below the grid cutover).
  [[nodiscard]] std::uint64_t grid_queries() const { return grid_queries_; }
  /// Deepest MAC queue across nodes right now (observability gauge).
  [[nodiscard]] std::size_t max_mac_queue_depth() const;

 private:
  /// Airtime of `bytes` at the configured rate.
  [[nodiscard]] sim::Duration airtime(std::size_t bytes) const;
  /// TX energy (uJ) for `bytes` at level `lvl`.
  [[nodiscard]] double tx_energy_uj(std::size_t bytes, std::size_t lvl) const;
  /// RX energy (uJ) for `bytes`.
  [[nodiscard]] double rx_energy_uj(std::size_t bytes) const;

  /// Contention + backoff delay for a frame sent by node `v` (the G*n^2
  /// term plus a random slotted backoff).
  [[nodiscard]] sim::Duration access_delay(std::uint32_t v, const OutgoingFrame& f);
  /// Paper-style independent transmission (infinite_parallelism mode).
  void send_unqueued(std::uint32_t v, OutgoingFrame frame);
  /// Delivers a finished transmission to every alive node in its disc.
  void deliver_frame(std::uint32_t sender, const OutgoingFrame& frame);
  /// Starts the CSMA access procedure for the head-of-queue frame.
  void mac_start_access(std::uint32_t v);
  /// Backoff elapsed: if the local channel is free, transmit; otherwise
  /// defer to the end of the busy period plus a fresh backoff.
  void mac_try_send(std::uint32_t v);
  /// Channel acquired: charge energy, occupy the disc, start the airtime.
  void mac_begin_tx(std::uint32_t v);
  /// Airtime elapsed: deliver to the coverage disc, advance the queue.
  void mac_complete_tx(std::uint32_t v);
  /// A fresh random backoff duration.
  [[nodiscard]] sim::Duration draw_backoff();
  /// The medium's one disc walk: calls `visit(v)` for every node v other
  /// than `center`, up or down, with d(v, center)^2 <= radius_m^2 (the
  /// inclusive test of the historical brute-force scan).  Below
  /// kGridMinNodes it scans the position array in ascending id; otherwise
  /// the grid pre-filters candidates, one query counted in grid_queries().
  /// Returns true after a grid walk, whose order is spatial, not by id.
  template <typename Visit>
  bool walk_disc(NodeId center, double radius_m, Visit&& visit) const {
    const Point c = position(center);
    const double r2 = radius_m * radius_m;
    const auto within = [&](std::uint32_t v) {
      if (v != center.v && distance_sq(pos_[v], c) <= r2) visit(v);
    };
    if (!use_grid_) {
      for (std::uint32_t v = 0; v < pos_.size(); ++v) within(v);
      return false;
    }
    ++grid_queries_;
    grid_.visit_disc(c, radius_m, within);
    return true;
  }

  void count_tx(const Packet& p);

  /// The medium's one drop path: adds `frames` to `cause`'s NetCounters
  /// field and traces one kFrameDrop record of them at `node`, with `peer`
  /// the frame's other end.
  void drop(obs::DropCause cause, NodeId node, NodeId peer, DataId item, double value = 0.0,
            std::uint64_t frames = 1);
  /// Drops `v`'s whole MAC queue, if it holds any frame, as one `cause`
  /// record whose value is the frame count, and idles its MAC.
  void drop_queue(std::uint32_t v, obs::DropCause cause);
  /// True if `v`'s radio can send or decode.  Otherwise drops the frame: as
  /// kBatteryDead if the battery is drained (a drained radio is dead even
  /// before the fault layer processes the zero-delay depletion
  /// notification), else as `down`, the node being down.
  [[nodiscard]] bool radio_alive(std::uint32_t v, obs::DropCause down, NodeId peer, DataId item);

  /// Clamped battery charges.  Each checks for a fresh depletion and, when
  /// one happened, dispatches the on_depleted hook on a zero-delay event
  /// (never synchronously: the charge sites sit inside MAC/delivery
  /// bookkeeping that a synchronous kill would corrupt).
  void charge_node_tx(std::uint32_t v, double uj, EnergyUse use);
  void charge_node_rx(std::uint32_t v, double uj, EnergyUse use);
  void charge_node_idle(std::uint32_t v, double uj);
  void dispatch_depletion(std::uint32_t v);

  /// Emits typed battery-threshold records for every residual bucket the
  /// node crossed since the last check.  Called only while the typed trace
  /// is enabled and the battery model is finite; pure observation (updates
  /// only the node's bookkeeping byte).
  void note_battery_level(std::uint32_t v);

  /// One idle-drain tick: charge every non-depleted node, reschedule.
  void idle_drain_tick();

  /// Calls v's agent's on_watch(v) when the instant it named has come.
  void settle(std::uint32_t v) {
    if (watch_[v] <= sim_.now() && agent_[v] != nullptr) agent_[v]->on_watch(NodeId{v});
  }

  /// A pool of objects that events capture by pointer, so the callbacks
  /// fit the scheduler's inline buffer.  A reused object keeps its vectors'
  /// capacity, so a settled run moves frames without allocating; pointers
  /// stay stable because the pool owns its objects through unique_ptr.
  template <class T>
  class Pool {
   public:
    [[nodiscard]] T* acquire() {
      if (free_.empty()) return store_.emplace_back(std::make_unique<T>()).get();
      T* obj = free_.back();
      free_.pop_back();
      return obj;
    }
    void release(T* obj) { free_.push_back(obj); }

   private:
    std::vector<std::unique_ptr<T>> store_;
    std::vector<T*> free_;
  };

  /// A t_proc event's receiver list and the packet they process.
  struct DeliveryCtx {
    std::vector<NodeId> processors;
    Packet pkt;
  };

  sim::Simulation& sim_;
  RadioTable radio_;
  MacParams mac_;
  EnergyModelParams energy_;
  BatteryParams battery_;

  // --- structure-of-arrays node state (index == NodeId.v) --------------------
  // Grouped by access pattern: the disc scans read pos_/up_, the
  // carrier-sense stamp writes channel_busy_until_, energy charging touches
  // battery_state_, and the MAC state machine owns the queue/busy/event
  // triple.  Each array is dense, so the hot loops stream contiguous memory.
  std::vector<Point> pos_;                      ///< positions (mirrors grid_)
  std::vector<std::uint8_t> up_;                ///< liveness flags (1 = up)
  std::vector<sim::TimePoint> channel_busy_until_;  ///< carrier-sense horizon
  std::vector<sim::TimePoint> watch_;           ///< see set_watch
  std::vector<Battery> battery_state_;          ///< charge meters + depletion
  std::vector<std::uint8_t> battery_bucket_;    ///< last traced residual bucket
  std::vector<Agent*> agent_;                   ///< non-owning per-node agents
  std::vector<FrameQueue> mac_queue_;           ///< per-node FIFO behind the radio
  std::vector<std::uint8_t> mac_busy_;          ///< a transmission is in progress
  std::vector<sim::EventHandle> mac_event_;     ///< pending access/tx-complete event

  double zone_radius_m_;
  /// Spatial index over node positions, keyed on the zone radius (the
  /// dominant query).  Membership covers *all* nodes, up or down — queries
  /// filter liveness — and set_position keeps it coherent.
  SpatialGrid grid_;
  /// Query-side cutover: deployments below this size answer disc queries by
  /// scanning the contiguous position array (cheaper than the cell walk,
  /// same results in the same order).  The grid is maintained regardless.
  static constexpr std::size_t kGridMinNodes = 64;
  bool use_grid_ = true;
  mutable std::uint64_t grid_queries_ = 0;  ///< medium disc queries on the grid
  /// Scratch hearer list reused by every deliver_frame call.  Safe because
  /// delivery is non-reentrant: nothing inside the hearer loop queries
  /// neighbors (agents only run later, on the t_proc event).
  mutable std::vector<NodeId> scratch_hearers_;
  Pool<DeliveryCtx> deliveries_;
  Pool<OutgoingFrame> frames_;  ///< in flight on the infinite-parallelism path
  NetCounters counters_;
  LinkFaultFn link_fault_;
  DepletionFn on_depleted_;
  sim::TimePoint idle_drain_until_;
};

}  // namespace spms::net
