#include "net/network.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "obs/event_trace.hpp"

namespace spms::net {

Network::Network(sim::Simulation& sim, RadioTable radio, MacParams mac, EnergyModelParams energy,
                 std::vector<Point> positions, double zone_radius_m, BatteryParams battery)
    : sim_(sim),
      radio_(std::move(radio)),
      mac_(mac),
      energy_(energy),
      battery_(battery),
      zone_radius_m_(zone_radius_m) {
  if (positions.empty()) throw std::invalid_argument{"Network: empty deployment"};
  // Each check negates its accepted range, so NaN fails it too.
  if (!(zone_radius_m > 0 && zone_radius_m <= radio_.max_range())) {
    throw std::invalid_argument{"Network: zone radius outside the radio's reach"};
  }
  if (battery_.finite && !(battery_.capacity_uj > 0.0)) {
    throw std::invalid_argument{"Network: finite battery needs a positive capacity"};
  }
  if (!(battery_.heterogeneity >= 0.0 && battery_.heterogeneity < 1.0)) {
    throw std::invalid_argument{"Network: battery heterogeneity must be in [0, 1)"};
  }
  const std::size_t n = positions.size();
  pos_ = std::move(positions);
  up_.assign(n, 1);
  channel_busy_until_.assign(n, sim::TimePoint::zero() - sim::Duration::seconds(3600));
  watch_.assign(n, sim::TimePoint::max());
  battery_state_.resize(n);
  battery_bucket_.assign(n, 0);
  agent_.assign(n, nullptr);
  mac_queue_.resize(n);
  mac_busy_.assign(n, 0);
  mac_event_.resize(n);
  // The grid's cell edge is the zone radius: the dominant disc query (a
  // zone) then overlaps at most a 3x3 cell block.  Below kGridMinNodes the
  // linear scan over the contiguous position array is cheaper than the
  // grid's cell-block walk, so tiny deployments keep the brute-force path
  // (the grid stays coherent either way — the cutover is query-side only and
  // both paths produce identical results in identical order).
  use_grid_ = n >= kGridMinNodes;
  grid_.reset(zone_radius_m, pos_);
  // Heterogeneous charges come from a dedicated sub-stream in ascending node
  // id, so the draw sequence is a pure function of (seed, capacity, h).
  auto init_rng = sim_.rng().fork(kBatteryInitStream);
  for (std::size_t i = 0; i < n; ++i) {
    if (battery_.finite) {
      double charge = battery_.capacity_uj;
      if (battery_.heterogeneity > 0.0) {
        charge = init_rng.uniform(battery_.capacity_uj * (1.0 - battery_.heterogeneity),
                                  battery_.capacity_uj * (1.0 + battery_.heterogeneity));
      }
      battery_state_[i].init_finite(charge);
    }
  }
}

void Network::neighbors_within(NodeId center, double radius_m, bool include_down,
                               std::vector<NodeId>& out) const {
  out.clear();
  const bool walked_grid = walk_disc(center, radius_m, [&](std::uint32_t v) {
    if (include_down || up_[v] != 0) out.push_back(NodeId{v});
  });
  // Cell visitation order is spatial, not by id: restore the ascending-id
  // contract every consumer (and every RNG draw sequence) depends on.
  if (walked_grid) std::sort(out.begin(), out.end());
}

std::size_t Network::contention_count(NodeId center, double radius_m) const {
  std::size_t count = 0;
  walk_disc(center, radius_m, [&](std::uint32_t v) {
    if (up_[v] != 0) ++count;
  });
  return count;
}

sim::Duration Network::airtime(std::size_t bytes) const {
  return mac_.t_tx_per_byte * static_cast<std::int64_t>(bytes);
}

double Network::tx_energy_uj(std::size_t bytes, std::size_t lvl) const {
  return radio_.level(lvl).power_mw * airtime(bytes).to_ms();
}

double Network::rx_energy_uj(std::size_t bytes) const {
  return energy_.rx_power_mw * airtime(bytes).to_ms();
}

bool Network::send(NodeId from, Packet packet, double coverage_m, EnergyUse use) {
  const std::uint32_t v = from.v;
  if (v >= pos_.size()) throw std::out_of_range{"Network::send: bad node id"};
  if (!radio_alive(v, obs::DropCause::kSenderDown, packet.dst, packet.item)) return false;
  // Pad the engineered disc by a hair: unicast coverage is usually the
  // exact receiver distance (send_to), and the sqrt/square round trip of
  // that distance can land one ulp short of the delivery test, silently
  // excluding the intended receiver on non-lattice deployments.
  coverage_m += 1e-6;
  const auto lvl = radio_.cheapest_level_for(coverage_m);
  if (!lvl) {
    drop(obs::DropCause::kOutOfRange, from, packet.dst, packet.item, coverage_m);
    return false;
  }
  packet.src = from;
  OutgoingFrame frame{std::move(packet), *lvl, coverage_m, use};
  if (mac_.infinite_parallelism) {
    send_unqueued(v, std::move(frame));
    return true;
  }
  mac_queue_[v].push_back(std::move(frame));
  if (mac_busy_[v] == 0) mac_start_access(v);
  return true;
}

sim::Duration Network::access_delay(std::uint32_t v, const OutgoingFrame& f) {
  sim::Duration wait = draw_backoff();
  if (mac_.contention_g_ms > 0.0) {
    // Analysis-style explicit contention term (Section 4.1's T_csma = G n^2).
    const std::size_t contenders = contention_count(NodeId{v}, f.coverage_m);
    wait += sim::Duration::ms(mac_.contention_g_ms * static_cast<double>(contenders) *
                              static_cast<double>(contenders));
  }
  return wait;
}

void Network::send_unqueued(std::uint32_t v, OutgoingFrame frame) {
  // Paper-style MAC: the frame neither waits for the node's earlier frames
  // nor occupies the channel; it simply takes access-delay + airtime.  The
  // frame is pooled so both events capture three words.
  const sim::Duration delay = access_delay(v, frame);
  OutgoingFrame* f = frames_.acquire();
  *f = std::move(frame);
  sim_.after(delay, [this, v, f] {
    // Drained or crashed during the backoff.
    if (!radio_alive(v, obs::DropCause::kSenderDown, f->packet.dst, f->packet.item)) {
      frames_.release(f);
      return;
    }
    charge_node_tx(v, tx_energy_uj(f->packet.size_bytes, f->level), f->use);
    count_tx(f->packet);
    sim_.after(airtime(f->packet.size_bytes), [this, v, f] {
      // Drained or crashed during the airtime: the transfer is cancelled.
      // A sender that went down and came back within the airtime still
      // delivers; every fault process repairs after at least 5 ms (Table
      // 1's defaults and every registry scenario), longer than the longest
      // default airtime (2 ms, a 40-byte DATA).
      if (radio_alive(v, obs::DropCause::kSenderDown, f->packet.dst, f->packet.item)) {
        deliver_frame(v, *f);
      }
      frames_.release(f);
    });
  });
}

bool Network::send_to(NodeId from, Packet packet, NodeId to, EnergyUse use) {
  packet.dst = to;
  return send(from, std::move(packet), distance_between(from, to), use);
}

sim::Duration Network::draw_backoff() {
  if (mac_.num_slots <= 1) return sim::Duration::zero();
  return mac_.slot_time * sim_.rng().uniform_int(0, mac_.num_slots - 1);
}

void Network::mac_start_access(std::uint32_t v) {
  assert(!mac_queue_[v].empty());
  mac_busy_[v] = 1;
  mac_event_[v] = sim_.after(access_delay(v, mac_queue_[v].front()),
                             [this, v] { mac_try_send(v); });
}

void Network::mac_try_send(std::uint32_t v) {
  assert(mac_busy_[v] != 0 && !mac_queue_[v].empty());
  if (mac_.carrier_sense && sim_.now() < channel_busy_until_[v]) {
    // Channel busy: defer to the end of the busy period plus a fresh backoff
    // (CSMA/CA without collision modelling; see EXPERIMENTS.md, "Calibration
    // notes").
    const auto retry_at = channel_busy_until_[v] + draw_backoff();
    mac_event_[v] = sim_.at(retry_at, [this, v] { mac_try_send(v); });
    return;
  }
  mac_begin_tx(v);
}

void Network::mac_begin_tx(std::uint32_t v) {
  assert(mac_busy_[v] != 0 && !mac_queue_[v].empty());
  if (battery_state_[v].depleted()) {
    // Drained while waiting for the channel: the queue dies with the radio.
    drop_queue(v, obs::DropCause::kBatteryDead);
    return;
  }
  const sim::TimePoint end = sim_.now() + airtime(mac_queue_[v].front().packet.size_bytes);
  // Raises o's stamp to `end`, letting a watching agent act first.
  const auto raise = [&](std::uint32_t o) {
    if (end <= channel_busy_until_[o]) return;
    settle(o);
    channel_busy_until_[o] = end;
  };
  // The transmitter's own stamp rises before anything else happens at this
  // instant, so a timer deciding at it sees the channel as it was (and may
  // queue frames behind this one).
  if (mac_.carrier_sense) raise(v);
  const OutgoingFrame& f = mac_queue_[v].front();
  charge_node_tx(v, tx_energy_uj(f.packet.size_bytes, f.level), f.use);
  count_tx(f.packet);
  if (mac_.carrier_sense) {
    // Occupy the channel across the coverage disc.  A watched node's agent
    // acts as the walk reaches it; an agent acts on its own node alone (its
    // frames queue behind this one, and no agent reads another node's
    // stamp), so its calls and RNG draws follow the walk order.
    walk_disc(NodeId{v}, f.coverage_m, raise);
  }
  mac_event_[v] = sim_.at(end, [this, v] { mac_complete_tx(v); });
}

void Network::deliver_frame(std::uint32_t sender, const OutgoingFrame& frame) {
  // Every alive node inside the engineered disc hears the frame.  The
  // hearer list lives in a per-Network scratch buffer (delivery never
  // nests) and the receiver list comes from the vector pool, so a settled
  // run delivers without allocating.
  const NodeId sender_id{sender};
  neighbors_within(sender_id, frame.coverage_m, /*include_down=*/false, scratch_hearers_);
  const Packet& p = frame.packet;
  DeliveryCtx* ctx = deliveries_.acquire();
  std::vector<NodeId>& processors = ctx->processors;
  processors.clear();
  processors.reserve(scratch_hearers_.size());
  for (NodeId h : scratch_hearers_) {
    if (battery_state_[h.v].depleted()) {
      // A drained receiver cannot decode: no rx charge, no processing, and
      // no link-fault draw (keeping the fault stream's draw sequence a
      // function of the *live* hearer set).
      drop(obs::DropCause::kBatteryDead, h, sender_id, p.item);
      continue;
    }
    if (link_fault_ && link_fault_(sender_id, h)) {
      // Faded below the decode threshold for this receiver: no rx charge,
      // no processing (ascending-id hearer order keeps the draws
      // deterministic).
      drop(obs::DropCause::kLinkFault, h, sender_id, p.item);
      continue;
    }
    const bool addressed = p.is_broadcast() || p.dst == h;
    if (addressed || energy_.charge_overhearing) {
      charge_node_rx(h.v, rx_energy_uj(p.size_bytes), frame.use);
    }
    if (addressed) processors.push_back(h);
  }
  if (processors.empty()) {
    deliveries_.release(ctx);
    return;
  }
  // One event covers all receivers: t_proc is a constant, so their
  // callbacks fire at the same instant; iteration order (ascending id)
  // keeps runs deterministic.  The context returns to the pool once the
  // event has run; copy-assigning the packet reuses pooled capacity.
  ctx->pkt = frame.packet;
  sim_.after(mac_.t_proc, [this, ctx] {
    for (NodeId h : ctx->processors) {
      settle(h.v);
      // Drained or failed between rx and t_proc.
      if (!radio_alive(h.v, obs::DropCause::kReceiverDown, ctx->pkt.src, ctx->pkt.item)) continue;
      if (agent_[h.v] != nullptr) {
        ++counters_.deliveries;
        agent_[h.v]->on_receive(h, ctx->pkt);
      }
    }
    deliveries_.release(ctx);
  });
}

void Network::mac_complete_tx(std::uint32_t v) {
  assert(mac_busy_[v] != 0 && !mac_queue_[v].empty());
  OutgoingFrame frame = mac_queue_[v].pop_front();

  deliver_frame(v, frame);

  // Advance the queue.
  if (!mac_queue_[v].empty()) {
    mac_start_access(v);
  } else {
    mac_busy_[v] = 0;
    mac_event_[v] = sim::EventHandle{};
  }
}

bool Network::set_up(NodeId id, bool up) {
  const std::uint32_t v = id.v;
  if (v >= pos_.size()) throw std::out_of_range{"Network::set_up: bad node id"};
  if ((up_[v] != 0) == up) return false;
  settle(v);
  up_[v] = up ? 1 : 0;
  if (!up) {
    // Crash: "any scheduled packet transfer is cancelled", whatever MAC
    // phase was in progress.  A drained node's queue dies with its battery.
    sim_.cancel(mac_event_[v]);
    drop_queue(v, battery_state_[v].depleted() ? obs::DropCause::kBatteryDead
                                               : obs::DropCause::kSenderDown);
    if (agent_[v] != nullptr) agent_[v]->on_down(id);
  } else {
    if (agent_[v] != nullptr) agent_[v]->on_up(id);
  }
  return true;
}

void Network::charge_tx(NodeId id, std::size_t bytes, double coverage_m, EnergyUse use) {
  const auto lvl = radio_.cheapest_level_for(coverage_m);
  if (!lvl) return;
  charge_node_tx(id.v, tx_energy_uj(bytes, *lvl), use);
  counters_.tx_bytes += bytes;
  ++counters_.tx_route;
}

void Network::charge_rx(NodeId id, std::size_t bytes, EnergyUse use) {
  charge_node_rx(id.v, rx_energy_uj(bytes), use);
}

void Network::charge_node_tx(std::uint32_t v, double uj, EnergyUse use) {
  Battery& b = battery_state_.at(v);
  const bool was = b.depleted();
  b.add_tx(uj, use);
  if (!was && b.depleted()) dispatch_depletion(v);
  if (battery_.finite && sim_.events().enabled()) note_battery_level(v);
}

void Network::charge_node_rx(std::uint32_t v, double uj, EnergyUse use) {
  Battery& b = battery_state_.at(v);
  const bool was = b.depleted();
  b.add_rx(uj, use);
  if (!was && b.depleted()) dispatch_depletion(v);
  if (battery_.finite && sim_.events().enabled()) note_battery_level(v);
}

void Network::charge_node_idle(std::uint32_t v, double uj) {
  Battery& b = battery_state_[v];
  const bool was = b.depleted();
  b.add_idle(uj);
  if (!was && b.depleted()) dispatch_depletion(v);
  if (battery_.finite && sim_.events().enabled()) note_battery_level(v);
}

void Network::note_battery_level(std::uint32_t v) {
  const Battery& b = battery_state_[v];
  const double init = b.initial_charge_uj();
  const double frac = init > 0.0 ? b.remaining_uj() / init : 0.0;
  std::uint8_t bucket;
  if (b.depleted()) {
    bucket = static_cast<std::uint8_t>(obs::BatteryBucket::kDepleted);
  } else if (frac < 0.10) {
    bucket = static_cast<std::uint8_t>(obs::BatteryBucket::kBelow10);
  } else if (frac < 0.20) {
    bucket = static_cast<std::uint8_t>(obs::BatteryBucket::kBelow20);
  } else if (frac < 0.50) {
    bucket = static_cast<std::uint8_t>(obs::BatteryBucket::kBelow50);
  } else {
    bucket = static_cast<std::uint8_t>(obs::BatteryBucket::kAbove50);
  }
  // One record per bucket entered, even when a single charge crosses
  // several (the per-crossing semantics consumers rely on).
  while (battery_bucket_[v] < bucket) {
    ++battery_bucket_[v];
    sim_.events().emit({.at = sim_.now(), .kind = obs::TraceKind::kBatteryThreshold,
                        .cause = battery_bucket_[v], .node = NodeId{v}, .value = frac});
  }
}

std::size_t Network::max_mac_queue_depth() const {
  std::size_t depth = 0;
  for (const FrameQueue& q : mac_queue_) depth = std::max(depth, q.size());
  return depth;
}

void Network::dispatch_depletion(std::uint32_t v) {
  // Zero-delay deferral: the charge sites sit inside MAC/delivery loops, and
  // the fault layer's kill path (Network::set_up) tears down exactly the
  // structures those loops are iterating.  The battery's depleted flag
  // already gates all traffic in the meantime.
  const NodeId id{v};
  sim_.after(sim::Duration::zero(), [this, id] {
    if (on_depleted_) on_depleted_(id);
  });
}

void Network::start_idle_drain(sim::TimePoint until) {
  if (!battery_.finite || battery_.idle_drain_mw <= 0.0) return;
  if (battery_.idle_tick <= sim::Duration::zero()) return;
  idle_drain_until_ = until;
  const auto first = sim_.now() + battery_.idle_tick;
  if (first > idle_drain_until_) return;
  sim_.at(first, [this] { idle_drain_tick(); });
}

void Network::idle_drain_tick() {
  const double uj = battery_.idle_drain_mw * battery_.idle_tick.to_ms();
  // Ascending node id; down-but-not-depleted nodes leak too (crashed
  // hardware still holds its charge budget against the clock).
  for (std::uint32_t v = 0; v < battery_state_.size(); ++v) {
    if (!battery_state_[v].depleted()) charge_node_idle(v, uj);
  }
  const auto next = sim_.now() + battery_.idle_tick;
  if (next > idle_drain_until_) return;  // horizon reached: let the run drain
  sim_.at(next, [this] { idle_drain_tick(); });
}

std::size_t Network::depleted_count() const {
  std::size_t n = 0;
  for (const Battery& b : battery_state_) {
    if (b.depleted()) ++n;
  }
  return n;
}

BatterySummary Network::battery_summary() const {
  BatterySummary s;
  if (!battery_.finite) return s;
  std::vector<double> residuals;
  residuals.reserve(battery_state_.size());
  for (const Battery& b : battery_state_) {
    if (b.depleted()) ++s.depleted_nodes;
    s.initial_total_uj += b.initial_charge_uj();
    s.spent_total_uj += b.spent_uj();
    residuals.push_back(b.remaining_uj());
  }
  std::sort(residuals.begin(), residuals.end());
  const auto count = static_cast<double>(residuals.size());
  double sum = 0.0;
  double weighted = 0.0;  // sum of rank * x over ascending residuals
  for (std::size_t i = 0; i < residuals.size(); ++i) {
    sum += residuals[i];
    weighted += static_cast<double>(i + 1) * residuals[i];
  }
  s.residual_min_uj = residuals.front();
  s.residual_mean_uj = sum / count;
  double var = 0.0;
  for (const double r : residuals) var += (r - s.residual_mean_uj) * (r - s.residual_mean_uj);
  s.residual_stddev_uj = std::sqrt(var / count);
  // Gini over the residual charges: 0 = perfectly even, 1 = one node holds
  // everything.  All-zero residuals (everyone dead) read as perfectly even.
  if (sum > 0.0) s.residual_gini = (2.0 * weighted) / (count * sum) - (count + 1.0) / count;
  return s;
}

EnergyBreakdown Network::energy() const {
  EnergyBreakdown total;
  for (const Battery& b : battery_state_) {
    total.protocol_tx_uj += b.meter().protocol_tx_uj();
    total.protocol_rx_uj += b.meter().protocol_rx_uj();
    total.routing_tx_uj += b.meter().routing_tx_uj();
    total.routing_rx_uj += b.meter().routing_rx_uj();
    total.idle_uj += b.idle_uj();
  }
  return total;
}

bool Network::radio_alive(std::uint32_t v, obs::DropCause down, NodeId peer, DataId item) {
  if (battery_state_[v].depleted()) {
    drop(obs::DropCause::kBatteryDead, NodeId{v}, peer, item);
    return false;
  }
  if (up_[v] == 0) {
    drop(down, NodeId{v}, peer, item);
    return false;
  }
  return true;
}

void Network::drop(obs::DropCause cause, NodeId node, NodeId peer, DataId item, double value,
                   std::uint64_t frames) {
  switch (cause) {
    case obs::DropCause::kSenderDown: counters_.dropped_sender_down += frames; break;
    case obs::DropCause::kOutOfRange: counters_.dropped_out_of_range += frames; break;
    case obs::DropCause::kReceiverDown: counters_.dropped_receiver_down += frames; break;
    case obs::DropCause::kLinkFault: counters_.dropped_link_fault += frames; break;
    case obs::DropCause::kBatteryDead: counters_.dropped_battery_dead += frames; break;
  }
  if (sim_.events().enabled()) {
    sim_.events().emit({.at = sim_.now(), .kind = obs::TraceKind::kFrameDrop,
                        .cause = static_cast<std::uint8_t>(cause), .node = node, .peer = peer,
                        .item = item, .value = value});
  }
}

void Network::drop_queue(std::uint32_t v, obs::DropCause cause) {
  if (const std::size_t lost = mac_queue_[v].size(); lost > 0) {
    drop(cause, NodeId{v}, NodeId{}, DataId{}, static_cast<double>(lost), lost);
    mac_queue_[v].clear();
  }
  mac_busy_[v] = 0;
  mac_event_[v] = sim::EventHandle{};
}

void Network::count_tx(const Packet& p) {
  switch (p.type) {
    case PacketType::kAdv: ++counters_.tx_adv; break;
    case PacketType::kReq: ++counters_.tx_req; break;
    case PacketType::kData: ++counters_.tx_data; break;
    case PacketType::kRouteUpdate: ++counters_.tx_route; break;
  }
  counters_.tx_bytes += p.size_bytes;
}

}  // namespace spms::net
