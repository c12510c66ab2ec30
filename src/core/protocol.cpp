#include "core/protocol.hpp"

#include <bit>

#include "sim/heap4.hpp"

namespace spms::core {

DisseminationProtocol::DisseminationProtocol(sim::Simulation& sim, net::Network& net,
                                             const Interest& interest, ProtocolParams params)
    : sim_(sim),
      net_(net),
      interest_(interest),
      params_(params),
      nodes_(net.size()) {
  for (std::size_t d = 0; d < windows_.size(); ++d) {
    windows_[d] = defer_window(params_.tout_dat, static_cast<int>(d));
  }
  free_runs_.fill(kNone);
  // Room for a few parked timers per node from the start, so the stores
  // grow a handful of times in a run instead of a dozen.
  const std::size_t room = 8 * std::min<std::size_t>(net.size(), 64);
  wakes_.reserve(room);
  parked_.reserve(room);
  counts_.reserve(std::min<std::size_t>(net.size(), 64));
  for (std::uint32_t i = 0; i < net_.size(); ++i) net_.set_agent(net::NodeId{i}, this);
}

DisseminationProtocol::~DisseminationProtocol() {
  for (std::uint32_t i = 0; i < net_.size(); ++i) {
    net_.set_agent(net::NodeId{i}, nullptr);
    net_.set_watch(net::NodeId{i}, sim::TimePoint::max());
  }
}

void DisseminationProtocol::advertise_once(net::NodeId self, net::DataId item, bool& advertised,
                                           obs::TraceKind kind) {
  if (advertised) return;
  net::Packet adv;
  adv.type = net::PacketType::kAdv;
  adv.item = item;
  adv.size_bytes = params_.adv_bytes;
  if (net_.send(self, adv, net_.zone_radius())) {
    advertised = true;
    if (sim_.events().enabled()) {
      sim_.events().emit({.at = sim_.now(), .kind = kind, .node = self, .item = item});
    }
  }
}

sim::Duration DisseminationProtocol::retry_wait(int attempts) const {
  const int exp = std::min(std::max(attempts - 1, 0), kMaxBackoffExp);
  return params_.tout_dat * (std::int64_t{1} << exp);
}

bool DisseminationProtocol::admit_service(net::NodeId holder, net::DataId item,
                                          net::NodeId requester) {
  const auto [last, first] = served_.try_emplace({holder, item, requester}, sim_.now());
  if (first) return true;
  if (sim_.now() - *last < params_.service_guard) return false;
  *last = sim_.now();
  return true;
}

// --- parked timers -----------------------------------------------------------

bool DisseminationProtocol::park_while_audible(net::NodeId self, net::DataId item,
                                               Deferral& deferral, sim::EventHandle& timer) {
  assert(deferral.parked == Deferral::kNotParked);
  const sim::TimePoint busy = net_.channel_busy_until(self);
  if (busy + window(deferral.count) <= sim_.now() ||
      deferral.count >= params_.timer_defer_limit) {
    return false;
  }
  // The node's earlier wakes are decided first, so check order follows time.
  const std::uint32_t v = self.v;
  run_wakes(v, false);
  ++deferral.count;
  deferral.item = item;
  timer = kParked;
  if (free_parked_ != kNone) {
    deferral.parked = free_parked_;
    free_parked_ = parked_[free_parked_].slot;
    parked_[deferral.parked].deferral = &deferral;
  } else {
    deferral.parked = static_cast<std::uint32_t>(parked_.size());
    parked_.push_back({&deferral, 0});
  }
  const Wake w{busy + window(deferral.count), busy, nodes_[v].checks++, deferral.parked};
  heap_push(v, w);
  if (WakeCounts* c = counts_of(v)) {
    tally(*c, w.seen, deferral.count, 1);
  } else if (nodes_[v].size > kScanMax) {
    start_counts(v);
  }
  rewatch(v);
  wake_node_by(v, w.at);  // it saw the present stamp, so it fires at its wake
  return true;
}

void DisseminationProtocol::cancel_timer(net::NodeId self, sim::EventHandle& timer,
                                         Deferral& deferral) {
  if (is_parked(timer)) {
    const std::uint32_t v = self.v;
    run_wakes(v, true);  // may fire this timer, whose handler re-arms `timer`
    if (is_parked(timer)) {
      const std::uint32_t slot = parked_[deferral.parked].slot;
      if (WakeCounts* c = counts_of(v)) tally(*c, heap(v)[slot].seen, deferral.count, -1);
      heap_remove(v, slot);
      unpark(deferral);
      timer = sim::EventHandle{};
    }
    rewatch(v);
  }
  sim_.cancel(timer);
  timer = sim::EventHandle{};
}

void DisseminationProtocol::on_watch(net::NodeId self) {
  run_wakes(self.v, true);
  rewatch(self.v);
}

void DisseminationProtocol::on_node_event(std::uint32_t v) {
  nodes_[v].event = sim::EventHandle{};
  run_wakes(v, true);
  rewatch(v);
  if (nodes_[v].size > 0) wake_node_by(v, earliest_fire(v));
}

void DisseminationProtocol::run_wakes(std::uint32_t v, bool and_now) {
  const sim::TimePoint now = sim_.now();
  const sim::TimePoint busy = net_.channel_busy_until(net::NodeId{v});
  WakeCounts* c = counts_of(v);
  while (nodes_[v].size > 0) {
    Wake w = heap(v)[0];
    if (w.at > now || (w.at == now && !and_now)) break;
    Deferral& d = *parked_[w.timer].deferral;
    if (c != nullptr) tally(*c, w.seen, d.count, -1);
    if (w.seen == busy || d.count >= params_.timer_defer_limit) {
      // Fires at its wake, which is now: an earlier one would have been
      // the node's event.
      assert(w.at == now && and_now);
      heap_remove(v, 0);
      unpark(d);
      on_wake(net::NodeId{v}, d.item);
      c = counts_of(v);  // the handler may have cancelled the node's last timer
      continue;
    }
    ++d.count;
    w.at = busy + window(d.count);
    w.seen = busy;
    w.order = nodes_[v].checks++;
    heap(v)[0] = w;
    sim::heap4::sift_down(heap(v), nodes_[v].size, 0, wakes_before, placed());
    if (c != nullptr) tally(*c, w.seen, d.count, 1);
  }
}

sim::TimePoint DisseminationProtocol::earliest_fire(std::uint32_t v) {
  // A timer that saw the present stamp B fires at its wake, B + W(d); any
  // other fires no earlier than B + W(d + 1); one at the limit fires at
  // its wake.
  const sim::TimePoint busy = net_.channel_busy_until(net::NodeId{v});
  sim::TimePoint due = sim::TimePoint::max();
  const WakeCounts* c = counts_of(v);
  if (c == nullptr) {
    const Wake* h = heap(v);
    for (std::uint32_t i = 0; i < nodes_[v].size; ++i) {
      const int d = parked_[h[i].timer].deferral->count;
      due = std::min(due, h[i].seen == busy || d >= params_.timer_defer_limit
                              ? h[i].at
                              : busy + window(d + 1));
    }
    return due;
  }
  const auto lowest = [](const std::array<std::uint32_t, 65>& n, std::uint64_t bits) {
    if (bits != 0) return std::countr_zero(bits);
    return n[64] > 0 ? 64 : -1;
  };
  if (const int d = lowest(c->current, c->current_bits); d >= 0) {
    due = std::min(due, busy + window(d));
  }
  if (const int d = lowest(c->stale, c->stale_bits); d >= 0) {
    due = std::min(due, busy + window(d + 1));
  }
  // No wake precedes the heap's first.
  if (c->at_limit > 0) due = std::min(due, heap(v)[0].at);
  return due;
}

void DisseminationProtocol::rewatch(std::uint32_t v) {
  NodeWakes& n = nodes_[v];
  if (n.size > 0) {
    net_.set_watch(net::NodeId{v}, heap(v)[0].at);
    return;
  }
  sim_.cancel(n.event);
  n.event = sim::EventHandle{};
  net_.set_watch(net::NodeId{v}, sim::TimePoint::max());
  if (n.capacity > 0) {
    const auto log = std::countr_zero(n.capacity);
    wakes_[n.base].order = free_runs_[log];
    free_runs_[log] = n.base;
    n.capacity = 0;
  }
  if (n.counts != kNone) {
    counts_[n.counts].next_free = free_counts_;
    free_counts_ = n.counts;
    n.counts = kNone;
  }
}

void DisseminationProtocol::wake_node_by(std::uint32_t v, sim::TimePoint at) {
  NodeWakes& n = nodes_[v];
  if (n.event.valid() && n.event_at <= at) return;
  sim_.cancel(n.event);
  n.event = sim_.at(at, [this, v] { on_node_event(v); });
  n.event_at = at;
}

DisseminationProtocol::WakeCounts* DisseminationProtocol::counts_of(std::uint32_t v) {
  if (nodes_[v].counts == kNone) return nullptr;
  WakeCounts& c = counts_[nodes_[v].counts];
  const sim::TimePoint busy = net_.channel_busy_until(net::NodeId{v});
  if (c.stamp != busy) {
    for (std::uint64_t bits = c.current_bits; bits != 0; bits &= bits - 1) {
      const auto d = static_cast<std::size_t>(std::countr_zero(bits));
      c.stale[d] += c.current[d];
      c.current[d] = 0;
    }
    c.stale[64] += c.current[64];
    c.current[64] = 0;
    c.stale_bits |= c.current_bits;
    c.current_bits = 0;
    c.stamp = busy;
  }
  return &c;
}

void DisseminationProtocol::start_counts(std::uint32_t v) {
  NodeWakes& n = nodes_[v];
  if (free_counts_ != kNone) {
    n.counts = free_counts_;
    free_counts_ = counts_[n.counts].next_free;
    counts_[n.counts] = WakeCounts{};
  } else {
    n.counts = static_cast<std::uint32_t>(counts_.size());
    counts_.emplace_back();
  }
  WakeCounts& c = counts_[n.counts];
  c.stamp = net_.channel_busy_until(net::NodeId{v});
  const Wake* h = heap(v);
  for (std::uint32_t i = 0; i < n.size; ++i) {
    tally(c, h[i].seen, parked_[h[i].timer].deferral->count, 1);
  }
}

void DisseminationProtocol::tally(WakeCounts& c, sim::TimePoint seen, int count,
                                  int delta) const {
  const auto d = static_cast<std::size_t>(std::min(count, 64));
  const bool current = seen == c.stamp;
  std::uint32_t& k = current ? c.current[d] : c.stale[d];
  std::uint64_t& bits = current ? c.current_bits : c.stale_bits;
  k += static_cast<std::uint32_t>(delta);
  if (d < 64) {
    if (k > 0) {
      bits |= std::uint64_t{1} << d;
    } else {
      bits &= ~(std::uint64_t{1} << d);
    }
  }
  if (count >= params_.timer_defer_limit) c.at_limit += static_cast<std::uint32_t>(delta);
}

void DisseminationProtocol::unpark(Deferral& deferral) {
  parked_[deferral.parked].slot = free_parked_;
  free_parked_ = deferral.parked;
  deferral.parked = Deferral::kNotParked;
}

void DisseminationProtocol::heap_push(std::uint32_t v, const Wake& w) {
  NodeWakes& n = nodes_[v];
  if (n.size == n.capacity) {
    // Move to a run twice as long, reusing a free one when there is one.
    const std::uint32_t capacity = n.capacity == 0 ? 2 : 2 * n.capacity;
    const auto log = std::countr_zero(capacity);
    std::uint32_t base = free_runs_[log];
    if (base != kNone) {
      free_runs_[log] = wakes_[base].order;
    } else {
      base = static_cast<std::uint32_t>(wakes_.size());
      wakes_.resize(wakes_.size() + capacity);
    }
    if (n.capacity > 0) {
      std::copy_n(wakes_.begin() + n.base, n.size, wakes_.begin() + base);
      const auto old_log = std::countr_zero(n.capacity);
      wakes_[n.base].order = free_runs_[old_log];
      free_runs_[old_log] = n.base;
    }
    n.base = base;
    n.capacity = capacity;
  }
  heap(v)[n.size] = w;
  sim::heap4::sift_up(heap(v), n.size, wakes_before, placed());
  ++n.size;
}

void DisseminationProtocol::heap_remove(std::uint32_t v, std::uint32_t pos) {
  sim::heap4::erase(heap(v), nodes_[v].size, pos, wakes_before, placed());
  --nodes_[v].size;
}

bool DisseminationProtocol::out_of_retries(net::NodeId self, net::DataId item, int attempts,
                                           bool& gave_up) {
  if (attempts < params_.max_retries) return false;
  if (!gave_up) {
    gave_up = true;
    ++given_up_;
    if (sim_.events().enabled()) {
      sim_.events().emit({.at = sim_.now(), .kind = obs::TraceKind::kGiveUp, .node = self,
                          .item = item, .value = static_cast<double>(attempts)});
    }
  }
  return true;
}

}  // namespace spms::core
