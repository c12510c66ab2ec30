#include "net/mobility.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace spms::net {

MobilityProcess::MobilityProcess(sim::Simulation& sim, Network& net, MobilityParams params,
                                 double field_side_m, std::uint64_t stream)
    : sim_(sim), net_(net), params_(params), field_side_m_(field_side_m),
      rng_(sim.rng().fork(stream)) {}

void MobilityProcess::start(sim::TimePoint horizon) {
  horizon_ = horizon;
  const auto first = sim_.now() + params_.epoch_interval;
  if (first <= horizon_) sim_.at(first, [this] { epoch(); });
}

void MobilityProcess::epoch() {
  ++epochs_;
  const auto n = net_.size();
  const auto movers =
      std::max<std::size_t>(1, static_cast<std::size_t>(std::llround(params_.move_fraction * static_cast<double>(n))));

  // Choose `movers` distinct nodes by shuffling the id universe.
  std::vector<std::uint32_t> ids(n);
  for (std::uint32_t i = 0; i < n; ++i) ids[i] = i;
  rng_.shuffle(ids);
  for (std::size_t i = 0; i < movers; ++i) {
    const Point dest{rng_.uniform(0.0, field_side_m_), rng_.uniform(0.0, field_side_m_)};
    net_.set_position(NodeId{ids[i]}, dest);
    ++moves_;
  }
  if (on_moved_) on_moved_();

  const auto next = sim_.now() + params_.epoch_interval;
  if (next <= horizon_) sim_.at(next, [this] { epoch(); });
}

}  // namespace spms::net
