#include "core/collector.hpp"

namespace spms::core {

void Collector::record_publish(net::DataId item, sim::TimePoint at, std::size_t expected) {
  if (!published_at_.try_emplace(item, at).second) return;  // double publish: ignore
  expected_ += expected;
}

double Collector::record_delivery(net::NodeId /*node*/, net::DataId item, sim::TimePoint at) {
  const sim::TimePoint* published_at = published_at_.find(item);
  if (published_at == nullptr) {
    ++unknown_;
    return -1.0;
  }
  ++delivered_;
  const double delay_ms_sample = (at - *published_at).to_ms();
  delay_.add(delay_ms_sample);
  delay_pct_.add(delay_ms_sample);
  return delay_ms_sample;
}

double Collector::delivery_ratio() const {
  if (expected_ == 0) return 1.0;
  return static_cast<double>(delivered_) / static_cast<double>(expected_);
}

}  // namespace spms::core
