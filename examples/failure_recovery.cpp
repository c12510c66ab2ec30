/// \file failure_recovery.cpp
/// Walk-through of SPMS's fault tolerance on the paper's Section 3.5
/// topology (source A, relays r1/r2, destination C in a line).  We crash r2
/// right after it advertises the data — the paper's "failure case 2" — and
/// print the protocol's trace: C first requests its PRONE (r2), times out,
/// and recovers by pulling from the SCONE (r1) directly at a higher power.
///
/// Run:  ./failure_recovery

#include <iomanip>
#include <iostream>

#include "core/collector.hpp"
#include "core/spms.hpp"
#include "net/network.hpp"
#include "obs/event_trace.hpp"
#include "routing/bellman_ford.hpp"
#include "sim/simulation.hpp"

int main() {
  using namespace spms;

  sim::Simulation sim{7};
  // A -- 5 m -- r1 -- 5 m -- r2 -- 5 m -- C, all in one 16 m zone.
  net::MacParams mac;
  mac.num_slots = 1;  // deterministic demo: no random backoff
  net::Network net(sim, net::RadioTable::mica2(), mac, {},
                   {{0, 0}, {5, 0}, {10, 0}, {15, 0}}, 16.0);
  routing::RoutingService routing(net);

  core::AllToAllInterest interest(net.size());
  core::SpmsProtocol spms(sim, net, routing, interest, core::ProtocolParams{});

  core::Collector collector;
  spms.set_delivery_callback([&](net::NodeId node, net::DataId item, sim::TimePoint at) {
    collector.record_delivery(node, item, at);
  });

  bool crash_armed = true;
  sim.events().set_sink([&](const obs::TraceRecord& r) {
    const auto line = obs::format_legacy(r);
    if (!line) return;
    std::cout << "  [" << std::setw(7) << std::fixed << std::setprecision(3) << r.at.to_ms()
              << " ms] " << line->message << "\n";
    // Crash r2 as soon as C's direct REQ to it is in the air (failure case 2).
    if (crash_armed && line->message.rfind("req-direct n3 n0#0 to n2", 0) == 0) {
      crash_armed = false;
      sim.after(sim::Duration::ms(0.05), [&] {
        std::cout << "  >>> r2 crashes (transient failure) <<<\n";
        net.set_up(net::NodeId{2}, false);
      });
    }
  });

  std::cout << "SPMS failure-recovery demo (paper Section 3.5, case 2)\n"
            << "topology: A --5m-- r1 --5m-- r2 --5m-- C, zone radius 16 m\n"
            << "node ids: A=n0  r1=n1  r2=n2  C=n3\n\n";

  const net::DataId item{net::NodeId{0}, 0};
  collector.record_publish(item, sim.now(), interest.expected_count(item));
  spms.publish(net::NodeId{0}, item);
  sim.run();

  std::cout << "\noutcome: " << collector.deliveries() << "/" << collector.expected_deliveries()
            << " deliveries despite the relay crash"
            << " (C's delay includes one tau_DAT recovery)\n"
            << "mean delay: " << collector.delay_ms().mean() << " ms, max "
            << collector.delay_ms().max() << " ms\n";
  return collector.all_delivered() ? 0 : 1;
}
