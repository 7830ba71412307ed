// One-call wiring for the distributed telemetry plane over an assembled
// EthernetSpeakerSystem: gives every station a scrape agent (default
// ScrapeAgentOptions) on its own NIC, attaches a FleetCollector on a
// console NIC, and registers the system-wide registry as the local
// "console" station. After Start(), the collector
// pulls every station's registry across the simulated LAN each cycle and
// the store answers queries / renders the dashboard.
//
//                      (simulated Ethernet segment)
//   es-0 [registry]--ScrapeAgent--+
//   es-1 [registry]--ScrapeAgent--+--kScrape/kScrapeChunk--FleetCollector
//   rb-1 [registry]--ScrapeAgent--+                            |
//   console [system registry]--------------local ingest--> FleetStore
//                                                               |
//                                            query engine / exposition /
//                                                  dashboard renderer
#ifndef SRC_OBS_FEDERATION_FLEET_H_
#define SRC_OBS_FEDERATION_FLEET_H_

#include <memory>
#include <vector>

#include "src/core/system.h"
#include "src/mgmt/scrape.h"
#include "src/obs/federation/collector.h"

namespace espk {

class FleetPlane {
 public:
  // Wires every station the system has created SO FAR — build the fleet
  // plane after the channels and speakers. `system` must outlive it.
  explicit FleetPlane(EthernetSpeakerSystem* system);

  FleetPlane(const FleetPlane&) = delete;
  FleetPlane& operator=(const FleetPlane&) = delete;

  void Start() { collector_->Start(); }
  void Stop() { collector_->Stop(); }

  FleetCollector* collector() { return collector_.get(); }
  FleetStore* store() { return collector_->store(); }
  const std::vector<std::unique_ptr<ScrapeAgent>>& agents() const {
    return agents_;
  }

 private:
  EthernetSpeakerSystem* system_;
  std::vector<std::unique_ptr<SimNic>> agent_nics_;
  std::vector<std::unique_ptr<ScrapeAgent>> agents_;
  std::unique_ptr<SimNic> collector_nic_;
  std::unique_ptr<FleetCollector> collector_;
};

}  // namespace espk

#endif  // SRC_OBS_FEDERATION_FLEET_H_
