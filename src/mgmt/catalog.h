// Out-of-band channel catalog, adopted from StarBurst MFTP (§4.3): the
// producer announces "information about the audio streams that are being
// transmitted" on a well-known group, so "the user can see which programs
// are being multicast, rather than having to switch channels to monitor the
// audio transmissions". The announcer also notices when a channel has no
// material and can suspend it (the MSNIP idea, simulated via listener
// reports the paper could not deploy).
#ifndef SRC_MGMT_CATALOG_H_
#define SRC_MGMT_CATALOG_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/lan/transport.h"
#include "src/proto/wire.h"
#include "src/sim/simulation.h"

namespace espk {

// Producer side: periodically multicasts the current channel list on
// kAnnounceGroup.
class AnnounceService {
 public:
  AnnounceService(Simulation* sim, Transport* nic,
                  SimDuration interval = Seconds(2));

  void SetEntries(std::vector<AnnounceEntry> entries);
  void Start() { task_.Start(/*fire_immediately=*/true); }
  void Stop() { task_.Stop(); }

 private:
  void Tick(SimTime now);

  Simulation* sim_;
  Transport* nic_;
  std::vector<AnnounceEntry> entries_;
  PeriodicTask task_;
};

// Speaker/UI side: listens on kAnnounceGroup and keeps the program guide.
class CatalogBrowser {
 public:
  CatalogBrowser(Simulation* sim, Transport* nic);

  // Entries seen recently (entries older than `max_age` are expired — a
  // channel that stops being announced disappears from the guide).
  std::vector<AnnounceEntry> Channels(SimDuration max_age = Seconds(10)) const;

  // Looks up a channel by name.
  Result<AnnounceEntry> Find(const std::string& name,
                             SimDuration max_age = Seconds(10)) const;

  // For components that share the NIC and chain receive handlers.
  void HandleDatagram(const Datagram& datagram) { OnDatagram(datagram); }

 private:
  void OnDatagram(const Datagram& datagram);

  Simulation* sim_;
  Transport* nic_;
  struct TimedEntry {
    AnnounceEntry entry;
    SimTime last_seen;
  };
  std::map<uint32_t, TimedEntry> entries_;  // By stream id.
};

}  // namespace espk

#endif  // SRC_MGMT_CATALOG_H_
