#include "src/mgmt/catalog.h"

namespace espk {

AnnounceService::AnnounceService(Simulation* sim, Transport* nic,
                                 SimDuration interval)
    : sim_(sim),
      nic_(nic),
      task_(sim, interval, [this](SimTime now) { Tick(now); }) {}

void AnnounceService::SetEntries(std::vector<AnnounceEntry> entries) {
  entries_ = std::move(entries);
}

void AnnounceService::Tick(SimTime now) {
  AnnouncePacket packet;
  packet.producer_clock = now;
  packet.entries = entries_;
  (void)nic_->SendMulticast(kAnnounceGroup, SerializePacket(packet));
}

CatalogBrowser::CatalogBrowser(Simulation* sim, Transport* nic)
    : sim_(sim), nic_(nic) {
  (void)nic_->JoinGroup(kAnnounceGroup);
  nic_->SetReceiveHandler([this](const Datagram& d) { OnDatagram(d); });
}

void CatalogBrowser::OnDatagram(const Datagram& datagram) {
  if (datagram.group != kAnnounceGroup) {
    return;
  }
  Result<ParsedPacket> parsed = ParsePacket(datagram.payload);
  if (!parsed.ok()) {
    return;
  }
  const auto* announce = std::get_if<AnnouncePacket>(&parsed->packet);
  if (announce == nullptr) {
    return;
  }
  for (const AnnounceEntry& entry : announce->entries) {
    entries_[entry.stream_id] = TimedEntry{entry, sim_->now()};
  }
}

std::vector<AnnounceEntry> CatalogBrowser::Channels(
    SimDuration max_age) const {
  std::vector<AnnounceEntry> out;
  for (const auto& [id, timed] : entries_) {
    if (sim_->now() - timed.last_seen <= max_age) {
      out.push_back(timed.entry);
    }
  }
  return out;
}

Result<AnnounceEntry> CatalogBrowser::Find(const std::string& name,
                                           SimDuration max_age) const {
  for (const auto& [id, timed] : entries_) {
    if (timed.entry.name == name &&
        sim_->now() - timed.last_seen <= max_age) {
      return timed.entry;
    }
  }
  return NotFoundError("no channel named '" + name + "' in the catalog");
}

}  // namespace espk
