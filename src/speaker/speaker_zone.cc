#include "src/speaker/speaker_zone.h"

#include <utility>

namespace espk {

int SpeakerZone::AddSpeaker(SimNic* nic, EthernetSpeaker* speaker) {
  members_.push_back(Member{nic, speaker});
  return static_cast<int>(members_.size()) - 1;
}

void SpeakerZone::DeliverBatch(const Datagram& datagram,
                               std::vector<ZoneDeliveryEntry> entries) {
  // Parse ONCE for the whole zone. ParsePacket is a pure function of the
  // payload bytes, so every member sees the same result a parse of its own
  // would have produced.
  Result<ParsedPacket> parsed = ParsePacket(datagram.payload);
  const SimTime now = sim_->now();
  std::vector<DecodeJob> jobs;
  jobs.reserve(entries.size());
  for (const ZoneDeliveryEntry& entry : entries) {
    const Member& member = members_[static_cast<size_t>(entry.member)];
    if (entry.arrival <= now) {
      Ingest(member, datagram, parsed, &jobs);
      continue;
    }
    // Jitter pushed this member's arrival past the batch instant: fall back
    // to one event for it, still reusing the shared parse and payload.
    sim_->ScheduleAt(entry.arrival,
                     [this, index = entry.member, datagram, parsed] {
                       std::vector<DecodeJob> late_jobs;
                       Ingest(members_[static_cast<size_t>(index)], datagram,
                              parsed, &late_jobs);
                       scheduler_.ScheduleDecodes(std::move(late_jobs));
                     });
  }
  scheduler_.ScheduleDecodes(std::move(jobs));
}

void SpeakerZone::Ingest(const Member& member, const Datagram& datagram,
                         const Result<ParsedPacket>& parsed,
                         std::vector<DecodeJob>* jobs) {
  StreamSession* session = member.speaker->session(datagram.group);
  if (session == nullptr) {
    member.nic->HandleArrival(datagram);
    return;
  }
  member.nic->NoteZoneDelivery(datagram.payload.size());
  PendingDecode pending;
  member.speaker->IngestParsed(parsed, session, &pending);
  if (pending.valid) {
    jobs->push_back(DecodeJob{member.speaker, std::move(pending)});
  }
}

}  // namespace espk
