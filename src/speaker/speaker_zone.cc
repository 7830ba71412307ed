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
  std::vector<PipelineJob> jobs;
  jobs.reserve(entries.size());
  std::optional<uint32_t> slot;
  for (const ZoneDeliveryEntry& entry : entries) {
    const Member& member = members_[static_cast<size_t>(entry.member)];
    if (entry.arrival <= now) {
      Ingest(member, datagram, parsed, &jobs);
      continue;
    }
    // Jitter pushed this member's arrival past the batch instant: fall back
    // to one event for it, still reusing the shared parse and payload.
    if (!slot.has_value()) {
      slot = ParkDeferred(datagram, parsed);
    }
    ++deferred_[*slot].waiting;
    sim_->ScheduleAt(entry.arrival, [this, slot = *slot, index = entry.member] {
      RunDeferred(slot, index);
    });
  }
  ScheduleDecodes(parsed, std::move(jobs));
}

uint32_t SpeakerZone::ParkDeferred(const Datagram& datagram,
                                   const Result<ParsedPacket>& parsed) {
  uint32_t slot = 0;
  if (free_deferred_.empty()) {
    slot = static_cast<uint32_t>(deferred_.size());
    deferred_.emplace_back();
  } else {
    slot = free_deferred_.back();
    free_deferred_.pop_back();
  }
  deferred_[slot].datagram = datagram;
  deferred_[slot].parsed = parsed;
  return slot;
}

void SpeakerZone::RunDeferred(uint32_t slot, int member) {
  Deferred& batch = deferred_[slot];
  std::vector<PipelineJob> jobs;
  Ingest(members_[static_cast<size_t>(member)], batch.datagram, *batch.parsed,
         &jobs);
  ScheduleDecodes(*batch.parsed, std::move(jobs));
  if (--batch.waiting == 0) {
    // Release the payload now rather than when the slot is next reused.
    batch.datagram = Datagram();
    batch.parsed.reset();
    free_deferred_.push_back(slot);
  }
}

void SpeakerZone::Ingest(const Member& member, const Datagram& datagram,
                         const Result<ParsedPacket>& parsed,
                         std::vector<PipelineJob>* jobs) {
  StreamSession* session = member.speaker->session(datagram.group);
  if (session == nullptr) {
    member.nic->HandleArrival(datagram);
    return;
  }
  member.nic->NoteZoneDelivery();
  PipelineJob job;
  if (member.speaker->IngestParsed(parsed, session, &job)) {
    jobs->push_back(job);
  }
}

void SpeakerZone::ScheduleDecodes(const Result<ParsedPacket>& parsed,
                                  std::vector<PipelineJob> jobs) {
  if (jobs.empty()) {
    return;
  }
  // Admitted jobs mean the parse holds a data packet: the group carries it
  // once for every member.
  const auto& data = std::get<DataPacket>(parsed->packet);
  scheduler_.ScheduleDecodes(
      DecodeGroup{data.stream_id, data.seq, data.payload, std::move(jobs)});
}

}  // namespace espk
