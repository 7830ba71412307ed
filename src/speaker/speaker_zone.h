// SpeakerZone: one shard's batch receiver — the way every speaker of an
// EthernetSpeakerSystem receives, whether the system has one zone or many.
//
// Delivering to speakers one by one would cost one scheduled event + one
// packet parse per speaker per packet. A zone collapses that to per-PACKET
// cost: the segment hands the zone ONE message carrying the shared payload
// slice and a member list (src/lan/segment.h ZoneSink); the zone parses
// once, runs every member's admission stage inline, and hands the admitted
// members' jobs, with the packet carried once, to its PipelineScheduler
// (src/speaker/speaker.h), which schedules ONE event per distinct
// decode-completion instant and ONE per distinct playout instant for the
// whole zone. On a symmetric fleet (same codec config, idle
// pipelines) those instants coincide across members, so a 1000-speaker
// zone rides three events per packet instead of three thousand. The
// scheduler also decodes each packet once for every member whose session
// decodes it with the same parameters, and they all play that one PCM
// block.
//
// A zone is NOT one stream: the segment filters each transmission by group
// membership before batching, so a batch's entry list is exactly the
// (group -> member-speaker subset) of this zone subscribed to the packet's
// group, and each member routes the parse result to its own per-group
// StreamSession. A datagram for a group the member has no session on —
// management or announce traffic for a component sharing the speaker's
// NIC, or stale audio after a leave — goes to the NIC's receive handler
// instead, exactly as the segment delivers to NICs outside a zone.
//
// Such components must live on the zone's shard: a handler runs there, so
// on a multi-zone system an agent on a speaker outside zone 0 would run on
// one shard and transmit through the segment's (zone 0's). That is not
// supported; put management agents on zone-0 speakers.
#ifndef SRC_SPEAKER_SPEAKER_ZONE_H_
#define SRC_SPEAKER_SPEAKER_ZONE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/lan/segment.h"
#include "src/proto/wire.h"
#include "src/sim/simulation.h"
#include "src/speaker/speaker.h"

namespace espk {

class SpeakerZone : public ZoneSink {
 public:
  explicit SpeakerZone(Simulation* sim) : sim_(sim), scheduler_(sim) {}

  // Registers a member and returns its index (the `member` tag the segment
  // stamps on deliveries via AssignZone). The zone borrows both pointers;
  // the caller keeps them alive for the zone's lifetime.
  int AddSpeaker(SimNic* nic, EthernetSpeaker* speaker);
  size_t size() const { return members_.size(); }

  // ZoneSink: runs on this zone's shard at the batch's earliest arrival.
  void DeliverBatch(const Datagram& datagram,
                    std::vector<ZoneDeliveryEntry> entries) override;

 private:
  struct Member {
    SimNic* nic = nullptr;
    EthernetSpeaker* speaker = nullptr;
  };

  // A batch some of whose members' jittered arrivals fall after the batch
  // instant, parked until the last of their arrival events has run. Each
  // such event captures only (zone, slot, member), which std::function
  // stores inline, so the batch's datagram and parse are copied once, not
  // once per late member.
  struct Deferred {
    Datagram datagram;
    std::optional<Result<ParsedPacket>> parsed;
    uint32_t waiting = 0;  // Arrival events still to run.
  };

  // One member's arrival: admission (appending the decode job, if any, to
  // `jobs`), or the NIC's receive handler when the member has no session
  // for the group.
  void Ingest(const Member& member, const Datagram& datagram,
              const Result<ParsedPacket>& parsed,
              std::vector<PipelineJob>* jobs);
  // Hands the admitted jobs to the scheduler in one group carrying the
  // parsed data packet.
  void ScheduleDecodes(const Result<ParsedPacket>& parsed,
                       std::vector<PipelineJob> jobs);
  uint32_t ParkDeferred(const Datagram& datagram,
                        const Result<ParsedPacket>& parsed);
  // A late member's arrival event.
  void RunDeferred(uint32_t slot, int member);

  Simulation* sim_;
  PipelineScheduler scheduler_;
  std::vector<Member> members_;
  std::vector<Deferred> deferred_;
  std::vector<uint32_t> free_deferred_;
};

}  // namespace espk

#endif  // SRC_SPEAKER_SPEAKER_ZONE_H_
