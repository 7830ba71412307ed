// Quickstart: the smallest complete Ethernet Speaker deployment.
//
// One producer machine runs an unmodified audio application that plays a
// tone into what it believes is the sound card — actually the slave side of
// a Virtual Audio Device. The Audio Stream Rebroadcaster reads the master
// side, rate-limits to real time, compresses, and multicasts onto the LAN.
// Three Ethernet Speakers tune in (one of them late) and play in perfect
// sync.
//
//   player app -> /dev/vads0 -> kernel pump -> /dev/vadm0
//              -> rebroadcaster -> multicast LAN -> 3x Ethernet Speaker
#include <cstdio>

#include "src/audio/analysis.h"
#include "src/core/system.h"

using namespace espk;

int main() {
  EthernetSpeakerSystem system;

  // 1. Create a channel: VAD pair + rebroadcaster on multicast group.
  Channel* channel = *system.CreateChannel("quickstart");
  std::printf("channel '%s': app device %s, multicast group %u\n",
              channel->name.c_str(), channel->slave_path.c_str(),
              channel->group);

  // 2. Two speakers tune in before the music starts.
  SpeakerOptions speaker_options;
  speaker_options.decode_speed_factor = 0.1;
  speaker_options.name = "es-hallway";
  EthernetSpeaker* hallway =
      *system.AddSpeaker(speaker_options, channel->group);
  speaker_options.name = "es-lobby";
  EthernetSpeaker* lobby = *system.AddSpeaker(speaker_options, channel->group);

  // 3. An off-the-shelf player app starts playing CD-quality audio. It has
  // no idea the "sound card" is virtual.
  PlayerAppOptions player_options;
  player_options.config = AudioConfig::CdQuality();
  PlayerApp* player = *system.StartPlayer(
      channel, std::make_unique<MusicLikeGenerator>(7), player_options);

  // 4. Run five seconds, then a third speaker joins mid-stream — no
  // producer involvement, it just waits for the next control packet.
  system.RunUntil(Seconds(5));
  speaker_options.name = "es-cafeteria";
  EthernetSpeaker* cafeteria =
      *system.AddSpeaker(speaker_options, channel->group);
  system.RunUntil(Seconds(12));

  // 5. Report.
  std::printf("\nafter 12 simulated seconds:\n");
  for (EthernetSpeaker* speaker : {hallway, lobby, cafeteria}) {
    const SpeakerStats& stats = speaker->stats();
    std::printf(
        "  %-13s control=%llu data=%llu played=%llu late_drops=%llu "
        "gaps=%d\n",
        speaker->name().c_str(),
        static_cast<unsigned long long>(stats.control_packets),
        static_cast<unsigned long long>(stats.data_packets),
        static_cast<unsigned long long>(stats.chunks_played),
        static_cast<unsigned long long>(stats.late_drops),
        speaker->ready() ? speaker->output()->CountGaps(Milliseconds(5)) : -1);
  }

  auto sync = system.MeasureSync(Seconds(8), Seconds(1), Milliseconds(50));
  std::printf(
      "\nsync across %d speaker pairs: max skew %.3f ms, min correlation "
      "%.4f\n",
      sync.speaker_pairs, sync.max_skew_seconds * 1000.0,
      sync.min_correlation);
  std::printf("producer sent %llu data packets (%s codec), app wrote %lld "
              "frames\n",
              static_cast<unsigned long long>(
                  channel->rebroadcaster->stats().data_packets),
              channel->rebroadcaster->compressing() ? "vorbix" : "raw",
              static_cast<long long>(player->frames_written()));
  std::printf("\nquickstart OK: %s\n",
              sync.max_skew_seconds == 0.0 ? "all speakers sample-aligned"
                                           : "speakers NOT aligned");
  return sync.max_skew_seconds == 0.0 ? 0 : 1;
}
