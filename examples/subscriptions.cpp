// Multi-stream service plane demo: two channels, four speakers, and the
// subscription directory that tracks who hears what.
//
// A CD-quality music channel and a phone-quality announcement channel play
// side by side. Speakers subscribe and unsubscribe at runtime — es-2 ends
// up hearing BOTH streams at once (mixed at its output stage), es-1 drops
// music mid-run, and es-3 starts silent and tunes in late. A zone routing
// policy briefly fences the announcement stream away to show the directory
// enforcing placement at subscribe time.
//
//   CreateChannel --> SubscriptionDirectory (name -> stream/group/codec)
//   SubscribeSpeaker("es-N", "name") --> zone policy check --> NIC join
//   RefreshDirectory + RenderWhoHearsWhat --> operations view
//
// Everything runs on the simulated clock, so the output is byte-identical
// across runs — ci/check.sh diffs it against a golden file.
#include <cstdio>

#include "src/core/system.h"
#include "src/obs/federation/fleet.h"
#include "src/obs/federation/render.h"

using namespace espk;

namespace {

void PrintWhoHearsWhat(EthernetSpeakerSystem* system, const char* when) {
  system->RefreshDirectory();
  std::printf("---- %s ----\n%s\n", when,
              system->directory()->RenderWhoHearsWhat().c_str());
}

}  // namespace

int main() {
  EthernetSpeakerSystem system;

  Channel* music = *system.CreateChannel("lobby-music");
  RebroadcasterOptions announce_rb;
  announce_rb.codec_override = CodecId::kRaw;
  Channel* announcements = *system.CreateChannel("announcements", announce_rb);
  std::printf("registered %zu streams: %s=group %u, %s=group %u\n\n",
              system.directory()->stream_count(), music->name.c_str(),
              music->group, announcements->name.c_str(),
              announcements->group);

  // es-0 and es-1 hear music from the start; es-2 hears music and will pick
  // up announcements too; es-3 is born unsubscribed.
  for (int i = 0; i < 4; ++i) {
    SpeakerOptions speaker_options;
    speaker_options.name = "es-" + std::to_string(i);
    speaker_options.decode_speed_factor = 0.05;
    if (i < 3) {
      (void)*system.AddSpeaker(speaker_options, music->group);
    } else {
      (void)*system.AddSpeaker(speaker_options);
    }
  }

  PlayerAppOptions music_options;
  music_options.config = AudioConfig::CdQuality();
  (void)*system.StartPlayer(music, std::make_unique<MusicLikeGenerator>(7),
                            music_options);
  PlayerAppOptions announce_options;
  announce_options.config = AudioConfig::PhoneQuality();
  announce_options.chunk_frames = 800;
  (void)*system.StartPlayer(announcements,
                            std::make_unique<SpeechLikeGenerator>(8),
                            announce_options);

  system.RunUntil(Seconds(4));
  PrintWhoHearsWhat(&system, "t=4s: initial bindings");

  // Fence announcements to zone 1 only: this one-zone system places every
  // speaker in zone 0, so the subscribe is refused.
  (void)system.directory()->SetZonePolicy("announcements", {1});
  Status denied = system.SubscribeSpeaker(2, "announcements");
  std::printf("subscribe es-2 under zone policy {1}: %s\n",
              denied.ToString().c_str());
  (void)system.directory()->SetZonePolicy("announcements", {});

  // Runtime churn: es-2 adds announcements on top of music (mixed at its
  // output), es-3 tunes in late, es-1 drops music entirely.
  (void)system.SubscribeSpeaker(2, "announcements");
  (void)system.SubscribeSpeaker(3, "announcements");
  (void)system.UnsubscribeSpeaker(1, "lobby-music");
  std::printf("churn applied: es-2 += announcements, es-3 += announcements, "
              "es-1 -= lobby-music\n\n");

  system.RunUntil(Seconds(8));
  PrintWhoHearsWhat(&system, "t=8s: after churn");

  // The overlapping speaker really is playing both streams at once.
  EthernetSpeaker* es2 = system.speakers()[2].get();
  std::printf("es-2 sessions: music chunks=%llu, announce chunks=%llu, "
              "mix window peak nonzero=%s\n\n",
              static_cast<unsigned long long>(
                  es2->session(music->group)->stats().chunks_played),
              static_cast<unsigned long long>(
                  es2->session(announcements->group)->stats().chunks_played),
              [es2] {
                std::vector<float> mix =
                    es2->RenderMix(Seconds(6), Seconds(1));
                for (float s : mix) {
                  if (s != 0.0f) {
                    return "yes";
                  }
                }
                return "no";
              }());

  // The who-hears-what view rides the fleet dashboard as an extra section.
  FleetPlane plane(&system);
  plane.Start();
  system.RunUntil(Seconds(10));
  system.RefreshDirectory();
  DashboardOptions dashboard;
  dashboard.queries = {"sum(speaker.chunks_played{station=\"es-*\"})"};
  dashboard.sections.push_back(
      {"who hears what", system.directory()->RenderWhoHearsWhat()});
  std::printf("%s", RenderFleetDashboard(*plane.store(), system.now(),
                                         dashboard)
                        .c_str());
  return 0;
}
