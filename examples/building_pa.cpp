// Campus public-address scenario — the deployment that motivated the paper
// ("using an existing network infrastructure may allow the deployment of
// large scale public address systems at low cost", §1), plus both future-
// work features built on it:
//
//  * twelve Ethernet Speakers across four building zones play background
//    music from one producer;
//  * each speaker runs ambient-noise auto volume (§5.2) — the cafeteria is
//    loud at lunch, the library is quiet;
//  * at t=20s the front desk makes a live announcement: the management
//    console overrides every speaker onto the announcement channel (§5.3),
//    then restores the music afterwards.
#include <cstdio>

#include "src/core/system.h"
#include "src/mgmt/agent.h"
#include "src/speaker/auto_volume.h"

using namespace espk;

namespace {

struct Zone {
  const char* name;
  int speakers;
  // Ambient noise RMS by simulated time.
  double (*ambient)(double t);
};

double QuietLibrary(double /*t*/) { return 0.002; }
double Office(double /*t*/) { return 0.01; }
double Hallway(double /*t*/) { return 0.02; }
double Cafeteria(double t) {
  // Lunch rush builds after t=10s.
  return t < 10.0 ? 0.02 : 0.08;
}

}  // namespace

int main() {
  EthernetSpeakerSystem system;

  // Channels: background music (CD quality, compressed) and announcements
  // (voice quality, raw — §2.2 selective compression does this on its own).
  Channel* music = *system.CreateChannel("background-music");
  Channel* pa = *system.CreateChannel("announcements");

  PlayerAppOptions music_opts;
  music_opts.config = AudioConfig::CdQuality();
  (void)*system.StartPlayer(music, std::make_unique<MusicLikeGenerator>(21),
                            music_opts);

  const Zone zones[] = {
      {"library", 2, QuietLibrary},
      {"offices", 4, Office},
      {"hallways", 3, Hallway},
      {"cafeteria", 3, Cafeteria},
  };

  std::vector<EthernetSpeaker*> speakers;
  std::vector<std::unique_ptr<SpeakerAgent>> agents;
  std::vector<std::unique_ptr<AutoVolumeController>> volume_controllers;
  for (const Zone& zone : zones) {
    for (int i = 0; i < zone.speakers; ++i) {
      SpeakerOptions so;
      so.name = std::string(zone.name) + "-" + std::to_string(i);
      so.decode_speed_factor = 0.25;  // EON-4000-class hardware.
      EthernetSpeaker* speaker = *system.AddSpeaker(so, music->group);
      speakers.push_back(speaker);
      agents.push_back(std::make_unique<SpeakerAgent>(
          system.sim(), system.NicOf(speaker), speaker));
      auto ambient = zone.ambient;
      AutoVolumeOptions av;
      av.mode = VolumeMode::kBackgroundMusic;
      volume_controllers.push_back(std::make_unique<AutoVolumeController>(
          speaker,
          [ambient](SimTime t) { return ambient(ToSecondsF(t)); }, av));
      volume_controllers.back()->Start();
    }
  }

  // Management console on its own station.
  auto console_nic = system.lan()->CreateNic();
  MgmtConsole console(system.sim(), console_nic.get());

  // Phase 1: music everywhere, auto-volume settles per zone.
  system.RunUntil(Seconds(18));
  std::printf("t=18s: background music, auto-volume settled per zone\n");
  for (size_t z = 0, s = 0; z < 4; ++z) {
    std::printf("  %-10s gains:", zones[z].name);
    for (int i = 0; i < zones[z].speakers; ++i, ++s) {
      std::printf(" %.2f", speakers[s]->gain());
    }
    std::printf("   (ambient rms %.3f)\n",
                zones[z].ambient(ToSecondsF(system.sim()->now())));
  }

  // Phase 2: live announcement overrides every speaker (§5.3).
  std::printf("\nt=20s: front desk announcement — console overrides all\n");
  system.RunUntil(Seconds(20));
  PlayerAppOptions pa_opts;
  pa_opts.config = AudioConfig::PhoneQuality();
  pa_opts.chunk_frames = 800;
  pa_opts.total_frames = 8000 * 8;  // An eight-second announcement.
  (void)*system.StartPlayer(pa, std::make_unique<SpeechLikeGenerator>(22),
                            pa_opts);
  console.OverrideAll(pa->group);
  for (auto& controller : volume_controllers) {
    controller->set_mode(VolumeMode::kAnnouncement);
  }
  system.RunUntil(Seconds(24));
  int on_pa = 0;
  for (EthernetSpeaker* speaker : speakers) {
    on_pa += speaker->tuned_group().value_or(0) == pa->group ? 1 : 0;
  }
  std::printf("  %d/12 speakers on the announcement channel\n", on_pa);

  // Phase 3: announcement over, restore the music.
  system.RunUntil(Seconds(30));
  console.RestoreAll();
  for (auto& controller : volume_controllers) {
    controller->set_mode(VolumeMode::kBackgroundMusic);
  }
  system.RunUntil(Seconds(40));
  int back_on_music = 0;
  for (EthernetSpeaker* speaker : speakers) {
    back_on_music +=
        speaker->tuned_group().value_or(0) == music->group ? 1 : 0;
  }
  std::printf("\nt=40s: announcement over — %d/12 speakers back on music\n",
              back_on_music);

  auto sync = system.MeasureSync(Seconds(38), Seconds(1), Milliseconds(50),
                                 /*all_pairs=*/false);
  std::printf("sync check after all the switching: max skew %.3f ms over %d "
              "pairs\n",
              sync.max_skew_seconds * 1000.0, sync.speaker_pairs);
  bool ok = on_pa == 12 && back_on_music == 12 && sync.max_skew_seconds == 0;
  std::printf("\nbuilding_pa %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
