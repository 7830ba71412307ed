// Internet-radio rebroadcast — Figure 1 end to end, plus the MFTP-style
// catalog (§4.3) and time shifting (§2.1):
//
//  * a "Real Audio server" on the simulated WAN streams to the gateway;
//  * the gateway's streaming client plays into a VAD; the rebroadcaster
//    multicasts the single WAN stream to the whole LAN;
//  * the producer announces its channels on the catalog group; a speaker
//    browses the guide and tunes by channel *name*;
//  * a time-shifting recorder (just another master-side consumer use case)
//    captures what the speaker played into a WAV file.
#include <cstdio>

#include "src/audio/wav.h"
#include "src/core/system.h"
#include "src/mgmt/catalog.h"
#include "src/rebroadcast/wan.h"
#include "src/speaker/recorder.h"

using namespace espk;

int main() {
  EthernetSpeakerSystem system;

  // The WAN: a 10 Mbps uplink between the campus and the Internet.
  SegmentConfig wan_config;
  wan_config.bandwidth_bps = 10e6;
  EthernetSegment wan(system.sim(), wan_config);
  auto radio_server_nic = wan.CreateNic();
  auto gateway_wan_nic = wan.CreateNic();

  // LAN channels: the WAN rebroadcast plus a locally-sourced channel.
  Channel* internet = *system.CreateChannel("internet-radio");
  Channel* local = *system.CreateChannel("campus-jazz");

  // The Internet radio station streams CD audio to its one subscriber: our
  // gateway.
  WanAudioServer radio(system.sim(), radio_server_nic.get(),
                       AudioConfig::CdQuality(),
                       std::make_unique<MusicLikeGenerator>(31));
  radio.AddListener(gateway_wan_nic->node_id());
  GatewayPlayer gateway(system.kernel(), system.NewPid(),
                        internet->slave_path, gateway_wan_nic.get(),
                        AudioConfig::CdQuality());
  if (Status s = gateway.Start(); !s.ok()) {
    std::printf("gateway failed: %s\n", s.ToString().c_str());
    return 1;
  }
  radio.Start();

  // The local channel has its own player app.
  PlayerAppOptions local_opts;
  local_opts.config = AudioConfig::CdQuality();
  (void)*system.StartPlayer(local, std::make_unique<MusicLikeGenerator>(32),
                            local_opts);

  // The producer announces both channels on the catalog group (§4.3).
  auto announce_nic = system.lan()->CreateNic();
  AnnounceService announcements(system.sim(), announce_nic.get());
  std::vector<AnnounceEntry> guide;
  for (Channel* channel : {internet, local}) {
    AnnounceEntry entry;
    entry.stream_id = channel->stream_id;
    entry.group = channel->group;
    entry.name = channel->name;
    entry.config = AudioConfig::CdQuality();
    entry.codec = CodecId::kVorbix;
    guide.push_back(entry);
  }
  announcements.SetEntries(guide);
  announcements.Start();

  // A speaker consults the program guide and tunes by name — "the user can
  // see which programs are being multicast, rather than having to switch
  // channels to monitor the audio transmissions."
  SpeakerOptions so;
  so.name = "es-lounge";
  so.decode_speed_factor = 0.1;
  EthernetSpeaker* speaker = *system.AddSpeaker(so);
  CatalogBrowser browser(system.sim(), system.NicOf(speaker));
  // The browser took over the NIC handler; forward audio to the speaker.
  system.NicOf(speaker)->SetReceiveHandler([&](const Datagram& d) {
    if (d.group == kAnnounceGroup) {
      browser.HandleDatagram(d);
    } else {
      speaker->HandleDatagram(d);
    }
  });

  // A dedicated recorder station time-shifts the internet channel from the
  // start — "time-shifting Internet radio transmissions" (§3.3).
  auto recorder_nic = system.lan()->CreateNic();
  StreamRecorder recorder(system.sim(), recorder_nic.get());
  (void)recorder.StartRecording(internet->group);

  system.RunUntil(Seconds(3));
  auto channels = browser.Channels();
  std::printf("program guide after 3 s (%zu channels):\n", channels.size());
  for (const AnnounceEntry& entry : channels) {
    std::printf("  stream %u '%s' on group %u, %s/%s\n", entry.stream_id,
                entry.name.c_str(), entry.group,
                entry.config.ToString().c_str(),
                std::string(CodecIdName(entry.codec)).c_str());
  }

  Result<AnnounceEntry> pick = browser.Find("internet-radio");
  if (!pick.ok()) {
    std::printf("channel not in guide: %s\n", pick.status().ToString().c_str());
    return 1;
  }
  (void)speaker->Tune(pick->group);
  std::printf("\ntuned '%s' (group %u) from the guide\n", pick->name.c_str(),
              pick->group);

  system.RunUntil(Seconds(13));
  std::printf("after 10 s listening: %llu chunks played, %llu late drops, "
              "WAN load %.2f Mbps for the whole LAN\n",
              static_cast<unsigned long long>(speaker->stats().chunks_played),
              static_cast<unsigned long long>(speaker->stats().late_drops),
              static_cast<double>(wan.stats().bytes_on_wire) * 8.0 /
                  ToSecondsF(system.sim()->now()) / 1e6);

  // Switch to the local channel via the guide, listen some more.
  Result<AnnounceEntry> jazz = browser.Find("campus-jazz");
  (void)speaker->Tune(jazz->group);
  system.RunUntil(Seconds(20));
  std::printf("switched to '%s'; total chunks played %llu\n",
              jazz->name.c_str(),
              static_cast<unsigned long long>(speaker->stats().chunks_played));

  // Time shifting (§2.1): export the whole recorded program to WAV. The
  // recorder kept capturing the internet channel even while the speaker
  // wandered off to the jazz channel.
  (void)recorder.StopRecording();
  std::string path = "/tmp/espk_timeshift.wav";
  Status wav = recorder.ExportWav(path);
  PcmBuffer take = recorder.Assemble();
  std::printf("time-shift recording: %s (%s, %.1f s captured, %llu gaps "
              "filled)\n",
              path.c_str(), wav.ok() ? "written" : wav.ToString().c_str(),
              static_cast<double>(take.frames()) /
                  std::max(take.sample_rate, 1),
              static_cast<unsigned long long>(recorder.stats().gaps_filled));

  bool ok = speaker->stats().chunks_played > 100 &&
            gateway.chunks_received() > 50 && channels.size() == 2 &&
            take.frames() > 10 * 44100;
  std::printf("\ninternet_radio %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
