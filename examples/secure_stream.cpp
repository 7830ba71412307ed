// Authenticated streaming (§5.1, future work implemented): "the ES should
// not play audio from an unauthorized source, and the machine should be
// resistant to denial of service attacks."
//
//  * the producer signs control packets with HORS few-time signatures
//    (rotating keys chained from a root provisioned out of band) and MACs
//    data packets with the LAN group key;
//  * speakers verify everything before the playback path sees it;
//  * an attacker station floods forged control packets (trying to retune
//    the speakers' config) and forged data packets (injecting noise) —
//    all rejected, while the genuine stream plays on undisturbed;
//  * an unprotected speaker on the same LAN happily plays the attacker's
//    noise, showing what the verification is worth.
#include <cstdio>

#include "src/core/system.h"
#include "src/security/stream_auth.h"

using namespace espk;

int main() {
  EthernetSpeakerSystem system;

  // Keys: group key + HORS root, provisioned out of band (the config tar /
  // non-volatile RAM of §2.4/§5.1).
  StreamAuthOptions auth_options;
  auth_options.group_key = Bytes{'l', 'a', 'n', '-', 'k', 'e', 'y'};
  auto authenticator = std::make_unique<StreamAuthenticator>(auth_options);

  RebroadcasterOptions rb;
  rb.authenticator = authenticator->MakeCallback();
  Channel* channel = *system.CreateChannel("secure-music", rb);

  PlayerAppOptions opts;
  opts.config = AudioConfig::CdQuality();
  (void)*system.StartPlayer(channel, std::make_unique<MusicLikeGenerator>(51),
                            opts);

  // Two verifying speakers and one naive speaker.
  std::vector<std::unique_ptr<StreamVerifier>> verifiers;
  std::vector<EthernetSpeaker*> protected_speakers;
  for (int i = 0; i < 2; ++i) {
    verifiers.push_back(std::make_unique<StreamVerifier>(
        auth_options.group_key, authenticator->root_public_key()));
    SpeakerOptions so;
    so.name = "protected-" + std::to_string(i);
    so.decode_speed_factor = 0.1;
    so.auth_verifier = verifiers.back()->MakeCallback();
    protected_speakers.push_back(*system.AddSpeaker(so, channel->group));
  }
  SpeakerOptions naive_options;
  naive_options.name = "naive";
  naive_options.decode_speed_factor = 0.1;
  EthernetSpeaker* naive = *system.AddSpeaker(naive_options, channel->group);

  system.RunUntil(Seconds(3));

  // The attacker: a station on the same LAN (insider placement — exactly
  // what VLAN separation cannot stop, §5.1). It forges control packets
  // advertising a bogus config, and data packets full of noise.
  auto attacker_nic = system.lan()->CreateNic();
  Simulation* sim = system.sim();
  uint32_t attacker_seq = 100000;
  PeriodicTask attack(sim, Milliseconds(20), [&](SimTime now) {
    ControlPacket fake_control;
    fake_control.stream_id = channel->stream_id;
    fake_control.control_seq = 999;
    fake_control.producer_clock = now;
    fake_control.config = AudioConfig::PhoneQuality();  // Sabotage config.
    fake_control.codec = CodecId::kRaw;
    (void)attacker_nic->SendMulticast(channel->group,
                                      SerializePacket(fake_control));
    DataPacket fake_data;
    fake_data.stream_id = channel->stream_id;
    fake_data.seq = attacker_seq++;
    fake_data.play_deadline = now + Milliseconds(50);
    fake_data.frame_count = 4096;
    fake_data.payload = Bytes(16384, 0x55);  // Square-wave screech.
    (void)attacker_nic->SendMulticast(channel->group,
                                      SerializePacket(fake_data));
  });
  attack.Start();
  system.RunUntil(Seconds(13));
  attack.Stop();
  system.RunUntil(Seconds(16));

  std::printf("after a 10 s forgery flood (100 pkt/s):\n\n");
  for (size_t i = 0; i < protected_speakers.size(); ++i) {
    const SpeakerStats& stats = protected_speakers[i]->stats();
    const StreamVerifyStats& vstats = verifiers[i]->stats();
    std::printf(
        "  %-12s played=%llu late=%llu auth_rejected=%llu (bad mac %llu, "
        "bad sig %llu, unsigned %llu) config=%s\n",
        protected_speakers[i]->name().c_str(),
        static_cast<unsigned long long>(stats.chunks_played),
        static_cast<unsigned long long>(stats.late_drops),
        static_cast<unsigned long long>(stats.auth_rejected),
        static_cast<unsigned long long>(vstats.rejected_bad_mac),
        static_cast<unsigned long long>(vstats.rejected_bad_signature),
        static_cast<unsigned long long>(vstats.rejected_no_auth),
        protected_speakers[i]->config()->ToString().c_str());
  }
  const SpeakerStats& nstats = naive->stats();
  std::printf("  %-12s played=%llu decode_errors=%llu — every forged "
              "control packet retuned it and the forged sequence numbers "
              "poisoned its stream\n",
              naive->name().c_str(),
              static_cast<unsigned long long>(nstats.chunks_played),
              static_cast<unsigned long long>(nstats.decode_errors));

  // Success criteria: protected speakers never accepted a forged packet,
  // kept the genuine CD config, and kept playing; the naive speaker's
  // playback was wrecked by the flood (config flip-flops on every forged
  // control packet, and the attacker's giant sequence numbers make it
  // discard the genuine stream as 'duplicates').
  bool protected_ok = true;
  for (size_t i = 0; i < protected_speakers.size(); ++i) {
    protected_ok = protected_ok &&
                   protected_speakers[i]->config()->sample_rate == 44100 &&
                   protected_speakers[i]->stats().auth_rejected > 500 &&
                   protected_speakers[i]->stats().chunks_played > 100;
  }
  bool naive_disrupted =
      nstats.chunks_played <
      protected_speakers[0]->stats().chunks_played / 2;
  std::printf("\nprotected speakers unaffected: %s; naive speaker's "
              "playback disrupted: %s\n",
              protected_ok ? "yes" : "NO", naive_disrupted ? "yes" : "no");
  std::printf("\nsecure_stream %s\n",
              protected_ok && naive_disrupted ? "OK" : "FAILED");
  return protected_ok && naive_disrupted ? 0 : 1;
}
