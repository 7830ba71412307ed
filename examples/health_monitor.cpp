// Health monitoring demo: SLO alerts, management traps, and the flight
// recorder.
//
// A CD-quality channel plays through a healthy 100 Mbps segment while the
// health layer samples every metric on the simulated clock. At t=6s the
// segment is squeezed to 1 Mbps — less than the raw stream needs — so the
// transmit queue overflows, the speaker starves, and several SLO rules
// fire. Each transition is multicast as an SNMP-style trap to a management
// console, and the flight recorder dumps a JSON postmortem per fire. At
// t=14s bandwidth is restored and the alerts resolve.
//
//   rebroadcaster -> 1 Mbps squeeze -> queue drops -> SLO rules fire
//                 -> traps to console + postmortems -> recovery -> resolve
//
// Artifacts written to the working directory:
//   health_trace.json  - Chrome trace_event export; open in ui.perfetto.dev
//   postmortems are printed (truncated) and kept in memory
#include <cstdio>

#include "src/core/system.h"
#include "src/mgmt/agent.h"
#include "src/obs/health.h"
#include "src/obs/spans/perfetto.h"

using namespace espk;

int main() {
  // A shallow 64 KB transmit queue makes congestion visible quickly.
  SystemOptions sys_options;
  sys_options.lan.tx_queue_limit = 64 * 1024;
  EthernetSpeakerSystem system(sys_options);

  // Raw (uncompressed) CD audio: ~1.41 Mbps on the wire, so a 1 Mbps
  // squeeze is guaranteed to hurt.
  RebroadcasterOptions rb;
  rb.codec_override = CodecId::kRaw;
  Channel* channel = *system.CreateChannel("lobby music", rb);

  SpeakerOptions speaker_options;
  speaker_options.name = "es-lobby";
  speaker_options.decode_speed_factor = 0.05;
  EthernetSpeaker* speaker =
      *system.AddSpeaker(speaker_options, channel->group);

  // Health layer: sampler + default SLO rule set + flight recorder. Lower
  // the drop-rate thresholds so the demo fires crisply.
  EthernetSpeakerSystem::HealthRuleDefaults rules;
  rules.queue_drop_rate_per_sec = 1.0;
  rules.deadline_miss_rate_per_sec = 1.0;
  HealthMonitor* health = system.EnableHealthMonitoring({}, rules);
  std::printf("health monitoring: %zu SLO rules armed\n",
              health->engine()->rule_count());

  // The speaker's management agent forwards alert transitions as traps;
  // a console on its own NIC collects them.
  SpeakerAgent agent(system.sim(), system.NicOf(speaker), speaker);
  agent.WatchAlerts(health->engine());
  auto console_nic = system.lan()->CreateNic();
  MgmtConsole console(system.sim(), console_nic.get());
  console.SetTrapHandler([&](const MgmtTrap& trap) {
    std::printf("  [%7.3fs] TRAP #%u %s %s (observed %.3g vs %.3g)\n",
                static_cast<double>(trap.at) / 1e9, trap.trap_seq,
                trap.firing ? "FIRING " : "resolved", trap.rule.c_str(),
                trap.observed, trap.threshold);
  });

  PlayerAppOptions player_options;
  player_options.config = AudioConfig::CdQuality();
  (void)*system.StartPlayer(channel, std::make_unique<MusicLikeGenerator>(7),
                            player_options);

  // The fault: squeeze the segment to 1 Mbps for eight seconds.
  system.sim()->ScheduleAt(Seconds(6), [&system] {
    std::printf("  [  6.000s] FAULT: segment squeezed to 1 Mbps\n");
    system.lan()->set_bandwidth_bps(1e6);
  });
  system.sim()->ScheduleAt(Seconds(14), [&system] {
    std::printf("  [ 14.000s] FAULT CLEARED: segment back to 100 Mbps\n");
    system.lan()->set_bandwidth_bps(100e6);
  });

  std::printf("\nrunning 24 simulated seconds...\n");
  system.RunUntil(Seconds(24));

  std::printf("\nalert engine after the incident:\n%s",
              health->StatusText().c_str());
  std::printf("transitions: %llu fired, %llu resolved; traps received: %llu"
              " (gaps = traps lost to the congestion they report)\n",
              static_cast<unsigned long long>(health->engine()->fired_total()),
              static_cast<unsigned long long>(
                  health->engine()->resolved_total()),
              static_cast<unsigned long long>(console.traps_received()));

  // Flight-recorder postmortems: one JSON document per fire.
  std::printf("\nflight recorder captured %zu postmortems:\n",
              health->recorder()->postmortems().size());
  for (const Postmortem& postmortem : health->recorder()->postmortems()) {
    std::printf("  %-32s at %6.3fs (%zu bytes of JSON)\n",
                postmortem.rule.c_str(),
                static_cast<double>(postmortem.at) / 1e9,
                postmortem.json.size());
  }
  if (!health->recorder()->postmortems().empty()) {
    const Postmortem& first = health->recorder()->postmortems().front();
    std::printf("\nfirst postmortem (first 600 bytes):\n%.600s...\n",
                first.json.c_str());
  }

  // Chrome trace export: every packet's journey on a real timeline.
  const std::string trace = ChromeTraceJson(*system.tracer());
  std::FILE* f = std::fopen("health_trace.json", "w");
  if (f != nullptr) {
    std::fwrite(trace.data(), 1, trace.size(), f);
    std::fclose(f);
    std::printf("\nwrote health_trace.json (%zu bytes) — open it in "
                "ui.perfetto.dev or chrome://tracing\n",
                trace.size());
  }

  const SpeakerStats& stats = speaker->stats();
  std::printf("\nspeaker damage report: played=%llu late_drops=%llu "
              "silence=%.2fs\n",
              static_cast<unsigned long long>(stats.chunks_played),
              static_cast<unsigned long long>(stats.late_drops),
              static_cast<double>(stats.silence_ns) / 1e9);
  return 0;
}
