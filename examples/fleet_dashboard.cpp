// Distributed telemetry plane demo: a fleet of five Ethernet Speakers plus
// the rebroadcaster, each owning its own per-station metrics registry, all
// scraped over the simulated LAN by a fleet collector on the console.
//
// A CD-quality channel plays through a healthy 100 Mbps segment; the
// collector pulls every station's snapshot once a second (kScrape out,
// kScrapeChunk fragments back). At t=6s the segment is squeezed to 1 Mbps —
// less than the raw stream needs — so scrape traffic is starved along with
// the audio: attempts time out, retries back off, and stations go STALE on
// the dashboard. At t=14s bandwidth is restored and the fleet comes back UP.
//
//   es-0..es-4, rb-1 --ScrapeAgent--> kScrape/kScrapeChunk --> FleetCollector
//                                                                  |
//                                       FleetStore -> query engine + dashboard
//
// Every number below runs on the simulated clock, so the output is
// byte-identical across runs — ci/check.sh diffs it against a golden file.
// (The one nondeterministic signal in the system, the codec's host-CPU
// timings, is deliberately kept off this dashboard.)
#include <cstdio>

#include "src/core/system.h"
#include "src/obs/federation/fleet.h"
#include "src/obs/federation/render.h"

using namespace espk;

namespace {

void PrintDashboard(FleetPlane* plane, SimTime now) {
  DashboardOptions options;
  options.queries = {
      "sum(speaker.chunks_played{station=\"es-*\"})",
      "avg by (station) (speaker.late_drops)",
      "rate(speaker.packets_received{station=\"es-*\"}[5s])",
      "max(speaker.queued_pcm_bytes)",
      "quantile(0.9, speaker.lateness_ms{station=\"es-0\"})",
  };
  std::printf("%s\n",
              RenderFleetDashboard(*plane->store(), now, options).c_str());
}

}  // namespace

int main() {
  // Shallow 64 KB transmit queue: congestion becomes visible fast.
  SystemOptions sys_options;
  sys_options.lan.tx_queue_limit = 64 * 1024;
  EthernetSpeakerSystem system(sys_options);

  // Raw (uncompressed) CD audio: ~1.41 Mbps on the wire, so the 1 Mbps
  // squeeze is guaranteed to starve both the audio and the scrapes.
  RebroadcasterOptions rb;
  rb.codec_override = CodecId::kRaw;
  Channel* channel = *system.CreateChannel("lobby music", rb);

  for (int i = 0; i < 5; ++i) {
    SpeakerOptions speaker_options;
    speaker_options.name = "es-" + std::to_string(i);
    speaker_options.decode_speed_factor = 0.05;
    (void)*system.AddSpeaker(speaker_options, channel->group);
  }

  // Wire the telemetry plane over the stations created above: one scrape
  // agent per station, a collector NIC for the console, the system-wide
  // registry ingested locally as station "console".
  FleetPlane plane(&system);
  plane.Start();
  std::printf("fleet plane: %zu scrape agents + local console ingest\n\n",
              plane.agents().size());

  PlayerAppOptions player_options;
  player_options.config = AudioConfig::CdQuality();
  (void)*system.StartPlayer(channel, std::make_unique<MusicLikeGenerator>(7),
                            player_options);

  system.sim()->ScheduleAt(Seconds(6), [&system] {
    std::printf("[ 6.000s] FAULT: segment squeezed to 1 Mbps\n\n");
    system.lan()->set_bandwidth_bps(1e6);
  });
  system.sim()->ScheduleAt(Seconds(14), [&system] {
    std::printf("[14.000s] FAULT CLEARED: segment back to 100 Mbps\n\n");
    system.lan()->set_bandwidth_bps(100e6);
  });

  // Three dashboard renders: healthy, mid-squeeze (stale stations), and
  // after recovery.
  for (SimTime at : {Seconds(5), Seconds(13), Seconds(23)}) {
    system.sim()->ScheduleAt(at, [&plane, at] { PrintDashboard(&plane, at); });
  }
  system.RunUntil(Seconds(24));

  const FleetCollector& collector = *plane.collector();
  std::printf("collector self-telemetry over 24 s:\n");
  std::printf(
      "  cycles=%llu attempts=%llu success=%llu timeouts=%llu retries=%llu\n"
      "  misses=%llu stale_transitions=%llu chunks_received=%llu\n",
      static_cast<unsigned long long>(collector.cycles()),
      static_cast<unsigned long long>(collector.attempts()),
      static_cast<unsigned long long>(collector.successes()),
      static_cast<unsigned long long>(collector.timeouts()),
      static_cast<unsigned long long>(collector.retries()),
      static_cast<unsigned long long>(collector.misses()),
      static_cast<unsigned long long>(collector.stale_transitions()),
      static_cast<unsigned long long>(collector.chunks_received()));
  return 0;
}
