// Sharded-runtime observability demo: the same telemetry planes the
// single-loop examples use — causal spans, health monitoring, the fleet
// dashboard — running over a 4-zone sharded simulation, where per-zone
// collectors snapshot each zone's tracer ring and runtime counters at the
// epoch barrier and merge them in deterministic order.
//
// Two things are on display:
//
//   1. The observability planes work the same on every zone count: spans
//      assemble over the barrier-merged mirror, the health sampler ticks at
//      aligned barriers, and both produce bit-identical results to a
//      one-zone run (tests/sharded_determinism_test.cc holds that
//      equality; this example shows the API shape).
//   2. The runtime watches itself: EnableZoneTelemetry() registers a
//      "zone-<z>" station per zone with epoch-duration and barrier-wait
//      histograms, drain counts, inbox high-watermark gauges, and
//      timer-wheel cascade counters — rendered as the fleet dashboard's
//      "runtime" section and exported as Perfetto slices alongside the span
//      trees.
//
// The runtime section's epoch/barrier timings are host wall clock, so this
// example is a smoke run (no golden-file diff): the structure is stable,
// the microseconds are not.
#include <cstdio>
#include <memory>
#include <string>

#include "src/core/system.h"
#include "src/obs/federation/render.h"
#include "src/obs/federation/sample.h"
#include "src/obs/federation/store.h"
#include "src/obs/health.h"
#include "src/obs/spans/assembler.h"
#include "src/obs/spans/perfetto.h"
#include "src/obs/spans/plane.h"
#include "src/obs/zone_collector.h"

using namespace espk;

int main() {
  // Four zones on one executor thread: the epoch/barrier machinery (and
  // all its telemetry) is fully exercised without tying the demo's output
  // volume to the host's core count.
  SystemOptions sys_options;
  sys_options.sharded.zones = 4;
  sys_options.sharded.threads = 1;
  sys_options.lan.tx_queue_limit = 64 * 1024;
  EthernetSpeakerSystem system(sys_options);

  RebroadcasterOptions rb;
  rb.codec_override = CodecId::kRaw;
  Channel* channel = *system.CreateChannel("lobby music", rb);
  for (int i = 0; i < 8; ++i) {
    SpeakerOptions speaker_options;
    speaker_options.name = "es-" + std::to_string(i);
    speaker_options.decode_speed_factor = 0.05;
    (void)*system.AddSpeaker(speaker_options, channel->group);
  }

  // Both planes over the sharded runtime. Default health rules include the
  // runtime barrier-stall SLO on top of the usual queue-drop /
  // deadline-miss set. The planes add no stations of their
  // own; the runtime's "zone-<z>" stations exist only on request.
  SpanPlane* spans = system.EnableSpanTracing();
  HealthMonitor* health = system.EnableHealthMonitoring();
  ZoneCollector* collector = system.EnableZoneTelemetry();
  std::printf("sharded runtime: %d zones; spans=%s health=%s\n\n",
              sys_options.sharded.zones, spans != nullptr ? "on" : "off",
              health != nullptr && health->running() ? "on" : "off");

  PlayerAppOptions player_options;
  player_options.config = AudioConfig::CdQuality();
  (void)*system.StartPlayer(channel, std::make_unique<MusicLikeGenerator>(7),
                            player_options);

  // A mid-run bandwidth squeeze so the health plane has something to say.
  system.RunUntil(Seconds(3));
  std::printf("[ 3.000s] FAULT: segment squeezed to 1 Mbps\n");
  system.lan()->set_bandwidth_bps(1e6);
  system.RunUntil(Seconds(5));
  std::printf("[ 5.000s] FAULT CLEARED: segment back to 100 Mbps\n\n");
  system.lan()->set_bandwidth_bps(100e6);
  system.RunUntil(Seconds(8));
  spans->Drain();

  // Federate every station registry — speakers, rebroadcaster, and the
  // four zone-<z> runtime stations — into one store and render the
  // dashboard. The "runtime" section appears because zone stations exist;
  // without EnableZoneTelemetry() the dashboard renders minus that section.
  FleetStore store;
  for (const auto& station : system.stations()) {
    store.Ingest(SnapshotRegistry(*station->registry, station->name,
                                  system.now()),
                 system.now());
  }
  DashboardOptions dashboard_options;
  dashboard_options.queries = {
      "sum(speaker.chunks_played{station=\"es-*\"})",
      "sum(runtime.drained_messages{station=\"zone-*\"})",
  };
  std::printf("%s\n",
              RenderFleetDashboard(store, system.now(), dashboard_options)
                  .c_str());

  std::printf("health status:\n%s\n", health->StatusText().c_str());

  // Perfetto export: span trees plus per-zone epoch/barrier slices on
  // "runtime" tracks, one timeline.
  const std::string perfetto =
      PerfettoSpanJson(*spans->assembler(), RuntimePerfettoEvents(*collector));
  std::printf("perfetto export: %zu bytes, %zu traces, %zu epoch slices\n",
              perfetto.size(), spans->assembler()->RetainedTraces().size(),
              collector->epoch_slices().size());
  std::printf(
      "collector: barriers=%llu events_merged=%llu merge_lost=%llu\n",
      static_cast<unsigned long long>(collector->barriers_seen()),
      static_cast<unsigned long long>(collector->events_merged()),
      static_cast<unsigned long long>(collector->merge_lost()));
  return collector->merge_lost() == 0 ? 0 : 1;
}
