// Causal span tracing demo: where did the latency go, and which stage do
// you fix first?
//
// The same five-speaker CD-quality fleet as fleet_dashboard, but behind a
// deliberately deep (bufferbloat-style) 512 KB transmit queue. At t=6s the
// segment is squeezed to 1 Mbps — less than the raw stream needs — so
// packets queue for seconds waiting for a wire slot; at t=18s bandwidth is
// restored. Every packet's journey is recorded as a causal span tree
// (vad_read -> encode -> tx_queue -> wire -> jitter_dwell -> decode ->
// render_slack) carried across stations by the packet's trace id, scraped
// into the console assembler, and tail-sampled: deadline misses and queue
// drops always survive, plus the slowest 10% of healthy traffic.
//
// The demo prints the critical-path budget table for a healthy window and
// for the squeeze window — the squeeze moves the dominant budget line to
// the transmit queue — then resolves one deadline-miss exemplar from the
// play-latency histogram to its retained cross-station trace tree, and
// writes span_trace.json (Perfetto duration slices + fan-out flow arrows;
// drag onto https://ui.perfetto.dev).
//
// Everything runs on the simulated clock, so the output is byte-identical
// across runs — ci/check.sh diffs it against a golden file.
#include <cstdio>

#include "src/core/system.h"
#include "src/obs/federation/fleet.h"
#include "src/obs/metrics.h"
#include "src/obs/spans/critical_path.h"
#include "src/obs/spans/perfetto.h"
#include "src/obs/spans/plane.h"

using namespace espk;

int main() {
  // Deep transmit queue: under congestion the failure mode is seconds of
  // queueing delay (bufferbloat), not immediate tail drops.
  SystemOptions sys_options;
  sys_options.lan.tx_queue_limit = 512 * 1024;
  EthernetSpeakerSystem system(sys_options);

  RebroadcasterOptions rb;
  rb.codec_override = CodecId::kRaw;
  Channel* channel = *system.CreateChannel("lobby music", rb);
  for (int i = 0; i < 5; ++i) {
    SpeakerOptions speaker_options;
    speaker_options.name = "es-" + std::to_string(i);
    speaker_options.decode_speed_factor = 0.05;
    (void)*system.AddSpeaker(speaker_options, channel->group);
  }

  // Span tracing must be enabled before the fleet plane is built so each
  // scrape agent picks up its station's span buffer. Rings sized to ride
  // out the squeeze (scrapes starve exactly when the audio does).
  SpanPlaneOptions span_options;
  span_options.recorder_capacity = 16384;
  SpanPlane* spans = system.EnableSpanTracing(span_options);
  FleetPlane plane(&system);
  plane.Start();

  PlayerAppOptions player_options;
  player_options.config = AudioConfig::CdQuality();
  (void)*system.StartPlayer(channel, std::make_unique<MusicLikeGenerator>(21),
                            player_options);

  system.sim()->ScheduleAt(Seconds(6), [&system] {
    std::printf("[ 6.000s] FAULT: segment squeezed to 1 Mbps\n");
    system.lan()->set_bandwidth_bps(1e6);
  });
  system.sim()->ScheduleAt(Seconds(18), [&system] {
    std::printf("[18.000s] FAULT CLEARED: segment back to 100 Mbps\n\n");
    system.lan()->set_bandwidth_bps(100e6);
  });
  system.RunUntil(Seconds(26));
  spans->Drain();

  const SpanAssembler* assembler = spans->assembler();
  std::printf("span plane after 26 s: ingested=%llu duplicates=%llu "
              "retained=%zu discarded=%llu orphans=%llu\n\n",
              static_cast<unsigned long long>(assembler->ingested()),
              static_cast<unsigned long long>(assembler->duplicates()),
              assembler->RetainedTraces().size(),
              static_cast<unsigned long long>(assembler->sampler_discarded()),
              static_cast<unsigned long long>(assembler->orphans()));

  // Budget tables: the healthy window is dominated by source-side pacing;
  // the squeeze window's budget collapses into the transmit queue.
  std::printf("%s\n", AnalyzeCriticalPath(*assembler, channel->stream_id,
                                          Seconds(0), Seconds(6))
                          .Render()
                          .c_str());
  std::printf("%s\n", AnalyzeCriticalPath(*assembler, channel->stream_id,
                                          Seconds(6), Seconds(14))
                          .Render()
                          .c_str());

  // Resolve one deadline-miss exemplar from a speaker's play-latency
  // histogram to the retained trace that explains it.
  for (const auto& station : system.stations()) {
    if (station->name.rfind("es-", 0) != 0) {
      continue;
    }
    const Metric* metric = station->registry->Find("speaker.lateness_ms");
    if (metric == nullptr) {
      continue;
    }
    const auto* histogram = static_cast<const HistogramMetric*>(metric);
    const SpanTree* tree = nullptr;
    HistogramExemplar chosen;
    for (const HistogramExemplar& exemplar : histogram->exemplars()) {
      if (!exemplar.valid || exemplar.value <= 0.0) {
        continue;  // Only late (deadline-missing) observations.
      }
      tree = assembler->FindTrace(exemplar.trace_id);
      if (tree != nullptr) {
        chosen = exemplar;
        break;
      }
    }
    if (tree == nullptr) {
      continue;
    }
    std::printf("deadline-miss exemplar on %s: %.3f ms late, trace "
                "%016llx — retained tree:\n%s\n",
                station->name.c_str(), chosen.value,
                static_cast<unsigned long long>(chosen.trace_id),
                tree->Render().c_str());
    break;
  }

  const std::string perfetto = PerfettoSpanJson(*assembler);
  if (std::FILE* f = std::fopen("span_trace.json", "w")) {
    std::fwrite(perfetto.data(), 1, perfetto.size(), f);
    std::fclose(f);
    std::printf("wrote span_trace.json (%zu retained traces) — drag onto "
                "https://ui.perfetto.dev\n",
                assembler->RetainedTraces().size());
  }
  return 0;
}
