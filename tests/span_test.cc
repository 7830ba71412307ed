// Causal span plane tests: the exporter deriving duration spans from the
// tracer's instant events, the console-side assembler (dedup, tail
// sampling, tree parenting), exemplar-to-trace resolution, and the
// end-to-end scenario — a five-speaker fleet under a bandwidth squeeze
// whose deadline-miss exemplars resolve to retained cross-station trees
// with the tx-queue stage dominating the critical path. Everything runs on
// the simulated clock, so reports and Perfetto exports are asserted
// bit-identical across runs.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bench/json_lite.h"
#include "src/core/system.h"
#include "src/obs/federation/fleet.h"
#include "src/obs/metrics.h"
#include "src/obs/spans/assembler.h"
#include "src/obs/spans/critical_path.h"
#include "src/obs/spans/exporter.h"
#include "src/obs/spans/perfetto.h"
#include "src/obs/spans/plane.h"
#include "src/obs/spans/recorder.h"
#include "src/obs/spans/span.h"
#include "src/obs/trace.h"
#include "src/sim/simulation.h"

namespace espk {
namespace {

// ------------------------------------------------------------ Wire model --

TEST(SpanBatchTest, SerializationRoundTripIsExact) {
  SpanBatch batch;
  batch.station = "es-3";
  Span span;
  span.trace_id = PacketTraceId(2, 99);
  span.stream_id = 2;
  span.seq = 99;
  span.stage = SpanStage::kJitterDwell;
  span.flags = kSpanFlagDeadlineMiss;
  span.station = 7;
  span.start = Milliseconds(10);
  span.end = Milliseconds(12);
  batch.spans.push_back(span);
  span.stage = SpanStage::kPacket;
  span.flags = 0;
  batch.spans.push_back(span);

  Result<SpanBatch> back = SpanBatch::Deserialize(batch.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->station, "es-3");
  ASSERT_EQ(back->spans.size(), 2u);
  EXPECT_EQ(back->spans[0].trace_id, PacketTraceId(2, 99));
  EXPECT_EQ(back->spans[0].stage, SpanStage::kJitterDwell);
  EXPECT_EQ(back->spans[0].flags, kSpanFlagDeadlineMiss);
  EXPECT_EQ(back->spans[0].start, Milliseconds(10));
  EXPECT_EQ(back->spans[0].end, Milliseconds(12));
  EXPECT_EQ(back->spans[1].stage, SpanStage::kPacket);

  EXPECT_FALSE(SpanBatch::Deserialize(Bytes{1, 2, 3}).ok());
}

// -------------------------------------------------------------- Exporter --

TraceEvent Event(uint32_t seq, TraceStage stage, uint32_t node, SimTime at) {
  TraceEvent event;
  event.stream_id = 1;
  event.seq = seq;
  event.stage = stage;
  event.node = node;
  event.at = at;
  return event;
}

const Span* FindSpan(const SpanRecorder& recorder, SpanStage stage,
                     uint32_t station) {
  for (const Span& span : recorder.spans()) {
    if (span.stage == stage && span.station == station) {
      return &span;
    }
  }
  return nullptr;
}

TEST(SpanExporterTest, PairsInstantEventsIntoStageSpans) {
  // One packet, producer node 1, receiver node 2 plays it, receiver node 3
  // loses it on the wire. Every stage interval must come out with exactly
  // the event-pair endpoints, routed to the right station's recorder.
  Simulation sim;
  SpanExporter exporter(&sim);
  SpanRecorder producer("rb-1", 64);
  SpanRecorder rx2("es-0", 64);
  SpanRecorder rx3("es-1", 64);
  exporter.BindStream(1, /*send_node=*/1, &producer);
  exporter.RegisterStation(2, &rx2);
  exporter.RegisterStation(3, &rx3);

  exporter.OnTraceEvent(Event(5, TraceStage::kVadWrite, 0, 100));
  exporter.OnTraceEvent(Event(5, TraceStage::kRebroadcastRead, 0, 200));
  exporter.OnTraceEvent(Event(5, TraceStage::kEncode, 0, 250));
  exporter.OnTraceEvent(Event(5, TraceStage::kMulticastSend, 1, 250));
  exporter.OnTraceEvent(Event(5, TraceStage::kWireTx, 1, 400));
  exporter.OnTraceEvent(Event(5, TraceStage::kSpeakerReceive, 2, 500));
  exporter.OnTraceEvent(Event(5, TraceStage::kLinkLoss, 3, 520));
  exporter.OnTraceEvent(Event(5, TraceStage::kDecodeStart, 2, 600));
  exporter.OnTraceEvent(Event(5, TraceStage::kDecodeDone, 2, 700));
  exporter.OnTraceEvent(Event(5, TraceStage::kPlay, 2, 800));
  EXPECT_EQ(exporter.pending_count(), 1u);
  exporter.FlushAll();
  EXPECT_EQ(exporter.pending_count(), 0u);
  EXPECT_EQ(exporter.unrouted(), 0u);

  // Producer side: vad->read, encode, tx-queue wait, and the root.
  const Span* vad_read = FindSpan(producer, SpanStage::kVadRead, 1);
  ASSERT_NE(vad_read, nullptr);
  EXPECT_EQ(vad_read->start, 100);
  EXPECT_EQ(vad_read->end, 200);
  const Span* encode = FindSpan(producer, SpanStage::kEncode, 1);
  ASSERT_NE(encode, nullptr);
  EXPECT_EQ(encode->start, 200);
  EXPECT_EQ(encode->end, 250);
  const Span* tx_queue = FindSpan(producer, SpanStage::kTxQueue, 1);
  ASSERT_NE(tx_queue, nullptr);
  EXPECT_EQ(tx_queue->start, 250);
  EXPECT_EQ(tx_queue->end, 400);
  const Span* root = FindSpan(producer, SpanStage::kPacket, 1);
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->trace_id, PacketTraceId(1, 5));
  EXPECT_EQ(root->start, 100);
  EXPECT_EQ(root->end, 800);
  // The root accumulates every receiver's fate: node 3's loss.
  EXPECT_EQ(root->flags, kSpanFlagLinkLoss);

  // Receiver 2: wire, dwell, decode, render slack, and its subtree root
  // spanning wire-tx start to the play verdict.
  const Span* wire = FindSpan(rx2, SpanStage::kWire, 2);
  ASSERT_NE(wire, nullptr);
  EXPECT_EQ(wire->start, 400);
  EXPECT_EQ(wire->end, 500);
  const Span* dwell = FindSpan(rx2, SpanStage::kJitterDwell, 2);
  ASSERT_NE(dwell, nullptr);
  EXPECT_EQ(dwell->start, 500);
  EXPECT_EQ(dwell->end, 600);
  const Span* decode = FindSpan(rx2, SpanStage::kDecode, 2);
  ASSERT_NE(decode, nullptr);
  EXPECT_EQ(decode->start, 600);
  EXPECT_EQ(decode->end, 700);
  const Span* slack = FindSpan(rx2, SpanStage::kRenderSlack, 2);
  ASSERT_NE(slack, nullptr);
  EXPECT_EQ(slack->start, 700);
  EXPECT_EQ(slack->end, 800);
  const Span* receive = FindSpan(rx2, SpanStage::kReceive, 2);
  ASSERT_NE(receive, nullptr);
  EXPECT_EQ(receive->start, 400);
  EXPECT_EQ(receive->end, 800);
  EXPECT_EQ(receive->flags, 0);

  // Receiver 3 got only a flagged wire span: the loss is its terminal.
  const Span* lost_wire = FindSpan(rx3, SpanStage::kWire, 3);
  ASSERT_NE(lost_wire, nullptr);
  EXPECT_EQ(lost_wire->start, 400);
  EXPECT_EQ(lost_wire->end, 520);
  EXPECT_EQ(lost_wire->flags, kSpanFlagLinkLoss);
  EXPECT_EQ(FindSpan(rx3, SpanStage::kReceive, 3), nullptr);
}

TEST(SpanExporterTest, QueueDropFinalizesTheJourneyImmediately) {
  Simulation sim;
  SpanExporter exporter(&sim);
  SpanRecorder producer("rb-1", 64);
  exporter.BindStream(1, 1, &producer);

  exporter.OnTraceEvent(Event(9, TraceStage::kMulticastSend, 1, 100));
  exporter.OnTraceEvent(Event(9, TraceStage::kQueueDrop, 1, 150));
  // No flush needed: the drop is terminal for every receiver at once.
  EXPECT_EQ(exporter.pending_count(), 0u);
  const Span* tx_queue = FindSpan(producer, SpanStage::kTxQueue, 1);
  ASSERT_NE(tx_queue, nullptr);
  EXPECT_EQ(tx_queue->flags, kSpanFlagQueueDrop);
  const Span* root = FindSpan(producer, SpanStage::kPacket, 1);
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->flags, kSpanFlagQueueDrop);
}

// ------------------------------------------------------------- Assembler --

SpanBatch BatchOf(const std::string& station, std::vector<Span> spans) {
  SpanBatch batch;
  batch.station = station;
  batch.spans = std::move(spans);
  return batch;
}

Span MakeSpan(uint64_t trace_id, SpanStage stage, uint32_t station,
              SimTime start, SimTime end, uint8_t flags = 0) {
  Span span;
  span.trace_id = trace_id;
  span.stream_id = static_cast<uint32_t>(trace_id >> 32);
  span.seq = static_cast<uint32_t>(trace_id & 0xffffffffu);
  span.stage = stage;
  span.flags = flags;
  span.station = station;
  span.start = start;
  span.end = end;
  return span;
}

TEST(SpanAssemblerTest, AssemblesCrossStationTreeAndDedupsRescrapes) {
  TailSamplerOptions options;
  options.decision_window = Seconds(1);
  SpanAssembler assembler(options);
  const uint64_t id = PacketTraceId(1, 7);

  // Producer batch and one receiver batch: the scrape plane delivers these
  // separately, and re-delivers the producer's (rings are not drained).
  SpanBatch rb = BatchOf("rb-1", {
      MakeSpan(id, SpanStage::kPacket, 1, 0, 1000, kSpanFlagDeadlineMiss),
      MakeSpan(id, SpanStage::kVadRead, 1, 0, 100),
      MakeSpan(id, SpanStage::kTxQueue, 1, 150, 700),
  });
  SpanBatch es = BatchOf("es-0", {
      MakeSpan(id, SpanStage::kReceive, 2, 700, 1000, kSpanFlagDeadlineMiss),
      MakeSpan(id, SpanStage::kWire, 2, 700, 800),
      MakeSpan(id, SpanStage::kDecode, 2, 800, 900),
  });
  assembler.IngestBatch(rb, Milliseconds(1));
  assembler.IngestBatch(es, Milliseconds(2));
  assembler.IngestBatch(rb, Milliseconds(3));  // Rescrape.
  EXPECT_EQ(assembler.ingested(), 6u);
  EXPECT_EQ(assembler.duplicates(), 3u);

  // Idle past the decision window: the error trace must be retained.
  assembler.Flush(Milliseconds(3) + Seconds(1));
  const SpanTree* tree = assembler.FindTrace(id);
  ASSERT_NE(tree, nullptr);
  ASSERT_EQ(tree->spans.size(), 6u);
  EXPECT_TRUE(tree->has_error());
  EXPECT_EQ(tree->flags(), kSpanFlagDeadlineMiss);

  // Parenting: stage spans and the receive subtree root hang off the root;
  // the receiver's wire/decode spans hang off that station's kReceive.
  int root_index = -1;
  int receive_index = -1;
  for (size_t i = 0; i < tree->spans.size(); ++i) {
    if (tree->spans[i].stage == SpanStage::kPacket) {
      root_index = static_cast<int>(i);
    }
    if (tree->spans[i].stage == SpanStage::kReceive) {
      receive_index = static_cast<int>(i);
    }
  }
  ASSERT_GE(root_index, 0);
  ASSERT_GE(receive_index, 0);
  EXPECT_EQ(tree->parent[root_index], -1);
  EXPECT_EQ(tree->parent[receive_index], root_index);
  for (size_t i = 0; i < tree->spans.size(); ++i) {
    switch (tree->spans[i].stage) {
      case SpanStage::kVadRead:
      case SpanStage::kTxQueue:
        EXPECT_EQ(tree->parent[i], root_index);
        break;
      case SpanStage::kWire:
      case SpanStage::kDecode:
        EXPECT_EQ(tree->parent[i], receive_index);
        break;
      default:
        break;
    }
  }
  // Station names resolved from the batches that carried the spans.
  EXPECT_EQ(tree->stations[root_index], "rb-1");
  EXPECT_EQ(tree->stations[receive_index], "es-0");

  // A rescrape arriving after the decision counts as duplicates, never as a
  // fresh trace.
  assembler.IngestBatch(es, Seconds(2));
  EXPECT_EQ(assembler.duplicates(), 6u);
  EXPECT_EQ(assembler.pending_count(), 0u);
}

TEST(SpanAssemblerTest, TailSamplerKeepsErrorsAndSlowestFraction) {
  TailSamplerOptions options;
  options.decision_window = Seconds(1);
  options.keep_slowest_fraction = 0.25;
  SpanAssembler assembler(options);

  // Eight healthy traces with e2e 10ms..80ms, one deadline-miss trace that
  // is FASTER than all of them. The sampler must keep the error trace plus
  // the slowest quarter (80ms and 70ms) and discard the rest.
  for (uint32_t seq = 1; seq <= 8; ++seq) {
    const uint64_t id = PacketTraceId(1, seq);
    assembler.IngestBatch(
        BatchOf("rb-1", {MakeSpan(id, SpanStage::kPacket, 1, 0,
                                  Milliseconds(10 * seq))}),
        Milliseconds(1));
  }
  const uint64_t miss = PacketTraceId(1, 100);
  assembler.IngestBatch(
      BatchOf("rb-1", {MakeSpan(miss, SpanStage::kPacket, 1, 0,
                                Milliseconds(1), kSpanFlagDeadlineMiss)}),
      Milliseconds(1));
  assembler.Flush(Milliseconds(1) + Seconds(1));

  EXPECT_NE(assembler.FindTrace(miss), nullptr);
  EXPECT_NE(assembler.FindTrace(PacketTraceId(1, 8)), nullptr);
  EXPECT_NE(assembler.FindTrace(PacketTraceId(1, 7)), nullptr);
  for (uint32_t seq = 1; seq <= 6; ++seq) {
    EXPECT_EQ(assembler.FindTrace(PacketTraceId(1, seq)), nullptr) << seq;
  }
  EXPECT_EQ(assembler.sampler_retained(), 3u);
  EXPECT_EQ(assembler.sampler_discarded(), 6u);
}

TEST(SpanAssemblerTest, RootlessTracesCountAsOrphans) {
  // A trace whose producer-side ring was already overwritten arrives with
  // receiver spans only: no kPacket root, so it cannot be parented or
  // latency-attributed — counted and dropped, never retained.
  SpanAssembler assembler(TailSamplerOptions{});
  const uint64_t id = PacketTraceId(3, 1);
  assembler.IngestBatch(
      BatchOf("es-0", {MakeSpan(id, SpanStage::kWire, 2, 0, 100,
                                kSpanFlagLinkLoss)}),
      Milliseconds(1));
  assembler.FlushAll();
  EXPECT_EQ(assembler.orphans(), 1u);
  EXPECT_EQ(assembler.FindTrace(id), nullptr);
}

// ------------------------------------------------------------- Exemplars --

TEST(HistogramExemplarTest, ExpositionCarriesOpenMetricsExemplars) {
  Simulation sim;
  MetricsRegistry registry(&sim);
  HistogramMetric* h = registry.GetHistogram("play.lateness_ms", 0.0, 100.0,
                                             10, "lateness");
  // Without a traced observation the exposition stays byte-identical to the
  // spans-off format: no exemplar syntax at all.
  h->Observe(5.0);
  EXPECT_EQ(registry.TextExposition().find(" # {trace_id="),
            std::string::npos);

  sim.ScheduleAt(Milliseconds(250), [&] {
    h->ObserveExemplar(42.0, PacketTraceId(1, 7), sim.now());
  });
  sim.Run();
  const std::string text = registry.TextExposition();
  // OpenMetrics exemplar syntax on the bucket that captured it, with the
  // trace id rendered as the 16-hex-digit label exemplar resolution uses.
  EXPECT_NE(text.find("# {trace_id=\"0000000100000007\"} 42 250"),
            std::string::npos)
      << text;
}

// ------------------------------------------------------------ End to end --

// Five speakers, one CD-quality channel, the span plane feeding the fleet
// scrape plane. At t=6s the segment is squeezed to 1 Mbps — below the
// stream's ~1.4 Mbps — behind a deliberately deep (bufferbloat-style)
// transmit queue, so queued packets wait seconds for their wire slot
// (tx-queue wait dominates end-to-end latency) and the queue eventually
// overflows into tail drops; at t=18s bandwidth is restored. This is the
// latency_budget example's scenario. Runs on one executor thread: the
// fleet plane's scrape agents run on shard 0 and read every station's
// registry, whichever zone it lives in.
struct SpanRunResult {
  size_t retained = 0;
  uint64_t sampler_retained = 0;
  uint64_t sampler_discarded = 0;
  uint64_t duplicates = 0;
  uint64_t ingested = 0;
  bool exemplar_resolved = false;
  bool exemplar_tree_cross_station = false;
  double exemplar_tree_tx_queue_ms = 0.0;
  double exemplar_tree_vad_read_ms = 0.0;
  std::string squeeze_dominant;
  std::string report;
  std::string report_again;
  std::string perfetto;
  bool exposition_has_exemplar = false;
  double es0_spans_recorded = 0.0;
  bool console_has_self_metrics = false;
};

SpanRunResult RunSqueezeScenario(int zones = 1) {
  SystemOptions sys_options;
  sys_options.lan.tx_queue_limit = 512 * 1024;
  sys_options.sharded.zones = zones;
  EthernetSpeakerSystem system(sys_options);
  RebroadcasterOptions rb;
  rb.codec_override = CodecId::kRaw;
  Channel* channel = *system.CreateChannel("music", rb);
  for (int i = 0; i < 5; ++i) {
    SpeakerOptions so;
    so.name = "es-" + std::to_string(i);
    so.decode_speed_factor = 0.05;
    (void)*system.AddSpeaker(so, channel->group);
  }
  // Span tracing must be on before the fleet plane is built so each scrape
  // agent picks up its station's span buffer. The scrape plane shares the
  // squeezed segment with the audio, so rings must cover the whole squeeze
  // until collection catches back up.
  SpanPlaneOptions span_options;
  span_options.recorder_capacity = 16384;
  SpanPlane* spans = system.EnableSpanTracing(span_options);
  FleetPlane plane(&system);
  plane.Start();

  PlayerAppOptions opts;
  opts.config = AudioConfig::CdQuality();
  EXPECT_TRUE(system
                  .StartPlayer(channel,
                               std::make_unique<MusicLikeGenerator>(21), opts)
                  .ok());
  system.sim()->ScheduleAt(Seconds(6), [&system] {
    system.lan()->set_bandwidth_bps(1e6);
  });
  system.sim()->ScheduleAt(Seconds(18), [&system] {
    system.lan()->set_bandwidth_bps(100e6);
  });
  system.RunUntil(Seconds(26));
  spans->Drain();

  SpanRunResult result;
  const SpanAssembler* assembler = spans->assembler();
  result.retained = assembler->RetainedTraces().size();
  result.sampler_retained = assembler->sampler_retained();
  result.sampler_discarded = assembler->sampler_discarded();
  result.duplicates = assembler->duplicates();
  result.ingested = assembler->ingested();

  // Every deadline-miss exemplar whose trace the tail sampler still holds
  // must resolve to a cross-station tree; keep the first that does.
  for (const auto& station : system.stations()) {
    if (station->name.rfind("es-", 0) != 0) {
      continue;
    }
    const Metric* metric = station->registry->Find("speaker.lateness_ms");
    if (metric == nullptr) {
      continue;
    }
    const auto* h = static_cast<const HistogramMetric*>(metric);
    for (const HistogramExemplar& exemplar : h->exemplars()) {
      if (!exemplar.valid || exemplar.value <= 0.0) {
        continue;  // Only late (deadline-missing) observations.
      }
      const SpanTree* tree = assembler->FindTrace(exemplar.trace_id);
      if (tree == nullptr || result.exemplar_resolved) {
        continue;
      }
      result.exemplar_resolved = true;
      std::set<std::string> producers;
      std::set<std::string> receivers;
      for (const std::string& name : tree->stations) {
        (name.rfind("rb-", 0) == 0 ? producers : receivers).insert(name);
      }
      result.exemplar_tree_cross_station =
          !producers.empty() && !receivers.empty();
      for (const Span& span : tree->spans) {
        if (span.stage == SpanStage::kTxQueue) {
          result.exemplar_tree_tx_queue_ms = span.duration_ms();
        }
        if (span.stage == SpanStage::kVadRead) {
          result.exemplar_tree_vad_read_ms = span.duration_ms();
        }
      }
    }
  }

  // Critical path over the squeeze window, rendered twice off the same
  // assembler state: byte-identical or the report is nondeterministic.
  CriticalPathReport report = AnalyzeCriticalPath(
      *assembler, channel->stream_id, Seconds(6), Seconds(14));
  result.squeeze_dominant = report.dominant;
  result.report = report.Render();
  result.report_again =
      AnalyzeCriticalPath(*assembler, channel->stream_id, Seconds(6),
                          Seconds(14))
          .Render();
  result.perfetto = PerfettoSpanJson(*assembler);

  if (Station* es0 = system.FindStation("es-0")) {
    result.exposition_has_exemplar =
        es0->registry->TextExposition().find(" # {trace_id=") !=
        std::string::npos;
    if (const Metric* m = es0->registry->Find("spans.recorded")) {
      result.es0_spans_recorded = static_cast<const Gauge*>(m)->Value();
    }
  }
  result.console_has_self_metrics =
      system.metrics()->Find("spans.sampler_discarded") != nullptr &&
      system.metrics()->Find("spans.assembly_orphans") != nullptr;
  return result;
}

TEST(SpanEndToEndTest, SqueezeExemplarsResolveToRetainedTxQueueTrees) {
  SpanRunResult run = RunSqueezeScenario();

  // The plane saw real volume: spans were recorded, scraped (with rescrape
  // duplicates — rings are not drained), and tail-sampled down.
  EXPECT_GT(run.ingested, 0u);
  EXPECT_GT(run.duplicates, 0u);
  EXPECT_GT(run.sampler_discarded, 0u);
  EXPECT_GT(run.sampler_retained, 0u);
  EXPECT_GT(run.retained, 0u);
  EXPECT_LE(run.retained, TailSamplerOptions{}.max_retained);
  EXPECT_GT(run.es0_spans_recorded, 0.0);
  EXPECT_TRUE(run.console_has_self_metrics);

  // A deadline-miss exemplar on the play-latency histogram resolves to a
  // retained tree spanning the rebroadcaster and at least one speaker...
  EXPECT_TRUE(run.exemplar_resolved);
  EXPECT_TRUE(run.exemplar_tree_cross_station);
  // ...whose tx-queue wait dwarfs the other producer-side stages: the
  // squeeze moved the latency budget into the transmit queue.
  EXPECT_GT(run.exemplar_tree_tx_queue_ms, run.exemplar_tree_vad_read_ms);
  EXPECT_GT(run.exemplar_tree_tx_queue_ms, 10.0);

  // The critical path over the squeeze window names the tx-queue stage on
  // the rebroadcaster as the dominant contributor.
  EXPECT_EQ(run.squeeze_dominant.rfind("tx_queue @ rb-1", 0), 0u)
      << run.report;
  EXPECT_NE(run.report.find("tx_queue"), std::string::npos);

  // Rendering the same assembler state twice is byte-identical.
  EXPECT_EQ(run.report, run.report_again);

  // Exemplars surface in es-0's OpenMetrics exposition, and the Perfetto
  // export carries real duration slices plus send->receive flow events.
  EXPECT_TRUE(run.exposition_has_exemplar);
  EXPECT_NE(run.perfetto.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(run.perfetto.find("\"ph\": \"s\""), std::string::npos);
  EXPECT_NE(run.perfetto.find("\"ph\": \"f\""), std::string::npos);
}

void ExpectSameReports(const SpanRunResult& a, const SpanRunResult& b) {
  EXPECT_EQ(a.report, b.report);
  EXPECT_EQ(a.perfetto, b.perfetto);
  EXPECT_EQ(a.retained, b.retained);
  EXPECT_EQ(a.sampler_retained, b.sampler_retained);
  EXPECT_EQ(a.sampler_discarded, b.sampler_discarded);
  EXPECT_EQ(a.ingested, b.ingested);
  EXPECT_EQ(a.squeeze_dominant, b.squeeze_dominant);
}

// Run to run, and across zone counts: the planes observe the same merged
// stream and scrape the same stations however the fleet is partitioned.
TEST(SpanEndToEndTest, ReportsAreBitIdenticalAcrossRuns) {
  SpanRunResult a = RunSqueezeScenario();
  SpanRunResult b = RunSqueezeScenario();
  ExpectSameReports(a, b);
  SpanRunResult four_zones = RunSqueezeScenario(/*zones=*/4);
  ExpectSameReports(a, four_zones);
}

// ------------------------------------------------------- Sharded runtime --

// The span plane over a 4-zone, 4-thread sharded system: spans assemble
// from the barrier-merged mirror under a real multi-threaded executor (the
// TSan CI stage runs this), and the Perfetto export splices the collector's
// runtime epoch slices into the same timeline as the span trees.
TEST(SpanEndToEndTest, ShardedPlaneAssemblesOverMergedMirror) {
  SystemOptions sys_options;
  sys_options.sharded.zones = 4;
  sys_options.sharded.threads = 4;
  EthernetSpeakerSystem system(sys_options);
  RebroadcasterOptions rb;
  rb.codec_override = CodecId::kRaw;
  Channel* channel = *system.CreateChannel("music", rb);
  for (int i = 0; i < 8; ++i) {
    SpeakerOptions so;
    so.name = "es-" + std::to_string(i);
    so.decode_speed_factor = 0.05;
    (void)*system.AddSpeaker(so, channel->group);
  }
  SpanPlane* spans = system.EnableSpanTracing();
  ASSERT_NE(spans, nullptr);
  PlayerAppOptions opts;
  opts.config = AudioConfig::CdQuality();
  EXPECT_TRUE(system
                  .StartPlayer(channel,
                               std::make_unique<MusicLikeGenerator>(21), opts)
                  .ok());
  system.RunUntil(Seconds(2));
  spans->Drain();

  const SpanAssembler* assembler = spans->assembler();
  EXPECT_GT(assembler->ingested(), 0u);
  ASSERT_GT(assembler->RetainedTraces().size(), 0u);
  // Trees cross stations exactly as in a one-zone run: a producer span plus
  // receiver spans from speakers homed on different zones.
  bool cross_station = false;
  for (const SpanTree* tree : assembler->RetainedTraces()) {
    std::set<std::string> producers;
    std::set<std::string> receivers;
    for (const std::string& name : tree->stations) {
      (name.rfind("rb-", 0) == 0 ? producers : receivers).insert(name);
    }
    cross_station =
        cross_station || (!producers.empty() && !receivers.empty());
  }
  EXPECT_TRUE(cross_station);

  ZoneCollector* collector = system.zone_collector();
  ASSERT_NE(collector, nullptr);
  EXPECT_GT(collector->barriers_seen(), 0u);
  EXPECT_EQ(collector->merge_lost(), 0u);
  EXPECT_FALSE(collector->epoch_slices().empty());
  const std::string json =
      PerfettoSpanJson(*assembler, RuntimePerfettoEvents(*collector));
  EXPECT_TRUE(CheckJsonSyntax(json).ok());
  EXPECT_NE(json.find("\"cat\": \"runtime\""), std::string::npos);
}

}  // namespace
}  // namespace espk
