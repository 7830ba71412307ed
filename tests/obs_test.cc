#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/base/logging.h"
#include "src/lan/segment.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/simulation.h"

namespace espk {
namespace {

// ----------------------------------------------------------- MetricsRegistry

TEST(MetricsRegistryTest, GetOrRegisterReturnsSameInstance) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("kernel.syscalls", "number of syscalls");
  Counter* b = registry.GetCounter("kernel.syscalls");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a, b);
  a->Increment(3);
  EXPECT_EQ(b->value(), 3u);
  EXPECT_EQ(registry.size(), 1u);
  // Help text from the first registration sticks.
  EXPECT_EQ(registry.Find("kernel.syscalls")->help(), "number of syscalls");
}

TEST(MetricsRegistryTest, KindMismatchReturnsNull) {
  MetricsRegistry registry;
  ScopedLogCapture capture;  // Swallow (and check) the error log.
  ASSERT_NE(registry.GetCounter("x"), nullptr);
  EXPECT_EQ(registry.GetGauge("x", [] { return 1.0; }), nullptr);
  EXPECT_EQ(registry.GetHistogram("x", 0.0, 1.0, 10), nullptr);
  EXPECT_TRUE(capture.Contains("re-registered"));
  EXPECT_EQ(registry.size(), 1u);
}

TEST(MetricsRegistryTest, FindAndRegistrationOrder) {
  MetricsRegistry registry;
  registry.GetCounter("b");
  registry.GetGauge("a", [] { return 2.5; });
  EXPECT_EQ(registry.Find("missing"), nullptr);
  // entries() preserves registration order, not name order — the MIB arcs
  // and the exposition depend on that.
  ASSERT_EQ(registry.size(), 2u);
  EXPECT_EQ(registry.entries()[0]->name(), "b");
  EXPECT_EQ(registry.entries()[1]->name(), "a");
}

TEST(MetricsRegistryTest, ResetAllClearsOwnedMetrics) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("c");
  HistogramMetric* h = registry.GetHistogram("h", 0.0, 10.0, 10);
  double external = 7.0;
  registry.GetGauge("g", [&external] { return external; });
  c->Increment(5);
  h->Observe(3.0);
  registry.ResetAll();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(h->running().count(), 0);
  EXPECT_EQ(h->histogram().count(), 0);
  // Gauges read external state; reset must not touch it.
  EXPECT_EQ(static_cast<const Gauge*>(registry.Find("g"))->Value(), 7.0);
}

TEST(MetricsRegistryTest, PrometheusNameFlattening) {
  EXPECT_EQ(PrometheusName("kernel.silence_bytes"),
            "espk_kernel_silence_bytes");
  EXPECT_EQ(PrometheusName("speaker.0.late-drops"),
            "espk_speaker_0_late_drops");
}

TEST(MetricsRegistryTest, TextExpositionFormat) {
  MetricsRegistry registry;
  registry.GetCounter("kernel.syscalls", "total syscalls")->Increment(12);
  registry.GetGauge("lan.load", [] { return 0.5; }, "wire load");
  HistogramMetric* h = registry.GetHistogram("enc.ms", 0.0, 10.0, 10);
  h->Observe(1.0);
  h->Observe(3.0);
  std::string text = registry.TextExposition();
  EXPECT_NE(text.find("# HELP espk_kernel_syscalls total syscalls\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE espk_kernel_syscalls counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("espk_kernel_syscalls 12\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE espk_lan_load gauge\n"), std::string::npos);
  EXPECT_NE(text.find("espk_lan_load 0.5\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE espk_enc_ms summary\n"), std::string::npos);
  EXPECT_NE(text.find("espk_enc_ms{quantile=\"0.5\"}"), std::string::npos);
  EXPECT_NE(text.find("espk_enc_ms_sum 4\n"), std::string::npos);
  EXPECT_NE(text.find("espk_enc_ms_count 2\n"), std::string::npos);
}

TEST(MetricsRegistryTest, TextExpositionCarriesSimTimestamps) {
  Simulation sim;
  MetricsRegistry registry(&sim);
  registry.GetCounter("c")->Increment();
  sim.ScheduleAt(Milliseconds(1500), [] {});
  sim.Run();
  // Timestamp is the sim clock in milliseconds.
  EXPECT_NE(registry.TextExposition().find("espk_c 1 1500\n"),
            std::string::npos);
}

TEST(MetricsRegistryTest, TextExpositionEscapesHelpText) {
  MetricsRegistry registry;
  registry.GetCounter("c", "first line\nsecond line with a \\ backslash");
  std::string text = registry.TextExposition();
  // The newline and the backslash travel escaped, on one HELP line.
  EXPECT_NE(
      text.find(
          "# HELP espk_c first line\\nsecond line with a \\\\ backslash\n"),
      std::string::npos);
  // No raw newline leaked into the middle of the HELP text: every line of
  // the exposition starts with '#', the metric name, or is empty.
  EXPECT_EQ(text.find("second line with"),
            text.find("\\nsecond line with") + 2);
}

TEST(MetricsRegistryTest, GaugeReaderMayRegisterMetricsDuringExposition) {
  MetricsRegistry registry;
  // A pathological-but-legal gauge that lazily registers a companion metric
  // the first time it is read. The dump must not invalidate itself.
  registry.GetGauge("outer", [&registry] {
    registry.GetCounter("inner.lazy")->Increment();
    return 1.0;
  });
  std::string text = registry.TextExposition();
  EXPECT_NE(text.find("espk_outer 1\n"), std::string::npos);
  EXPECT_NE(text.find("espk_inner_lazy 1\n"), std::string::npos);
  EXPECT_EQ(registry.size(), 2u);
}

TEST(MetricsRegistryTest, ExpositionSurvivesReallocationMidDump) {
  // The re-entrancy contract, stressed: a gauge reader that registers
  // enough metrics mid-dump to force the metrics vector to reallocate.
  // The index loop in TextExposition must keep walking the grown vector
  // without touching freed storage, and every late registration must still
  // be dumped.
  MetricsRegistry registry;
  registry.GetGauge("trigger", [&registry] {
    for (int i = 0; i < 100; ++i) {
      registry.GetCounter("burst." + std::to_string(i))->Increment();
    }
    return 1.0;
  });
  std::string text = registry.TextExposition();
  EXPECT_EQ(registry.size(), 101u);
  EXPECT_NE(text.find("espk_trigger 1\n"), std::string::npos);
  EXPECT_NE(text.find("espk_burst_0 1\n"), std::string::npos);
  EXPECT_NE(text.find("espk_burst_99 1\n"), std::string::npos);
}

// --------------------------------------------------------------- PacketTracer

TEST(PacketTracerTest, RecordAndEventsFor) {
  Simulation sim;
  PacketTracer tracer(&sim);
  tracer.Record(1, 7, TraceStage::kEncode);
  tracer.Record(1, 7, TraceStage::kMulticastSend, 3);
  tracer.Record(1, 8, TraceStage::kEncode);
  auto events = tracer.EventsFor(1, 7);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].stage, TraceStage::kEncode);
  EXPECT_EQ(events[1].stage, TraceStage::kMulticastSend);
  EXPECT_EQ(events[1].node, 3u);
  EXPECT_EQ(tracer.recorded(), 3u);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(PacketTracerTest, ByteAttributionUsesLastByteTime) {
  Simulation sim;
  PacketTracer tracer(&sim);
  // 100 bytes at t=0, 100 more at t=10ms; packet 0 covers bytes [0, 150).
  tracer.NoteBytes(1, TraceStage::kVadWrite, 100);
  sim.ScheduleAt(Milliseconds(10), [&tracer] {
    tracer.NoteBytes(1, TraceStage::kVadWrite, 100);
  });
  sim.Run();
  tracer.AttributeBytes(1, TraceStage::kVadWrite, 150, /*seq=*/0);
  auto events = tracer.EventsFor(1, 0);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].stage, TraceStage::kVadWrite);
  // Byte 150 arrived in the second chunk, at 10 ms.
  EXPECT_EQ(events[0].at, Milliseconds(10));
  // Packet 1 covers bytes [150, 200): same chunk, same time.
  tracer.AttributeBytes(1, TraceStage::kVadWrite, 200, /*seq=*/1);
  events = tracer.EventsFor(1, 1);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].at, Milliseconds(10));
  // The mark for byte 200 was consumed exactly; nothing left to attribute.
  tracer.AttributeBytes(1, TraceStage::kVadWrite, 300, /*seq=*/2);
  EXPECT_TRUE(tracer.EventsFor(1, 2).empty());
}

TEST(PacketTracerTest, ResetStreamDropsPendingMarks) {
  Simulation sim;
  PacketTracer tracer(&sim);
  tracer.NoteBytes(1, TraceStage::kVadWrite, 100);
  tracer.Record(1, 0, TraceStage::kEncode);
  tracer.ResetStream(1);
  tracer.AttributeBytes(1, TraceStage::kVadWrite, 100, /*seq=*/0);
  // The mark is gone, but the packet-addressed event survived.
  auto events = tracer.EventsFor(1, 0);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].stage, TraceStage::kEncode);
}

TEST(PacketTracerTest, AttributionGapAfterMidStreamReset) {
  // A config change mid-stream makes the rebroadcaster flush staged audio
  // and call ResetStream: both sides restart their cumulative byte offsets
  // from zero. The accepted cost is a GAP — packets cut from pre-reset
  // bytes never attribute — but never a misattribution: post-reset packets
  // must resolve to post-reset mark times only.
  Simulation sim;
  PacketTracer tracer(&sim);
  tracer.NoteBytes(1, TraceStage::kVadWrite, 200);  // Pre-reset, at t=0.
  tracer.AttributeBytes(1, TraceStage::kVadWrite, 100, /*seq=*/0);
  ASSERT_EQ(tracer.EventsFor(1, 0).size(), 1u);

  tracer.ResetStream(1);  // Config change mid-stream.

  // Packet 1 covered pre-reset bytes (100, 200]; its marks died with the
  // reset, so it gets no event — the gap, not a guess.
  tracer.AttributeBytes(1, TraceStage::kVadWrite, 200, /*seq=*/1);
  EXPECT_TRUE(tracer.EventsFor(1, 1).empty());

  sim.ScheduleAt(Milliseconds(20), [&tracer] {
    tracer.NoteBytes(1, TraceStage::kVadWrite, 150);  // Post-reset stream.
  });
  sim.Run();

  // Packet 2 is cut from the restarted stream: offsets are zero-based
  // again, and the event time is the post-reset mark, not t=0.
  tracer.AttributeBytes(1, TraceStage::kVadWrite, 150, /*seq=*/2);
  auto events = tracer.EventsFor(1, 2);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].stage, TraceStage::kVadWrite);
  EXPECT_EQ(events[0].at, Milliseconds(20));
}

TEST(PacketTracerTest, RingBoundsAndCountsDrops) {
  Simulation sim;
  PacketTracer tracer(&sim, /*capacity=*/4);
  for (uint32_t seq = 0; seq < 10; ++seq) {
    tracer.Record(1, seq, TraceStage::kEncode);
  }
  EXPECT_EQ(tracer.events().size(), 4u);
  EXPECT_EQ(tracer.recorded(), 10u);
  EXPECT_EQ(tracer.dropped(), 6u);
  // Oldest events went first.
  EXPECT_TRUE(tracer.EventsFor(1, 0).empty());
  EXPECT_EQ(tracer.EventsFor(1, 9).size(), 1u);
}

TEST(PacketTracerTest, StageLatencyAcrossListeners) {
  Simulation sim;
  PacketTracer tracer(&sim);
  tracer.Record(1, 0, TraceStage::kMulticastSend);
  sim.ScheduleAt(Milliseconds(2), [&tracer] {
    tracer.Record(1, 0, TraceStage::kSpeakerReceive, 2);
  });
  sim.ScheduleAt(Milliseconds(4), [&tracer] {
    tracer.Record(1, 0, TraceStage::kSpeakerReceive, 3);
  });
  sim.Run();
  RunningStats latency = tracer.StageLatencyMs(TraceStage::kMulticastSend,
                                               TraceStage::kSpeakerReceive);
  // One sample per listener.
  EXPECT_EQ(latency.count(), 2);
  EXPECT_DOUBLE_EQ(latency.min(), 2.0);
  EXPECT_DOUBLE_EQ(latency.max(), 4.0);
}

TEST(PacketTracerTest, SegmentRecordsQueueDropAsTerminalStage) {
  // A traced packet tail-dropped at the transmit queue must not silently
  // vanish from its lifecycle: the segment records kQueueDrop against the
  // sender's node id.
  Simulation sim;
  PacketTracer tracer(&sim);
  SegmentConfig cfg;
  cfg.bandwidth_bps = 8e3;      // 1000 bytes/sec: packets serialize slowly.
  cfg.tx_queue_limit = 300;     // ~One packet deep.
  EthernetSegment segment(&sim, cfg);
  segment.set_tracer(&tracer);
  auto sender = segment.CreateNic();
  auto receiver = segment.CreateNic();
  ASSERT_TRUE(receiver->JoinGroup(100).ok());

  for (uint32_t seq = 0; seq < 5; ++seq) {
    ASSERT_TRUE(sender
                    ->SendMulticast(100, Bytes(200, 0x11),
                                    TraceTag{7, seq, PacketTraceId(7, seq),
                                             /*valid=*/true})
                    .ok());
  }
  EXPECT_GT(segment.stats().packets_dropped_queue, 0u);
  EXPECT_EQ(segment.stats().packets_dropped_queue + segment.stats().packets_sent,
            5u);
  // Every dropped seq carries exactly one terminal kQueueDrop event,
  // attributed to the sending station.
  size_t drop_events = 0;
  for (uint32_t seq = 0; seq < 5; ++seq) {
    for (const TraceEvent& ev : tracer.EventsFor(7, seq)) {
      ASSERT_EQ(ev.stage, TraceStage::kQueueDrop);
      EXPECT_EQ(ev.node, sender->node_id());
      ++drop_events;
    }
  }
  EXPECT_EQ(drop_events, segment.stats().packets_dropped_queue);
}

TEST(PacketTracerTest, SegmentRecordsLinkLossPerReceiver) {
  Simulation sim;
  PacketTracer tracer(&sim);
  SegmentConfig cfg;
  cfg.loss_probability = 1.0;  // Every delivery is lost.
  EthernetSegment segment(&sim, cfg);
  segment.set_tracer(&tracer);
  auto sender = segment.CreateNic();
  auto rx_a = segment.CreateNic();
  auto rx_b = segment.CreateNic();
  ASSERT_TRUE(rx_a->JoinGroup(100).ok());
  ASSERT_TRUE(rx_b->JoinGroup(100).ok());

  ASSERT_TRUE(sender
                  ->SendMulticast(100, Bytes(64, 0x22),
                                  TraceTag{7, 1, PacketTraceId(7, 1),
                                           /*valid=*/true})
                  .ok());
  sim.Run();
  EXPECT_EQ(segment.stats().deliveries_lost, 2u);
  // One kLinkLoss per losing receiver, attributed to that receiver's node.
  std::vector<TraceEvent> events = tracer.EventsFor(7, 1);
  ASSERT_EQ(events.size(), 2u);
  std::set<uint32_t> lost_nodes;
  for (const TraceEvent& ev : events) {
    EXPECT_EQ(ev.stage, TraceStage::kLinkLoss);
    lost_nodes.insert(ev.node);
  }
  EXPECT_EQ(lost_nodes,
            (std::set<uint32_t>{rx_a->node_id(), rx_b->node_id()}));
}

TEST(PacketTracerTest, UntaggedPacketsNeverTraceTerminalStages) {
  // Plain sends (no TraceTag) through a lossy, drop-prone segment must not
  // pollute the trace ring.
  Simulation sim;
  PacketTracer tracer(&sim);
  SegmentConfig cfg;
  cfg.loss_probability = 1.0;
  cfg.bandwidth_bps = 8e3;
  cfg.tx_queue_limit = 100;
  EthernetSegment segment(&sim, cfg);
  segment.set_tracer(&tracer);
  auto sender = segment.CreateNic();
  auto receiver = segment.CreateNic();
  ASSERT_TRUE(receiver->JoinGroup(100).ok());
  for (int i = 0; i < 5; ++i) {
    (void)sender->SendMulticast(100, Bytes(200, 0x33));
  }
  sim.Run();
  EXPECT_EQ(tracer.recorded(), 0u);
}

TEST(PacketTracerTest, TracerMetricsExposeRingOverrun) {
  Simulation sim;
  MetricsRegistry registry(&sim);
  PacketTracer tracer(&sim, /*capacity=*/4);
  RegisterTracerMetrics({&tracer}, &registry);
  for (uint32_t seq = 0; seq < 10; ++seq) {
    tracer.Record(1, seq, TraceStage::kEncode);
  }
  ASSERT_GT(tracer.dropped(), 0u);  // Ring overran.
  const auto* recorded =
      static_cast<const Gauge*>(registry.Find("trace.events_recorded"));
  const auto* dropped =
      static_cast<const Gauge*>(registry.Find("trace.events_dropped"));
  const auto* size =
      static_cast<const Gauge*>(registry.Find("trace.ring_size"));
  ASSERT_NE(recorded, nullptr);
  ASSERT_NE(dropped, nullptr);
  ASSERT_NE(size, nullptr);
  EXPECT_EQ(recorded->Value(), 10.0);
  EXPECT_EQ(dropped->Value(), 6.0);
  EXPECT_EQ(size->Value(), 4.0);
  // And the overrun shows in the exposition, not just the accessors.
  EXPECT_NE(registry.TextExposition().find("espk_trace_events_dropped 6"),
            std::string::npos);
}

TEST(PacketTracerTest, DumpNamesEveryStage) {
  Simulation sim;
  PacketTracer tracer(&sim);
  tracer.Record(1, 0, TraceStage::kEncode);
  tracer.Record(1, 0, TraceStage::kPlay, 2);
  std::string dump = tracer.Dump(1, 0);
  EXPECT_NE(dump.find("encode"), std::string::npos);
  EXPECT_NE(dump.find("play"), std::string::npos);
  EXPECT_NE(dump.find("node 2"), std::string::npos);
}

}  // namespace
}  // namespace espk
