// Distributed telemetry plane tests: glob matching, the collector-side
// store, the query engine against hand-computed values, the federated
// exposition format, and the end-to-end scenario — a five-speaker fleet
// scraped over a segment that gets squeezed hard enough to force timeouts,
// retries, and staleness, then recovers. Everything runs on the simulated
// clock, so the fault history is asserted bit-identical across runs.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/core/system.h"
#include "src/obs/federation/fleet.h"
#include "src/obs/federation/query.h"
#include "src/obs/federation/render.h"
#include "src/obs/federation/sample.h"
#include "src/obs/federation/store.h"

namespace espk {
namespace {

// ----------------------------------------------------------------- Globs --

TEST(GlobMatchTest, StarsQuestionMarksAndLiterals) {
  EXPECT_TRUE(GlobMatch("es-0", "es-0"));
  EXPECT_FALSE(GlobMatch("es-0", "es-1"));
  EXPECT_TRUE(GlobMatch("*", ""));
  EXPECT_TRUE(GlobMatch("*", "anything"));
  EXPECT_TRUE(GlobMatch("es-*", "es-12"));
  EXPECT_FALSE(GlobMatch("es-*", "rb-1"));
  EXPECT_TRUE(GlobMatch("es-?", "es-7"));
  EXPECT_FALSE(GlobMatch("es-?", "es-12"));
  EXPECT_TRUE(GlobMatch("*drops", "speaker.late_drops"));
  EXPECT_TRUE(GlobMatch("*.late_*", "speaker.late_drops"));
  // Backtracking: the first '*' must not swallow the 'b' the pattern needs.
  EXPECT_TRUE(GlobMatch("*b*c", "abxbyc"));
  EXPECT_FALSE(GlobMatch("*b*c", "ac"));
  EXPECT_TRUE(GlobMatch("", ""));
  EXPECT_FALSE(GlobMatch("", "x"));
}

// ----------------------------------------------------------------- Store --

MetricSample NumericSample(const std::string& name, Metric::Kind kind,
                           double value) {
  MetricSample sample;
  sample.name = name;
  sample.kind = kind;
  sample.value = value;
  return sample;
}

TEST(FleetStoreTest, IngestSeriesAndStaleness) {
  FleetStore store(/*series_capacity=*/4);
  // A station nobody has heard from reads as stale, not as missing.
  EXPECT_TRUE(store.IsStale("es-0"));
  EXPECT_EQ(store.FindStation("es-0"), nullptr);

  for (int t = 1; t <= 6; ++t) {
    StationSnapshot snap;
    snap.station = "es-0";
    snap.at = Seconds(t);
    snap.samples.push_back(NumericSample(
        "speaker.late_drops", Metric::Kind::kCounter, 10.0 * t));
    snap.samples.push_back(NumericSample(
        "speaker.queued_pcm_bytes", Metric::Kind::kGauge, 100.0 + t));
    store.Ingest(snap, Seconds(t));
  }
  EXPECT_FALSE(store.IsStale("es-0"));
  const FleetStore::StationRecord* record = store.FindStation("es-0");
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->ingests, 6u);
  EXPECT_EQ(record->last_ingest_at, Seconds(6));
  EXPECT_EQ(record->metrics.size(), 2u);
  const MetricSample* latest = store.FindLatest("es-0", "speaker.late_drops");
  ASSERT_NE(latest, nullptr);
  EXPECT_DOUBLE_EQ(latest->value, 60.0);
  // The per-metric series is a bounded ring: six ingests, four retained.
  const TimeSeries* series = store.FindSeries("es-0", "speaker.late_drops");
  ASSERT_NE(series, nullptr);
  EXPECT_EQ(series->appended(), 6u);
  EXPECT_EQ(series->points().size(), 4u);
  EXPECT_DOUBLE_EQ(series->Latest().value_or(-1.0), 60.0);

  // Staleness is the collector's verdict: set by MarkStale, cleared by the
  // next successful ingest.
  store.MarkStale("es-0");
  EXPECT_TRUE(store.IsStale("es-0"));
  StationSnapshot again;
  again.station = "es-0";
  again.at = Seconds(7);
  store.Ingest(again, Seconds(7));
  EXPECT_FALSE(store.IsStale("es-0"));
  // Marking an unknown station creates a stale, data-free record so a
  // never-answering target still shows up in read-outs.
  store.MarkStale("ghost");
  EXPECT_TRUE(store.IsStale("ghost"));
  std::vector<std::string> stations = store.Stations();
  ASSERT_EQ(stations.size(), 2u);
  EXPECT_EQ(stations[0], "es-0");
  EXPECT_EQ(stations[1], "ghost");
}

// ----------------------------------------------------------------- Query --

std::vector<QueryRow> MustRun(const FleetStore& store, const std::string& q,
                              SimTime now) {
  Result<QueryOutput> out = RunQuery(store, q, now);
  EXPECT_TRUE(out.ok()) << q << ": " << out.status().ToString();
  return out.ok() ? out->rows : std::vector<QueryRow>{};
}

TEST(QueryEngineTest, HandComputedAggregatesAndRates) {
  FleetStore store(16);
  // es-0's counter grows 10/s, es-1's 5/s, sampled once a second.
  for (int t = 0; t <= 4; ++t) {
    for (const auto& [station, slope] :
         std::vector<std::pair<std::string, double>>{{"es-0", 10.0},
                                                     {"es-1", 5.0}}) {
      StationSnapshot snap;
      snap.station = station;
      snap.at = Seconds(t);
      snap.samples.push_back(NumericSample(
          "speaker.late_drops", Metric::Kind::kCounter, slope * t));
      store.Ingest(snap, Seconds(t));
    }
  }
  const SimTime now = Seconds(4);

  std::vector<QueryRow> instant =
      MustRun(store, "speaker.late_drops{station=\"es-*\"}", now);
  ASSERT_EQ(instant.size(), 2u);
  EXPECT_EQ(instant[0].station, "es-0");
  EXPECT_EQ(instant[0].metric, "speaker.late_drops");
  EXPECT_DOUBLE_EQ(instant[0].value, 40.0);
  EXPECT_EQ(instant[1].station, "es-1");
  EXPECT_DOUBLE_EQ(instant[1].value, 20.0);

  // Aggregators over the latest values {40, 20}, all hand-computed.
  EXPECT_DOUBLE_EQ(MustRun(store, "sum(speaker.late_drops)", now)[0].value,
                   60.0);
  EXPECT_DOUBLE_EQ(MustRun(store, "avg(speaker.late_drops)", now)[0].value,
                   30.0);
  EXPECT_DOUBLE_EQ(MustRun(store, "max(speaker.late_drops)", now)[0].value,
                   40.0);
  EXPECT_DOUBLE_EQ(MustRun(store, "min(speaker.late_drops)", now)[0].value,
                   20.0);
  EXPECT_DOUBLE_EQ(MustRun(store, "count(speaker.late_drops)", now)[0].value,
                   2.0);

  std::vector<QueryRow> grouped =
      MustRun(store, "avg by (station) (speaker.late_drops)", now);
  ASSERT_EQ(grouped.size(), 2u);
  EXPECT_EQ(grouped[0].station, "es-0");
  EXPECT_DOUBLE_EQ(grouped[0].value, 40.0);
  EXPECT_DOUBLE_EQ(grouped[1].value, 20.0);

  // rate() over the stored series: slope recovered exactly, per station.
  std::vector<QueryRow> rates =
      MustRun(store, "rate(speaker.late_drops[4s])", now);
  ASSERT_EQ(rates.size(), 2u);
  EXPECT_DOUBLE_EQ(rates[0].value, 10.0);
  EXPECT_DOUBLE_EQ(rates[1].value, 5.0);
  EXPECT_DOUBLE_EQ(
      MustRun(store, "sum(rate(speaker.late_drops[4s]))", now)[0].value,
      15.0);
  EXPECT_DOUBLE_EQ(
      MustRun(store, "sum(speaker.late_drops{station=\"es-1\"})",
              now)[0].value,
      20.0);

  // A valid query matching nothing: zero rows, except count() which says 0.
  EXPECT_TRUE(MustRun(store, "no.such.metric", now).empty());
  EXPECT_TRUE(MustRun(store, "sum(no.such.metric)", now).empty());
  std::vector<QueryRow> count_none = MustRun(store, "count(no.such.*)", now);
  ASSERT_EQ(count_none.size(), 1u);
  EXPECT_DOUBLE_EQ(count_none[0].value, 0.0);
}

TEST(QueryEngineTest, QuantileFromStoredHistogram) {
  FleetStore store(16);
  StationSnapshot snap;
  snap.station = "es-0";
  snap.at = Seconds(1);
  MetricSample histogram;
  histogram.name = "speaker.lateness_ms";
  histogram.kind = Metric::Kind::kHistogram;
  histogram.histogram.lo = 0.0;
  histogram.histogram.hi = 100.0;
  histogram.histogram.buckets.assign(10, 0);
  histogram.histogram.buckets[2] = 4;  // All four samples land in [20, 30).
  histogram.histogram.count = 4;
  histogram.histogram.sum = 100.0;
  histogram.value = 100.0;
  snap.samples.push_back(histogram);
  snap.samples.push_back(NumericSample("speaker.late_drops",
                                       Metric::Kind::kCounter, 7.0));
  store.Ingest(snap, Seconds(1));
  const SimTime now = Seconds(1);

  // Linear interpolation inside the only occupied bucket, by hand:
  // q=0.25 -> 22.5, q=0.5 -> 25, q=1.0 -> 30 (the bucket's upper edge).
  EXPECT_DOUBLE_EQ(
      MustRun(store, "quantile(0.25, speaker.lateness_ms)", now)[0].value,
      22.5);
  EXPECT_DOUBLE_EQ(
      MustRun(store, "quantile(0.5, speaker.lateness_ms)", now)[0].value,
      25.0);
  EXPECT_DOUBLE_EQ(
      MustRun(store, "quantile(1.0, speaker.lateness_ms)", now)[0].value,
      30.0);
  // quantile() only speaks histogram: the counter is silently skipped even
  // though the glob matches it.
  std::vector<QueryRow> rows = MustRun(store, "quantile(0.5, speaker.*)", now);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].metric, "speaker.lateness_ms");
}

TEST(QueryEngineTest, RejectsBadSyntaxWithInvalidArgument) {
  FleetStore store(4);
  for (const char* bad : {
           "",
           "avg by (speaker) (m)",   // Only `by (station)` exists.
           "rate(m[5x])",            // Bad duration unit.
           "rate(m)",                // rate() needs a window.
           "quantile(1.5, m)",       // Out-of-range quantile.
           "m{label=\"x\"}",         // Only the station label exists.
           "m{station=\"x}",         // Unterminated string.
           "sum(m) trailing",
       }) {
    Result<QueryOutput> out = RunQuery(store, bad, Seconds(1));
    EXPECT_FALSE(out.ok()) << "accepted: " << bad;
    EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument) << bad;
  }
  // An aggregator keyword not applied as one is an ordinary metric glob.
  StationSnapshot snap;
  snap.station = "s";
  snap.at = Seconds(1);
  snap.samples.push_back(NumericSample("count", Metric::Kind::kGauge, 7.0));
  store.Ingest(snap, Seconds(1));
  std::vector<QueryRow> rows = MustRun(store, "count", Seconds(1));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_DOUBLE_EQ(rows[0].value, 7.0);
}

// ------------------------------------------------------------ Exposition --

// Structural check over the Prometheus text format: comment lines are HELP
// or TYPE, every sample line is `name{station="..."[,quantile="..."]} value`
// with a fully parseable value.
void ValidateExposition(const std::string& text) {
  size_t samples = 0;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    ASSERT_NE(end, std::string::npos) << "exposition must end with newline";
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty()) {
      continue;
    }
    if (line[0] == '#') {
      EXPECT_TRUE(line.rfind("# HELP ", 0) == 0 ||
                  line.rfind("# TYPE ", 0) == 0)
          << line;
      continue;
    }
    const size_t brace = line.find("{station=\"");
    ASSERT_NE(brace, std::string::npos) << line;
    EXPECT_GT(brace, 0u) << line;
    const size_t close = line.find("} ", brace);
    ASSERT_NE(close, std::string::npos) << line;
    const std::string value = line.substr(close + 2);
    char* parse_end = nullptr;
    (void)std::strtod(value.c_str(), &parse_end);
    EXPECT_EQ(parse_end, value.c_str() + value.size()) << line;
    ++samples;
  }
  EXPECT_GT(samples, 0u);
}

TEST(FederatedExpositionTest, RendersFamiliesWithStationLabels) {
  FleetStore store(8);
  for (const char* station : {"es-0", "es-1"}) {
    StationSnapshot snap;
    snap.station = station;
    snap.at = Seconds(2);
    snap.samples.push_back(NumericSample("speaker.late_drops",
                                         Metric::Kind::kCounter, 3.0));
    MetricSample histogram;
    histogram.name = "speaker.lateness_ms";
    histogram.kind = Metric::Kind::kHistogram;
    histogram.histogram.lo = 0.0;
    histogram.histogram.hi = 10.0;
    histogram.histogram.buckets.assign(10, 0);
    histogram.histogram.buckets[0] = 2;
    histogram.histogram.count = 2;
    histogram.histogram.sum = 1.0;
    snap.samples.push_back(histogram);
    store.Ingest(snap, Seconds(2));
  }
  store.MarkStale("es-1");
  const std::string text = FederatedExposition(store);
  ValidateExposition(text);
  // Scrape health leads, one row per station.
  EXPECT_NE(text.find("espk_up{station=\"es-0\"} 1\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("espk_up{station=\"es-1\"} 0\n"), std::string::npos)
      << text;
  // One family, HELP/TYPE once, a labelled line per station.
  EXPECT_NE(text.find("# TYPE espk_speaker_late_drops counter"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("espk_speaker_late_drops{station=\"es-0\"} 3\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("espk_speaker_late_drops{station=\"es-1\"} 3\n"),
            std::string::npos)
      << text;
  // Histograms federate as summaries with quantile labels plus _sum/_count.
  EXPECT_NE(
      text.find("espk_speaker_lateness_ms{station=\"es-0\",quantile=\"0.5\"}"),
      std::string::npos)
      << text;
  EXPECT_NE(text.find("espk_speaker_lateness_ms_count{station=\"es-0\"} 2\n"),
            std::string::npos)
      << text;
}

TEST(FederatedExpositionTest, EscapesHelpTextScrapedOffTheWire) {
  // HELP text is whatever the station put on the mgmt wire. A raw newline
  // in it must stay inside the HELP line, not inject a sample.
  StationSnapshot snap;
  snap.station = "es-9";
  snap.at = Seconds(1);
  MetricSample sample =
      NumericSample("speaker.late_drops", Metric::Kind::kCounter, 3.0);
  sample.help = "drops\nespk_injected{station=\"es-9\"} 1e9";
  snap.samples.push_back(sample);
  Result<StationSnapshot> received =
      StationSnapshot::Deserialize(snap.Serialize());
  ASSERT_TRUE(received.ok());
  FleetStore store(8);
  store.Ingest(*received, Seconds(1));
  const std::string text = FederatedExposition(store);
  ValidateExposition(text);
  EXPECT_EQ(text.find("\nespk_injected"), std::string::npos) << text;
  EXPECT_NE(text.find("# HELP espk_speaker_late_drops "
                      "drops\\nespk_injected{station=\"es-9\"} 1e9\n"),
            std::string::npos)
      << text;
}

// ------------------------------------------------------------ End to end --

// Five speakers and one channel, the fleet plane scraping all seven
// stations (console locally, es-0..4 and rb-1 over the wire). At t=6s the
// segment is squeezed to 1 Mbps — below the raw CD stream's needs — so the
// transmit queue overflows and scrape traffic is starved along with the
// audio; at t=14s bandwidth is restored. Deterministic end to end.
struct FleetRunResult {
  std::vector<std::string> stations;
  std::set<std::string> stale_mid_squeeze;
  int stale_at_end = 0;
  uint64_t cycles = 0;
  uint64_t attempts = 0;
  uint64_t successes = 0;
  uint64_t timeouts = 0;
  uint64_t retries = 0;
  uint64_t misses = 0;
  uint64_t stale_transitions = 0;
  uint64_t chunks_received = 0;
  uint64_t scrape_timeouts_counter = 0;
  uint64_t es0_ingests = 0;
  double query_sum_chunks = 0.0;
  double hand_sum_chunks = 0.0;
  double query_rate_es0 = 0.0;
  double hand_rate_es0 = 0.0;
  std::string exposition;
  std::string dashboard;
};

FleetRunResult RunFleetScenario() {
  SystemOptions sys_options;
  sys_options.lan.tx_queue_limit = 64 * 1024;
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
  system.sim()->ScheduleAt(Seconds(14), [&system] {
    system.lan()->set_bandwidth_bps(100e6);
  });

  FleetRunResult result;
  // Deep into the squeeze, which remote stations has the collector written
  // off as stale?
  system.sim()->ScheduleAt(Seconds(13), [&result, &plane] {
    for (const std::string& station : plane.store()->Stations()) {
      if (plane.store()->IsStale(station)) {
        result.stale_mid_squeeze.insert(station);
      }
    }
  });
  system.RunUntil(Seconds(24));

  const FleetStore& store = *plane.store();
  result.stations = store.Stations();
  for (const std::string& station : result.stations) {
    result.stale_at_end += store.IsStale(station) ? 1 : 0;
  }
  FleetCollector* collector = plane.collector();
  result.cycles = collector->cycles();
  result.attempts = collector->attempts();
  result.successes = collector->successes();
  result.timeouts = collector->timeouts();
  result.retries = collector->retries();
  result.misses = collector->misses();
  result.stale_transitions = collector->stale_transitions();
  result.chunks_received = collector->chunks_received();
  if (const Metric* m = system.metrics()->Find("scrape.timeouts")) {
    result.scrape_timeouts_counter = static_cast<const Counter*>(m)->value();
  }
  if (const FleetStore::StationRecord* record = store.FindStation("es-0")) {
    result.es0_ingests = record->ingests;
  }

  // Query engine vs the same numbers read straight out of the store.
  const SimTime now = system.sim()->now();
  Result<QueryOutput> sum = RunQuery(
      store, "sum(speaker.chunks_played{station=\"es-*\"})", now);
  if (sum.ok() && !sum->rows.empty()) {
    result.query_sum_chunks = sum->rows[0].value;
  }
  for (int i = 0; i < 5; ++i) {
    const MetricSample* latest = store.FindLatest(
        "es-" + std::to_string(i), "speaker.chunks_played");
    if (latest != nullptr) {
      result.hand_sum_chunks += latest->value;
    }
  }
  Result<QueryOutput> rate = RunQuery(
      store, "rate(speaker.packets_received{station=\"es-0\"}[5s])", now);
  if (rate.ok() && !rate->rows.empty()) {
    result.query_rate_es0 = rate->rows[0].value;
  }
  if (const TimeSeries* series =
          store.FindSeries("es-0", "speaker.packets_received")) {
    result.hand_rate_es0 = series->WindowRatePerSec(now, Seconds(5));
  }

  result.exposition = FederatedExposition(store);
  DashboardOptions dash;
  dash.queries = {
      "sum(speaker.chunks_played{station=\"es-*\"})",
      "avg by (station) (speaker.late_drops)",
      "rate(speaker.packets_received{station=\"es-*\"}[5s])",
  };
  result.dashboard = RenderFleetDashboard(store, now, dash);
  return result;
}

// The rebroadcaster's encode metrics measure real host CPU — the one
// legitimately nondeterministic signal — so determinism comparisons drop
// any line mentioning them (same convention as the health-layer tests).
std::string StripEncodeLines(const std::string& text) {
  std::string out;
  size_t start = 0;
  while (start <= text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) {
      end = text.size();
    }
    const std::string line = text.substr(start, end - start);
    if (line.find("encode") == std::string::npos && !line.empty()) {
      out += line;
      out.push_back('\n');
    }
    start = end + 1;
  }
  return out;
}

TEST(FederationEndToEndTest, FleetScrapeSurvivesBandwidthSqueeze) {
  FleetRunResult run = RunFleetScenario();

  // All seven stations exist in the store: the local console, five
  // speakers, and the channel's rebroadcaster.
  ASSERT_EQ(run.stations.size(), 7u);
  EXPECT_EQ(run.stations[0], "console");
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(run.stations[1 + i], "es-" + std::to_string(i));
  }
  EXPECT_EQ(run.stations[6], "rb-1");

  // The squeeze starves the scrape path: attempts time out, retries fire,
  // whole cycles miss, and targets go stale mid-squeeze...
  EXPECT_GT(run.timeouts, 0u);
  EXPECT_GT(run.retries, 0u);
  EXPECT_GT(run.misses, 0u);
  EXPECT_GE(run.stale_transitions, 1u);
  EXPECT_FALSE(run.stale_mid_squeeze.empty());
  // ...but never the local console, which is ingested without the wire.
  EXPECT_EQ(run.stale_mid_squeeze.count("console"), 0u);
  // After the squeeze lifts, every station is scraped fresh again.
  EXPECT_EQ(run.stale_at_end, 0);
  EXPECT_GT(run.successes, run.timeouts == 0 ? 0u : 5u);
  EXPECT_GT(run.chunks_received, 0u);
  EXPECT_GT(run.es0_ingests, 5u);
  // Self-telemetry mirrors into the console registry as scrape.* counters.
  EXPECT_EQ(run.scrape_timeouts_counter, run.timeouts);
  // Accounting sanity: every attempt either succeeded, timed out, or was
  // still in flight at shutdown; retries are attempts beyond the first.
  EXPECT_GE(run.attempts, run.successes + run.timeouts);
  EXPECT_LE(run.attempts - run.retries,
            run.cycles * 7u);  // First attempts <= cycles * targets.

  // The query engine agrees with values read straight out of the store.
  EXPECT_GT(run.hand_sum_chunks, 0.0);
  EXPECT_EQ(run.query_sum_chunks, run.hand_sum_chunks);
  EXPECT_GT(run.hand_rate_es0, 0.0);
  EXPECT_EQ(run.query_rate_es0, run.hand_rate_es0);

  // The federated exposition parses and reports every station fresh.
  ValidateExposition(run.exposition);
  for (const std::string& station : run.stations) {
    EXPECT_NE(
        run.exposition.find("espk_up{station=\"" + station + "\"} 1\n"),
        std::string::npos)
        << station;
  }
  // The dashboard carries the station table and the query sections.
  EXPECT_NE(run.dashboard.find("==== FLEET DASHBOARD @"), std::string::npos);
  EXPECT_NE(run.dashboard.find("es-4"), std::string::npos);
  EXPECT_NE(run.dashboard.find(">> sum(speaker.chunks_played"),
            std::string::npos);
  EXPECT_EQ(run.dashboard.find("STALE"), std::string::npos) << run.dashboard;
}

TEST(FederationEndToEndTest, FaultHistoryIsBitIdenticalAcrossRuns) {
  FleetRunResult a = RunFleetScenario();
  FleetRunResult b = RunFleetScenario();
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.stale_transitions, b.stale_transitions);
  EXPECT_EQ(a.stale_mid_squeeze, b.stale_mid_squeeze);
  EXPECT_EQ(a.query_sum_chunks, b.query_sum_chunks);
  EXPECT_EQ(StripEncodeLines(a.exposition), StripEncodeLines(b.exposition));
  EXPECT_EQ(StripEncodeLines(a.dashboard), StripEncodeLines(b.dashboard));
}

}  // namespace
}  // namespace espk
