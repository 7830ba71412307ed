// Health layer tests: time-series sampling, SLO alert hysteresis, flight
// recorder postmortems, Chrome trace export, and the end-to-end fault
// scenario — a deterministic bandwidth squeeze that drives multiple SLO
// rules through fire -> trap-delivered -> resolve.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench/json_lite.h"
#include "src/base/logging.h"
#include "src/core/system.h"
#include "src/mgmt/agent.h"
#include "src/obs/health.h"
#include "src/obs/metrics.h"
#include "src/obs/spans/perfetto.h"

namespace espk {
namespace {

// ---------------------------------------------------------------- TimeSeries

TEST(TimeSeriesTest, RingBoundsAndTailOrder) {
  TimeSeries series("s", /*capacity=*/3);
  for (int i = 0; i < 5; ++i) {
    series.Append(Seconds(i), static_cast<double>(i));
  }
  EXPECT_EQ(series.points().size(), 3u);
  EXPECT_EQ(series.appended(), 5u);
  // Oldest evicted first; Tail returns oldest-first.
  std::vector<SeriesPoint> tail = series.Tail(10);
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail[0].value, 2.0);
  EXPECT_EQ(tail[2].value, 4.0);
  EXPECT_EQ(series.Tail(2).size(), 2u);
  EXPECT_EQ(series.Tail(2)[0].value, 3.0);
  EXPECT_EQ(series.Latest().value_or(-1.0), 4.0);
}

TEST(TimeSeriesTest, WindowRateUsesBaselineBeforeWindowStart) {
  TimeSeries series("counter", 16);
  // A counter sampled every 100 ms, growing 10/sample = 100/s.
  for (int i = 0; i <= 10; ++i) {
    series.Append(Milliseconds(100 * i), 10.0 * i);
  }
  // Window (0.0s, 1.0s]: baseline is the point at exactly 0 s.
  EXPECT_DOUBLE_EQ(series.WindowRatePerSec(Seconds(1), Seconds(1)), 100.0);
  // Short window still spans one full second of growth via its baseline.
  EXPECT_DOUBLE_EQ(
      series.WindowRatePerSec(Seconds(1), Milliseconds(300)), 100.0);
  // Empty series / single point: no rate.
  TimeSeries empty("e", 4);
  EXPECT_EQ(empty.WindowRatePerSec(Seconds(1), Seconds(1)), 0.0);
  empty.Append(Seconds(1), 5.0);
  EXPECT_EQ(empty.WindowRatePerSec(Seconds(1), Seconds(1)), 0.0);
}

TEST(TimeSeriesTest, WindowAggregates) {
  TimeSeries series("gauge", 16);
  series.Append(Milliseconds(100), 4.0);
  series.Append(Milliseconds(200), 8.0);
  series.Append(Milliseconds(300), 6.0);
  const SimTime now = Milliseconds(300);
  EXPECT_DOUBLE_EQ(series.WindowMean(now, Milliseconds(300)), 6.0);
  EXPECT_DOUBLE_EQ(series.WindowMax(now, Milliseconds(300)), 8.0);
  EXPECT_DOUBLE_EQ(series.WindowMin(now, Milliseconds(300)), 4.0);
  // Window excludes points at or before now - window.
  EXPECT_DOUBLE_EQ(series.WindowMean(now, Milliseconds(100)), 6.0);
  EXPECT_EQ(series.WindowMax(Seconds(10), Milliseconds(100)), 0.0);
}

TEST(TimeSeriesTest, WindowQueriesAcrossRingWrap) {
  // Capacity 3; six appends evict the first three, so every window query
  // below runs against a ring that has wrapped twice.
  TimeSeries series("wrapped", /*capacity=*/3);
  for (int i = 1; i <= 6; ++i) {
    series.Append(Seconds(i), 10.0 * i);
  }
  ASSERT_EQ(series.points().size(), 3u);
  ASSERT_EQ(series.appended(), 6u);
  // Aggregates see only the surviving points (t=4,5,6s).
  EXPECT_DOUBLE_EQ(series.WindowMean(Seconds(6), Seconds(3)), 50.0);
  EXPECT_DOUBLE_EQ(series.WindowMax(Seconds(6), Seconds(10)), 60.0);
  EXPECT_DOUBLE_EQ(series.WindowMin(Seconds(6), Seconds(10)), 40.0);
  // A window aimed entirely at the evicted region is empty, not stale.
  EXPECT_DOUBLE_EQ(series.WindowMean(Seconds(3), Seconds(3)), 0.0);
  EXPECT_DOUBLE_EQ(series.WindowMax(Seconds(3), Seconds(3)), 0.0);
  // Rate over a window wider than retained history falls back to the
  // oldest surviving point as baseline: (60-40)/(6s-4s) = 10/s.
  EXPECT_DOUBLE_EQ(series.WindowRatePerSec(Seconds(6), Seconds(10)), 10.0);
}

TEST(TimeSeriesTest, WindowRateWithZeroOrOnePointsInWindow) {
  TimeSeries series("sparse", 16);
  series.Append(Seconds(0), 0.0);
  series.Append(Seconds(5), 50.0);
  // Exactly one point inside (4s, 5s]; the point at 0s serves as the
  // baseline, so the rate spans the real 5 s of growth: 10/s.
  EXPECT_DOUBLE_EQ(series.WindowRatePerSec(Seconds(5), Seconds(1)), 10.0);
  // Window positioned after every point: zero points inside, zero rate.
  EXPECT_DOUBLE_EQ(series.WindowRatePerSec(Seconds(20), Seconds(1)), 0.0);
  // One point in the window and nothing before it: no span, zero rate.
  TimeSeries lone("lone", 16);
  lone.Append(Seconds(5), 50.0);
  EXPECT_DOUBLE_EQ(lone.WindowRatePerSec(Seconds(5), Seconds(1)), 0.0);
  EXPECT_DOUBLE_EQ(lone.WindowRatePerSec(Seconds(5), Seconds(10)), 0.0);
}

// --------------------------------------------------------- TimeSeriesSampler

TEST(SamplerTest, SamplesCountersGaugesAndPercentilesOnSimClock) {
  Simulation sim;
  MetricsRegistry registry(&sim);
  Counter* counter = registry.GetCounter("c");
  double level = 0.0;
  registry.GetGauge("g", [&level] { return level; });
  HistogramMetric* histogram = registry.GetHistogram("h", 0.0, 100.0, 100);

  SamplerOptions options;
  options.period = Milliseconds(100);
  TimeSeriesSampler sampler(&sim, options);
  TimeSeries* c_series = sampler.Watch("c", counter);
  TimeSeries* g_series = sampler.Watch("g", registry.Find("g"));
  TimeSeries* p_series = sampler.WatchPercentile("h", histogram, 0.99);
  ASSERT_NE(c_series, nullptr);
  ASSERT_NE(g_series, nullptr);
  ASSERT_NE(p_series, nullptr);
  EXPECT_EQ(p_series->name(), "h.p99");
  // Histograms need WatchPercentile; plain Watch refuses them.
  {
    ScopedLogCapture capture;
    EXPECT_EQ(sampler.Watch("h", histogram), nullptr);
    EXPECT_EQ(sampler.Watch("missing", registry.Find("missing")), nullptr);
  }

  // Drive the system: counter +1 per 50 ms, gauge follows sim seconds. The
  // sampler owns no timer; its owner ticks it every period.
  PeriodicTask driver(&sim, Milliseconds(50), [&](SimTime now) {
    counter->Increment();
    level = ToSecondsF(now);
    histogram->Observe(42.0);
  });
  PeriodicTask ticker(&sim, sampler.period(),
                      [&](SimTime) { sampler.SampleNow(); });
  driver.Start();
  ticker.Start();
  sim.RunUntil(Seconds(2));

  EXPECT_GE(sampler.ticks(), 19u);
  EXPECT_NEAR(c_series->WindowRatePerSec(Seconds(2), Seconds(1)), 20.0, 1.0);
  EXPECT_GT(g_series->Latest().value_or(0.0), 1.8);
  // Histogram percentiles interpolate within the bucket, so p99 of a
  // constant 42 lands just under 43.
  EXPECT_NEAR(p_series->Latest().value_or(0.0), 42.5, 0.6);

  ticker.Stop();
  uint64_t ticks = sampler.ticks();
  sim.RunUntil(Seconds(3));
  EXPECT_EQ(sampler.ticks(), ticks);  // No tick, no sample.
}

// -------------------------------------------------------------- AlertEngine

// Drives the engine directly against a hand-fed series.
class AlertEngineTest : public ::testing::Test {
 protected:
  AlertEngineTest() : registry_(&sim_), sampler_(&sim_) {
    signal_ = registry_.GetCounter("sig");
    series_ = sampler_.Watch("sig", signal_);
  }

  Simulation sim_;
  MetricsRegistry registry_;
  TimeSeriesSampler sampler_;
  Counter* signal_ = nullptr;
  TimeSeries* series_ = nullptr;
};

TEST_F(AlertEngineTest, HysteresisHoldsThroughForAndClearDurations) {
  AlertEngine engine(&sampler_);
  engine.AddRule({.name = "high",
                  .series = "sig",
                  .aggregate = AlertAggregate::kLatest,
                  .comparison = AlertComparison::kAbove,
                  .threshold = 10.0,
                  .for_duration = Milliseconds(250),
                  .clear_duration = Milliseconds(250)});

  auto step = [&](SimTime at, uint64_t value) {
    series_->Append(at, static_cast<double>(value));
    engine.Evaluate(at);
  };

  step(Milliseconds(100), 5);
  EXPECT_EQ(engine.StateOf("high"), AlertState::kInactive);
  // Breach begins: pending, not yet firing.
  step(Milliseconds(200), 20);
  EXPECT_EQ(engine.StateOf("high"), AlertState::kPending);
  // A dip resets the pending clock.
  step(Milliseconds(300), 5);
  EXPECT_EQ(engine.StateOf("high"), AlertState::kInactive);
  // Sustained breach: fires once for_duration has been held.
  step(Milliseconds(400), 20);
  step(Milliseconds(500), 20);
  EXPECT_EQ(engine.StateOf("high"), AlertState::kPending);
  step(Milliseconds(700), 20);
  EXPECT_EQ(engine.StateOf("high"), AlertState::kFiring);
  EXPECT_EQ(engine.fired_total(), 1u);
  EXPECT_EQ(engine.ActiveAlerts(), std::vector<std::string>{"high"});
  // Recovery: clearing, with relapse pushing back to firing silently.
  step(Milliseconds(800), 5);
  EXPECT_EQ(engine.StateOf("high"), AlertState::kClearing);
  step(Milliseconds(900), 20);
  EXPECT_EQ(engine.StateOf("high"), AlertState::kFiring);
  EXPECT_EQ(engine.fired_total(), 1u);  // Relapse is not a second fire.
  // Clean recovery held for clear_duration resolves.
  step(Milliseconds(1000), 5);
  step(Milliseconds(1300), 5);
  EXPECT_EQ(engine.StateOf("high"), AlertState::kInactive);
  EXPECT_EQ(engine.resolved_total(), 1u);
  ASSERT_EQ(engine.log().size(), 2u);
  EXPECT_TRUE(engine.log()[0].firing);
  EXPECT_FALSE(engine.log()[1].firing);
  EXPECT_EQ(engine.log()[1].rule, "high");
  EXPECT_EQ(engine.TransitionsOf("high"), 2u);
}

TEST_F(AlertEngineTest, ZeroDurationsFireAndResolveImmediately) {
  AlertEngine engine(&sampler_);
  engine.AddRule({.name = "instant",
                  .series = "sig",
                  .threshold = 10.0});
  series_->Append(Milliseconds(100), 20.0);
  engine.Evaluate(Milliseconds(100));
  EXPECT_EQ(engine.StateOf("instant"), AlertState::kFiring);
  series_->Append(Milliseconds(200), 0.0);
  engine.Evaluate(Milliseconds(200));
  EXPECT_EQ(engine.StateOf("instant"), AlertState::kInactive);
  EXPECT_EQ(engine.fired_total(), 1u);
  EXPECT_EQ(engine.resolved_total(), 1u);
}

TEST_F(AlertEngineTest, LowWatermarkRuleArmsOnlyAfterHealthySignal) {
  AlertEngine engine(&sampler_);
  engine.AddRule({.name = "starved",
                  .series = "sig",
                  .aggregate = AlertAggregate::kLatest,
                  .comparison = AlertComparison::kBelow,
                  .threshold = 10.0,
                  .requires_arming = true});
  // The signal starts at zero — breached, but the rule is not armed, so it
  // must not fire at boot.
  series_->Append(Milliseconds(100), 0.0);
  engine.Evaluate(Milliseconds(100));
  EXPECT_EQ(engine.StateOf("starved"), AlertState::kInactive);
  EXPECT_EQ(engine.fired_total(), 0u);
  // Healthy once: armed.
  series_->Append(Milliseconds(200), 50.0);
  engine.Evaluate(Milliseconds(200));
  // Starvation now fires.
  series_->Append(Milliseconds(300), 0.0);
  engine.Evaluate(Milliseconds(300));
  EXPECT_EQ(engine.StateOf("starved"), AlertState::kFiring);
}

TEST_F(AlertEngineTest, RegistryAttachedEnginePublishesStateGauges) {
  AlertEngine engine(&sampler_, &registry_);
  engine.AddRule({.name = "high", .series = "sig", .threshold = 10.0});
  const auto* state =
      static_cast<const Gauge*>(registry_.Find("alert.high.state"));
  const auto* value =
      static_cast<const Gauge*>(registry_.Find("alert.high.value"));
  const auto* transitions =
      static_cast<const Gauge*>(registry_.Find("alert.high.transitions"));
  ASSERT_NE(state, nullptr);
  ASSERT_NE(value, nullptr);
  ASSERT_NE(transitions, nullptr);
  EXPECT_EQ(state->Value(), 0.0);
  series_->Append(Milliseconds(100), 42.0);
  engine.Evaluate(Milliseconds(100));
  EXPECT_EQ(state->Value(), static_cast<double>(AlertState::kFiring));
  EXPECT_EQ(value->Value(), 42.0);
  EXPECT_EQ(transitions->Value(), 1.0);
  // And therefore in the Prometheus exposition too.
  EXPECT_NE(registry_.TextExposition().find("espk_alert_high_state 2"),
            std::string::npos);
}

TEST_F(AlertEngineTest, RuleOverMissingSeriesStaysQuiet) {
  AlertEngine engine(&sampler_);
  engine.AddRule({.name = "ghost", .series = "nope", .threshold = -1.0});
  engine.Evaluate(Milliseconds(100));
  // Aggregate over a missing series is 0.0, which breaches "> -1" — the
  // point is it must not crash; state machinery still runs.
  EXPECT_EQ(engine.StateOf("ghost"), AlertState::kFiring);
  EXPECT_EQ(engine.StateOf("unknown-rule"), AlertState::kInactive);
}

// ------------------------------------------------------------ FlightRecorder

TEST(FlightRecorderTest, FiringTransitionProducesValidPostmortem) {
  Simulation sim;
  MetricsRegistry registry(&sim);
  Counter* signal = registry.GetCounter("sig", "test signal");
  PacketTracer tracer(&sim);
  TimeSeriesSampler sampler(&sim);
  sampler.Watch("sig", signal);
  AlertEngine engine(&sampler, &registry);
  engine.AddRule({.name = "high",
                  .series = "sig",
                  .threshold = 10.0,
                  .help = "signal too high"});
  FlightRecorderOptions options;
  options.trace_events = 8;
  options.series_points = 4;
  FlightRecorder recorder(&sampler, &engine, &tracer, &registry, options);

  for (uint32_t seq = 0; seq < 20; ++seq) {
    tracer.Record(1, seq, TraceStage::kEncode, 3);
  }
  sim.ScheduleAt(Milliseconds(500), [&] {
    signal->Increment(42);
    sampler.SampleNow();
    engine.Evaluate(sim.now());
  });
  sim.Run();

  ASSERT_EQ(recorder.recorded(), 1u);
  ASSERT_EQ(recorder.postmortems().size(), 1u);
  const Postmortem& postmortem = recorder.postmortems().front();
  EXPECT_EQ(postmortem.rule, "high");
  EXPECT_EQ(postmortem.at, Milliseconds(500));
  EXPECT_TRUE(postmortem.path.empty());  // Memory-only by default.

  const std::string& json = postmortem.json;
  // The whole nested document is syntactically valid JSON.
  Status syntax = CheckJsonSyntax(json);
  EXPECT_TRUE(syntax.ok()) << syntax.ToString();
  // Key sections present: alert identity, rule, series tail, trace window,
  // full exposition.
  EXPECT_NE(json.find("\"alert\": \"high\""), std::string::npos);
  EXPECT_NE(json.find("\"observed\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"help\": \"signal too high\""), std::string::npos);
  EXPECT_NE(json.find("\"sig\": [["), std::string::npos);
  EXPECT_NE(json.find("\"stage\": \"encode\""), std::string::npos);
  EXPECT_NE(json.find("espk_sig 42"), std::string::npos);
  // Only the last `trace_events` tracer events are included.
  EXPECT_EQ(json.find("\"seq\": 11"), std::string::npos);
  EXPECT_NE(json.find("\"seq\": 19"), std::string::npos);

  // Resolves do not add postmortems.
  sim.ScheduleAt(Seconds(1), [&] {
    registry.ResetAll();
    sampler.SampleNow();
    engine.Evaluate(sim.now());
  });
  sim.Run();
  EXPECT_EQ(engine.resolved_total(), 1u);
  EXPECT_EQ(recorder.recorded(), 1u);
}

// What a recorder writing to `output_dir` kept after one firing transition.
struct RecordedFire {
  uint64_t recorded = 0;
  uint64_t write_failures = 0;
  std::deque<Postmortem> postmortems;
};

// Fires rule "speaker.0.high" once, at 500 ms, with 300 tracer events in
// the trace window (a postmortem of tens of kilobytes).
RecordedFire FireOnceInto(const std::string& output_dir) {
  Simulation sim;
  MetricsRegistry registry(&sim);
  Counter* signal = registry.GetCounter("sig", "test signal");
  PacketTracer tracer(&sim);
  TimeSeriesSampler sampler(&sim);
  sampler.Watch("sig", signal);
  AlertEngine engine(&sampler, &registry);
  engine.AddRule({.name = "speaker.0.high",
                  .series = "sig",
                  .threshold = 10.0,
                  .help = "signal too high"});
  FlightRecorderOptions options;
  options.output_dir = output_dir;
  FlightRecorder recorder(&sampler, &engine, &tracer, &registry, options);
  for (uint32_t seq = 0; seq < 300; ++seq) {
    tracer.Record(1, seq, TraceStage::kEncode, 3);
  }
  sim.ScheduleAt(Milliseconds(500), [&] {
    signal->Increment(42);
    sampler.SampleNow();
    engine.Evaluate(sim.now());
  });
  sim.Run();
  return {recorder.recorded(), recorder.write_failures(),
          recorder.postmortems()};
}

// A fresh directory under the test temp dir, removed with its contents.
class ScopedTempDir {
 public:
  ScopedTempDir() {
    std::string name = ::testing::TempDir() + "/espk_postmortem_XXXXXX";
    if (mkdtemp(name.data()) != nullptr) {
      path_ = name;
    }
  }
  ~ScopedTempDir() {
    if (!path_.empty()) {
      std::filesystem::remove_all(path_);
    }
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(FlightRecorderTest, PostmortemFileHoldsExactlyTheDocument) {
  ScopedTempDir dir;
  ASSERT_FALSE(dir.path().empty());
  const RecordedFire fire = FireOnceInto(dir.path());
  ASSERT_EQ(fire.postmortems.size(), 1u);
  const Postmortem& postmortem = fire.postmortems.front();
  EXPECT_EQ(fire.write_failures, 0u);
  EXPECT_EQ(postmortem.path,
            dir.path() + "/postmortem_speaker_0_high_500.json");
  std::ifstream file(postmortem.path, std::ios::binary);
  ASSERT_TRUE(file.good());
  std::ostringstream contents;
  contents << file.rdbuf();
  EXPECT_EQ(contents.str(), postmortem.json);
}

TEST(FlightRecorderTest, MissingOutputDirCountsAFailureAndKeepsMemoryCopy) {
  ScopedTempDir dir;
  ASSERT_FALSE(dir.path().empty());
  const RecordedFire fire = FireOnceInto(dir.path() + "/missing");
  EXPECT_EQ(fire.recorded, 1u);
  EXPECT_EQ(fire.write_failures, 1u);
  ASSERT_EQ(fire.postmortems.size(), 1u);
  EXPECT_TRUE(fire.postmortems.front().path.empty());
  EXPECT_TRUE(CheckJsonSyntax(fire.postmortems.front().json).ok());
}

// Lowers this process's file-size limit to `bytes` (with SIGXFSZ ignored,
// so an oversized write fails with EFBIG instead of killing the process)
// and restores both on scope exit.
class ScopedFileSizeLimit {
 public:
  explicit ScopedFileSizeLimit(rlim_t bytes) {
    std::fflush(nullptr);  // Nothing buffered may flush under the limit.
    previous_handler_ = std::signal(SIGXFSZ, SIG_IGN);
    getrlimit(RLIMIT_FSIZE, &previous_);
    rlimit limited = previous_;
    limited.rlim_cur = std::min(bytes, previous_.rlim_max);
    applied_ = setrlimit(RLIMIT_FSIZE, &limited) == 0;
  }
  ~ScopedFileSizeLimit() {
    setrlimit(RLIMIT_FSIZE, &previous_);
    std::signal(SIGXFSZ, previous_handler_);
  }
  bool applied() const { return applied_; }

 private:
  rlimit previous_{};
  void (*previous_handler_)(int) = nullptr;
  bool applied_ = false;
};

TEST(FlightRecorderTest, TruncatedPostmortemCountsAsAFailedWrite) {
  ScopedTempDir dir;
  ASSERT_FALSE(dir.path().empty());
  RecordedFire fire;
  {
    ScopedFileSizeLimit limit(16);
    ASSERT_TRUE(limit.applied());
    fire = FireOnceInto(dir.path());
  }
  EXPECT_EQ(fire.write_failures, 1u);
  ASSERT_EQ(fire.postmortems.size(), 1u);
  EXPECT_TRUE(fire.postmortems.front().path.empty());
  EXPECT_GT(fire.postmortems.front().json.size(), 16u);
}

TEST(FlightRecorderTest, PostmortemRingIsBounded) {
  Simulation sim;
  MetricsRegistry registry(&sim);
  Counter* signal = registry.GetCounter("sig");
  TimeSeriesSampler sampler(&sim);
  sampler.Watch("sig", signal);
  AlertEngine engine(&sampler);
  engine.AddRule({.name = "flappy", .series = "sig", .threshold = 10.0});
  FlightRecorderOptions options;
  options.max_postmortems = 3;
  FlightRecorder recorder(&sampler, &engine, nullptr, nullptr, options);

  // Flap the alert 5 times across sim time.
  for (int i = 0; i < 5; ++i) {
    sim.ScheduleAt(Seconds(1 + 2 * i), [&] {
      signal->Increment(100);
      sampler.SampleNow();
      engine.Evaluate(sim.now());
    });
    sim.ScheduleAt(Seconds(2 + 2 * i), [&] {
      registry.ResetAll();
      sampler.SampleNow();
      engine.Evaluate(sim.now());
    });
  }
  sim.Run();
  EXPECT_EQ(recorder.recorded(), 5u);
  EXPECT_EQ(recorder.postmortems().size(), 3u);
  // The survivors are the newest three fires.
  EXPECT_EQ(recorder.postmortems().front().at, Seconds(5));
  EXPECT_EQ(recorder.postmortems().back().at, Seconds(9));
}

// --------------------------------------------------------------- ChromeTrace

TEST(ChromeTraceTest, ExportIsValidJsonWithInstantAndSpanEvents) {
  Simulation sim;
  PacketTracer tracer(&sim);
  tracer.Record(1, 7, TraceStage::kEncode, 2);
  sim.ScheduleAt(Milliseconds(3), [&] {
    tracer.Record(1, 7, TraceStage::kPlay, 5);
    tracer.Record(2, 1, TraceStage::kEncode, 2);  // Single-stage packet.
  });
  sim.Run();

  std::string json = ChromeTraceJson(tracer);
  Status syntax = CheckJsonSyntax(json);
  ASSERT_TRUE(syntax.ok()) << syntax.ToString();
  // Instant events per stage, on the (pid = stream, tid = node) track.
  EXPECT_NE(json.find("\"name\": \"encode\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"play\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  // Async begin/end span for the multi-stage packet only.
  EXPECT_NE(json.find("\"name\": \"pkt 1:7\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"e\""), std::string::npos);
  EXPECT_EQ(json.find("\"pkt 2:1\""), std::string::npos);
  // Timestamps in microseconds: the play event sits at 3000 us.
  EXPECT_NE(json.find("\"ts\": 3000.000"), std::string::npos);
}

TEST(ChromeTraceTest, EmptyTracerExportsEmptyEventArray) {
  Simulation sim;
  PacketTracer tracer(&sim);
  std::string json = ChromeTraceJson(tracer);
  EXPECT_TRUE(CheckJsonSyntax(json).ok());
  EXPECT_NE(json.find("\"traceEvents\": ["), std::string::npos);
}

// ---------------------------------------------------- JSON syntax validator

TEST(JsonSyntaxTest, AcceptsNestedAndRejectsMalformed) {
  EXPECT_TRUE(CheckJsonSyntax("{\"a\": [1, 2, {\"b\": null}], \"c\": -1e3}")
                  .ok());
  EXPECT_TRUE(CheckJsonSyntax("[]").ok());
  EXPECT_TRUE(CheckJsonSyntax("\"str with \\u00e9 and \\n\"").ok());
  EXPECT_FALSE(CheckJsonSyntax("{\"a\": }").ok());
  EXPECT_FALSE(CheckJsonSyntax("{\"a\": 1,}").ok());
  EXPECT_FALSE(CheckJsonSyntax("{\"a\": 1} trailing").ok());
  EXPECT_FALSE(CheckJsonSyntax("\"unterminated").ok());
  EXPECT_FALSE(CheckJsonSyntax("{\"bad\nnewline\": 1}").ok());
  EXPECT_FALSE(CheckJsonSyntax("\"bad \\uZZZZ escape\"").ok());
}

// ------------------------------------------------- End-to-end fault scenario

struct SqueezeRunResult {
  std::string trap_log;
  std::string postmortems;
  std::string chrome_trace;
  std::set<std::string> fired_rules;
  std::set<std::string> resolved_rules;
  uint64_t traps_received = 0;
  uint32_t max_trap_seq = 0;
  uint64_t sequence_gaps = 0;
  uint64_t sequence_gaps_counter = 0;
  std::set<std::string> engine_fired_rules;
  AlertState queue_drop_final = AlertState::kInactive;
  AlertState sync_drift_final = AlertState::kInactive;
  bool postmortems_valid = false;
  bool chrome_trace_valid = false;
};

// A raw CD-quality stream through a healthy 100 Mbps segment; at t=6s the
// segment is squeezed to 1 Mbps (less than the stream needs), backing up
// and overflowing the shallow transmit queue; at t=14s bandwidth is
// restored. Entirely deterministic — no randomness anywhere in the fault.
SqueezeRunResult RunBandwidthSqueezeScenario() {
  SystemOptions sys_options;
  sys_options.lan.tx_queue_limit = 64 * 1024;
  EthernetSpeakerSystem system(sys_options);
  RebroadcasterOptions rb;
  rb.codec_override = CodecId::kRaw;
  Channel* channel = *system.CreateChannel("music", rb);
  SpeakerOptions so;
  so.name = "es";
  so.decode_speed_factor = 0.05;
  EthernetSpeaker* speaker = *system.AddSpeaker(so, channel->group);

  EthernetSpeakerSystem::HealthRuleDefaults rules;
  rules.queue_drop_rate_per_sec = 1.0;
  rules.deadline_miss_rate_per_sec = 1.0;
  HealthMonitor* health = system.EnableHealthMonitoring({}, rules);

  // Trap path: the speaker's management agent watches the engine and the
  // console collects the traps.
  SpeakerAgent agent(system.sim(), system.NicOf(speaker), speaker);
  agent.WatchAlerts(health->engine());
  auto console_nic = system.lan()->CreateNic();
  MetricsRegistry console_metrics(system.sim());
  MgmtConsole console(system.sim(), console_nic.get(), &console_metrics);

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
  system.RunUntil(Seconds(24));

  SqueezeRunResult result;
  for (const MgmtTrap& trap : console.trap_log()) {
    std::ostringstream os;
    os << trap.trap_seq << " " << trap.source << " "
       << (trap.firing ? "FIRE" : "RESOLVE") << " " << trap.rule << " "
       << trap.observed << " " << trap.threshold << " " << trap.at << "\n";
    result.trap_log += os.str();
    (trap.firing ? result.fired_rules : result.resolved_rules)
        .insert(trap.rule);
    if (trap.trap_seq > result.max_trap_seq) {
      result.max_trap_seq = trap.trap_seq;
    }
  }
  result.traps_received = console.traps_received();
  result.sequence_gaps = console.sequence_gaps();
  if (const Metric* gaps = console_metrics.Find("trap.sequence_gaps")) {
    result.sequence_gaps_counter =
        static_cast<const Counter*>(gaps)->value();
  }
  for (const AlertTransition& transition : health->engine()->log()) {
    if (transition.firing) {
      result.engine_fired_rules.insert(transition.rule);
    }
  }
  result.postmortems_valid = !health->recorder()->postmortems().empty();
  for (const Postmortem& postmortem : health->recorder()->postmortems()) {
    result.postmortems += postmortem.json;
    result.postmortems_valid =
        result.postmortems_valid && CheckJsonSyntax(postmortem.json).ok();
  }
  result.chrome_trace = ChromeTraceJson(*system.tracer());
  result.chrome_trace_valid = CheckJsonSyntax(result.chrome_trace).ok();
  result.queue_drop_final =
      health->engine()->StateOf("lan.queue_drop_rate");
  result.sync_drift_final =
      health->engine()->StateOf("speaker.0.sync_drift");
  return result;
}

TEST(HealthEndToEndTest, BandwidthSqueezeFiresTrapsAndRecovers) {
  SqueezeRunResult run = RunBandwidthSqueezeScenario();

  // The squeeze starves the speaker (silence), skews playback (sync
  // drift), and overflows the transmit queue (queue drops): three distinct
  // SLO rules fire on the engine.
  EXPECT_GE(run.engine_fired_rules.size(), 3u) << run.trap_log;
  EXPECT_TRUE(run.engine_fired_rules.count("lan.queue_drop_rate"))
      << run.trap_log;
  EXPECT_TRUE(run.engine_fired_rules.count("speaker.0.sync_drift"))
      << run.trap_log;
  EXPECT_TRUE(run.engine_fired_rules.count("speaker.0.silence_rate"))
      << run.trap_log;
  // At least two of them complete the full fire -> trap-delivered ->
  // resolve cycle at the console.
  EXPECT_GE(run.fired_rules.size(), 2u) << run.trap_log;
  ASSERT_TRUE(run.fired_rules.count("speaker.0.sync_drift")) << run.trap_log;
  ASSERT_TRUE(run.fired_rules.count("speaker.0.silence_rate"))
      << run.trap_log;
  EXPECT_TRUE(run.resolved_rules.count("speaker.0.sync_drift"))
      << run.trap_log;
  EXPECT_TRUE(run.resolved_rules.count("speaker.0.silence_rate"))
      << run.trap_log;
  EXPECT_GE(run.traps_received, 4u);
  // The queue-drop FIRE trap is itself a casualty of the congestion it
  // reports — multicast onto the overflowing segment and tail-dropped. The
  // per-sender trap sequence makes the loss visible as a gap at the
  // console (its RESOLVE trap, sent on the healthy wire, does arrive).
  EXPECT_TRUE(run.resolved_rules.count("lan.queue_drop_rate"))
      << run.trap_log;
  EXPECT_GT(run.max_trap_seq, run.traps_received) << run.trap_log;
  // The console detects exactly those losses from the per-sender sequence
  // numbers: one gap per trap the wire swallowed, surfaced both through the
  // accessor and the trap.sequence_gaps counter.
  EXPECT_EQ(run.sequence_gaps, run.max_trap_seq - run.traps_received)
      << run.trap_log;
  EXPECT_GE(run.sequence_gaps, 1u) << run.trap_log;
  EXPECT_EQ(run.sequence_gaps_counter, run.sequence_gaps);
  // Ten seconds after the squeeze lifted, everything is quiet again.
  EXPECT_EQ(run.queue_drop_final, AlertState::kInactive) << run.trap_log;
  EXPECT_EQ(run.sync_drift_final, AlertState::kInactive) << run.trap_log;
  // The flight recorder captured the incident as parseable postmortems, and
  // the packet trace exports as a parseable Chrome trace.
  EXPECT_TRUE(run.postmortems_valid);
  EXPECT_NE(run.postmortems.find("lan.queue_drop_rate"), std::string::npos);
  EXPECT_TRUE(run.chrome_trace_valid);
  EXPECT_NE(run.chrome_trace.find("queue_drop"), std::string::npos);
}

TEST(HealthEndToEndTest, FaultScenarioIsBitIdenticalAcrossRuns) {
  SqueezeRunResult a = RunBandwidthSqueezeScenario();
  SqueezeRunResult b = RunBandwidthSqueezeScenario();
  EXPECT_EQ(a.trap_log, b.trap_log);
  EXPECT_EQ(a.postmortems, b.postmortems);
  EXPECT_EQ(a.chrome_trace, b.chrome_trace);
}

// Health monitoring over a 4-zone, 4-thread sharded system: the sampler
// ticks at epoch barriers (the TSan CI path for barrier-time gauge reads),
// the default runtime rule installs, and postmortems stay valid JSON. A
// mid-run bandwidth squeeze drives the queue-drop rule through a real fire.
TEST(HealthEndToEndTest, ShardedMonitorTicksAtBarriers) {
  SystemOptions sys_options;
  sys_options.sharded.zones = 4;
  sys_options.sharded.threads = 4;
  sys_options.lan.tx_queue_limit = 64 * 1024;
  EthernetSpeakerSystem system(sys_options);
  RebroadcasterOptions rb;
  rb.codec_override = CodecId::kRaw;
  Channel* channel = *system.CreateChannel("music", rb);
  for (int i = 0; i < 4; ++i) {
    SpeakerOptions so;
    so.name = "es-" + std::to_string(i);
    so.decode_speed_factor = 0.05;
    (void)*system.AddSpeaker(so, channel->group);
  }
  EthernetSpeakerSystem::HealthRuleDefaults rules;
  rules.queue_drop_rate_per_sec = 1.0;
  HealthMonitor* health = system.EnableHealthMonitoring({}, rules);
  ASSERT_NE(health, nullptr);
  EXPECT_TRUE(health->running());
  ASSERT_NE(system.zone_collector(), nullptr);

  PlayerAppOptions opts;
  opts.config = AudioConfig::CdQuality();
  EXPECT_TRUE(system
                  .StartPlayer(channel,
                               std::make_unique<MusicLikeGenerator>(21), opts)
                  .ok());
  system.RunUntil(Seconds(2));
  system.lan()->set_bandwidth_bps(1e6);
  system.RunUntil(Seconds(4));
  system.lan()->set_bandwidth_bps(100e6);
  system.RunUntil(Seconds(6));

  // Barrier-driven ticks land exactly on the 100 ms period grid.
  EXPECT_EQ(health->sampler()->ticks(), 60u);
  bool queue_drop_fired = false;
  for (const AlertTransition& transition : health->engine()->log()) {
    queue_drop_fired = queue_drop_fired ||
                       (transition.firing &&
                        transition.rule == "lan.queue_drop_rate");
  }
  EXPECT_TRUE(queue_drop_fired);
  // The default runtime self-telemetry rule is installed and evaluated.
  const std::string status = health->StatusText();
  EXPECT_NE(status.find("runtime.barrier_stall"), std::string::npos);
  ASSERT_FALSE(health->recorder()->postmortems().empty());
  for (const Postmortem& postmortem : health->recorder()->postmortems()) {
    EXPECT_TRUE(CheckJsonSyntax(postmortem.json).ok());
  }
}

TEST(HealthEndToEndTest, HealthySystemStaysQuiet) {
  // The default rules must not flap on a perfectly healthy run.
  EthernetSpeakerSystem system;
  Channel* channel = *system.CreateChannel("music");
  SpeakerOptions so;
  so.decode_speed_factor = 0.05;
  (void)*system.AddSpeaker(so, channel->group);
  HealthMonitor* health = system.EnableHealthMonitoring();
  PlayerAppOptions opts;
  opts.config = AudioConfig::CdQuality();
  ASSERT_TRUE(system
                  .StartPlayer(channel,
                               std::make_unique<MusicLikeGenerator>(22), opts)
                  .ok());
  system.RunUntil(Seconds(10));
  EXPECT_EQ(health->engine()->fired_total(), 0u)
      << health->StatusText();
  EXPECT_TRUE(health->recorder()->postmortems().empty());
  EXPECT_GT(health->sampler()->ticks(), 90u);
}

}  // namespace
}  // namespace espk
