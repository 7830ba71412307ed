#include "src/obs/flight_recorder.h"

#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

#include "src/base/json_writer.h"
#include "src/base/logging.h"

namespace espk {

namespace {

double SimMs(SimTime at) { return static_cast<double>(at) / 1e6; }

std::string NumToJson(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

// "speaker.0.deadline_miss_rate" -> "speaker_0_deadline_miss_rate" for a
// filesystem-safe file name.
std::string SanitizeForFilename(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_';
    if (!ok) {
      c = '_';
    }
  }
  return out;
}

}  // namespace

FlightRecorder::FlightRecorder(Simulation* sim, TimeSeriesSampler* sampler,
                               AlertEngine* engine, PacketTracer* tracer,
                               MetricsRegistry* registry,
                               const FlightRecorderOptions& options)
    : sim_(sim),
      sampler_(sampler),
      engine_(engine),
      tracer_(tracer),
      registry_(registry),
      options_(options) {
  engine_->AddListener([this](const AlertTransition& transition) {
    OnTransition(transition);
  });
}

std::string FlightRecorder::BuildPostmortem(
    const AlertTransition& transition) const {
  JsonWriter doc;
  doc.Str("kind", "espk_postmortem");
  doc.Str("alert", transition.rule);
  doc.Bool("firing", transition.firing);
  doc.Num("observed", transition.observed);
  doc.Num("threshold", transition.threshold);
  doc.Num("at_ms", SimMs(transition.at));

  // The rule definition, so the document is self-describing.
  for (const SloRule& rule : engine_->rules()) {
    if (rule.name != transition.rule) {
      continue;
    }
    JsonWriter rule_doc;
    rule_doc.Str("series", rule.series);
    rule_doc.Int("aggregate", static_cast<uint64_t>(rule.aggregate));
    rule_doc.Str("comparison",
                 rule.comparison == AlertComparison::kAbove ? "above"
                                                            : "below");
    rule_doc.Num("threshold", rule.threshold);
    rule_doc.Num("window_ms", SimMs(rule.window));
    rule_doc.Num("for_ms", SimMs(rule.for_duration));
    rule_doc.Num("clear_ms", SimMs(rule.clear_duration));
    rule_doc.Str("help", rule.help);
    doc.Raw("rule", rule_doc.Finish());
    break;
  }

  // Recent window of every sampled series: {"name": [[t_ms, v], ...], ...}.
  {
    std::string series_json = "{";
    bool first_series = true;
    for (const auto& series : sampler_->series()) {
      if (!first_series) {
        series_json += ", ";
      }
      first_series = false;
      series_json += QuoteJsonString(series->name()) + ": [";
      bool first_point = true;
      for (const SeriesPoint& point : series->Tail(options_.series_points)) {
        if (!first_point) {
          series_json += ", ";
        }
        first_point = false;
        series_json += "[" + NumToJson(SimMs(point.at)) + ", " +
                       NumToJson(point.value) + "]";
      }
      series_json += "]";
    }
    series_json += "}";
    doc.Raw("series", series_json);
  }

  // Last N packet-trace events, oldest first, in canonical (at, stream,
  // seq, stage, node) order. The ring itself is in record order, which on
  // the merged mirror can interleave same-instant events from different
  // zones differently on different zone counts; sorting the WHOLE ring
  // before slicing the tail keeps the document identical either way
  // (sorting only the tail would cut same-instant tie groups at different
  // points).
  if (tracer_ != nullptr) {
    std::vector<TraceEvent> events(tracer_->events().begin(),
                                   tracer_->events().end());
    std::sort(events.begin(), events.end(),
              [](const TraceEvent& a, const TraceEvent& b) {
                if (a.at != b.at) return a.at < b.at;
                if (a.stream_id != b.stream_id) {
                  return a.stream_id < b.stream_id;
                }
                if (a.seq != b.seq) return a.seq < b.seq;
                if (a.stage != b.stage) return a.stage < b.stage;
                return a.node < b.node;
              });
    const size_t count =
        events.size() < options_.trace_events ? events.size()
                                              : options_.trace_events;
    std::string trace_json = "[";
    bool first_event = true;
    for (size_t i = events.size() - count; i < events.size(); ++i) {
      const TraceEvent& event = events[i];
      if (!first_event) {
        trace_json += ", ";
      }
      first_event = false;
      JsonWriter event_doc;
      event_doc.Int("stream", event.stream_id);
      event_doc.Int("seq", event.seq);
      event_doc.Str("stage", std::string(TraceStageName(event.stage)));
      event_doc.Int("node", event.node);
      event_doc.Num("at_ms", SimMs(event.at));
      trace_json += event_doc.Finish();
    }
    trace_json += "]";
    doc.Raw("trace", trace_json);
    doc.Int("trace_dropped", tracer_->dropped());
  }

  // Full Prometheus exposition at the moment of the transition — every
  // metric, not just the sampled ones.
  if (registry_ != nullptr) {
    doc.Str("exposition", registry_->TextExposition());
  }

  return doc.Finish();
}

void FlightRecorder::OnTransition(const AlertTransition& transition) {
  if (!transition.firing) {
    return;  // Postmortems capture fires; resolves live in the alert log.
  }
  Postmortem postmortem;
  postmortem.rule = transition.rule;
  postmortem.at = transition.at;
  postmortem.json = BuildPostmortem(transition);
  if (!options_.output_dir.empty()) {
    char at_ms[32];
    std::snprintf(at_ms, sizeof(at_ms), "%lld",
                  static_cast<long long>(transition.at / 1'000'000));
    postmortem.path = options_.output_dir + "/postmortem_" +
                      SanitizeForFilename(transition.rule) + "_" + at_ms +
                      ".json";
    // A short write (a full disk, a file-size limit) or a failed flush on
    // close leaves a truncated file: it counts as a failure like a failed
    // open, and the postmortem keeps no path.
    std::FILE* f = std::fopen(postmortem.path.c_str(), "w");
    bool written = false;
    if (f != nullptr) {
      written = std::fwrite(postmortem.json.data(), 1, postmortem.json.size(),
                            f) == postmortem.json.size();
      written = std::fclose(f) == 0 && written;
    }
    if (!written) {
      ESPK_LOG(kError) << "flight recorder: cannot write "
                       << postmortem.path;
      ++write_failures_;
      postmortem.path.clear();
    }
  }
  postmortems_.push_back(std::move(postmortem));
  while (postmortems_.size() > options_.max_postmortems) {
    postmortems_.pop_front();
  }
  ++recorded_;
  (void)sim_;
}

}  // namespace espk
