#include "src/obs/spans/perfetto.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <utility>

#include "src/obs/spans/assembler.h"
#include "src/obs/trace.h"
#include "src/obs/zone_collector.h"

namespace espk {

namespace {

void AppendF(std::string* out, const char* format, ...) {
  char buf[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  *out += buf;
}

// Sim nanoseconds -> trace microseconds, with sub-microsecond precision.
double TraceTs(SimTime at) { return static_cast<double>(at) / 1000.0; }

// Opens and closes a JSON object in Trace Event Format.
constexpr char kTraceBegin[] =
    "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
constexpr char kTraceEnd[] = "\n]}\n";

// Starts the next object of a comma-joined event list, one per line.
void NextEvent(std::string* out, bool* first) {
  if (!*first) {
    *out += ",";
  }
  *first = false;
  *out += "\n";
}

const char* FateName(uint8_t flags) {
  if (flags & kSpanFlagQueueDrop) {
    return "queue_drop";
  }
  if (flags & kSpanFlagLinkLoss) {
    return "link_loss";
  }
  if (flags & kSpanFlagDeadlineMiss) {
    return "deadline_miss";
  }
  return "ok";
}

}  // namespace

std::string PerfettoSpanJson(const SpanAssembler& assembler) {
  return PerfettoSpanJson(assembler, std::string());
}

std::string PerfettoSpanJson(const SpanAssembler& assembler,
                             const std::string& extra_events) {
  std::string out = kTraceBegin;
  bool first = true;

  for (const SpanTree* tree : assembler.RetainedTraces()) {
    const Span* root = tree->root();
    for (size_t i = 0; i < tree->spans.size(); ++i) {
      const Span& s = tree->spans[i];
      NextEvent(&out, &first);
      // Duration slice on the station's track. Zero-length spans still get
      // a minimal slice so they are clickable.
      AppendF(&out,
              "{\"name\": \"%.*s\", \"cat\": \"span\", \"ph\": \"X\", "
              "\"ts\": %.3f, \"dur\": %.3f, \"pid\": %u, \"tid\": %u, "
              "\"args\": {\"trace_id\": \"%016" PRIx64
              "\", \"seq\": %u, \"station\": \"%s\", \"fate\": \"%s\"}}",
              static_cast<int>(SpanStageName(s.stage).size()),
              SpanStageName(s.stage).data(), TraceTs(s.start),
              TraceTs(s.duration() > 0 ? s.duration() : 1), s.stream_id,
              s.station, s.trace_id, s.seq, tree->stations[i].c_str(),
              FateName(s.flags));
    }
    if (root == nullptr) {
      continue;
    }
    // Flow arrows: one outgoing step at the sender's root, one incoming
    // terminator at each receiver's kReceive span. Perfetto draws these as
    // the 1-to-N fan-out across station tracks.
    NextEvent(&out, &first);
    AppendF(&out,
            "{\"name\": \"fanout\", \"cat\": \"flow\", \"ph\": \"s\", "
            "\"id\": %" PRIu64
            ", \"ts\": %.3f, \"pid\": %u, \"tid\": %u}",
            root->trace_id, TraceTs(root->start), root->stream_id,
            root->station);
    for (const Span& s : tree->spans) {
      if (s.stage != SpanStage::kReceive) {
        continue;
      }
      NextEvent(&out, &first);
      AppendF(&out,
              "{\"name\": \"fanout\", \"cat\": \"flow\", \"ph\": \"f\", "
              "\"bp\": \"e\", \"id\": %" PRIu64
              ", \"ts\": %.3f, \"pid\": %u, \"tid\": %u}",
              s.trace_id, TraceTs(s.start), s.stream_id, s.station);
    }
  }
  if (!extra_events.empty()) {
    NextEvent(&out, &first);
    out += extra_events;
  }
  out += kTraceEnd;
  return out;
}

std::string ChromeTraceJson(const PacketTracer& tracer) {
  std::string out = kTraceBegin;
  bool first = true;

  // First/last event per packet for the async span.
  std::map<std::pair<uint32_t, uint32_t>, std::pair<SimTime, SimTime>> spans;
  for (const TraceEvent& event : tracer.events()) {
    NextEvent(&out, &first);
    AppendF(&out,
            "{\"name\": \"%.*s\", \"ph\": \"i\", \"s\": \"t\", "
            "\"ts\": %.3f, \"pid\": %u, \"tid\": %u, "
            "\"args\": {\"seq\": %u}}",
            static_cast<int>(TraceStageName(event.stage).size()),
            TraceStageName(event.stage).data(), TraceTs(event.at),
            event.stream_id, event.node, event.seq);
    auto key = std::pair{event.stream_id, event.seq};
    auto it = spans.find(key);
    if (it == spans.end()) {
      spans.emplace(key, std::pair{event.at, event.at});
    } else {
      // Ring order is NOT guaranteed chronological once RecordAt stages
      // (wire_tx, decode_start) are present; track the extremes explicitly.
      it->second.first = std::min(it->second.first, event.at);
      it->second.second = std::max(it->second.second, event.at);
    }
  }
  for (const auto& [key, range] : spans) {
    if (range.second <= range.first) {
      continue;  // Single-stage packets have no extent to draw.
    }
    const uint64_t id =
        (static_cast<uint64_t>(key.first) << 32) | key.second;
    NextEvent(&out, &first);
    AppendF(&out,
            "{\"name\": \"pkt %u:%u\", \"cat\": \"packet\", \"ph\": \"b\", "
            "\"id\": %llu, \"ts\": %.3f, \"pid\": %u, \"tid\": 0}",
            key.first, key.second, static_cast<unsigned long long>(id),
            TraceTs(range.first), key.first);
    NextEvent(&out, &first);
    AppendF(&out,
            "{\"name\": \"pkt %u:%u\", \"cat\": \"packet\", \"ph\": \"e\", "
            "\"id\": %llu, \"ts\": %.3f, \"pid\": %u, \"tid\": 0}",
            key.first, key.second, static_cast<unsigned long long>(id),
            TraceTs(range.second), key.first);
  }
  out += kTraceEnd;
  return out;
}

std::string RuntimePerfettoEvents(const ZoneCollector& collector) {
  std::string out;
  bool first = true;
  for (const ZoneCollector::EpochSlice& slice : collector.epoch_slices()) {
    NextEvent(&out, &first);
    // Sim-time slice of the epoch on the zone's runtime track; the wall
    // side (run/wait) rides in args rather than as slice geometry, since
    // the timeline is simulated time.
    AppendF(&out,
            "{\"name\": \"epoch\", \"cat\": \"runtime\", \"ph\": \"X\", "
            "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 999, \"tid\": %d, "
            "\"args\": {\"run_ns\": %llu, \"barrier_wait_ns\": %llu, "
            "\"drained\": %llu}}",
            TraceTs(slice.start), TraceTs(slice.end - slice.start), slice.zone,
            static_cast<unsigned long long>(slice.run_ns),
            static_cast<unsigned long long>(slice.wait_ns),
            static_cast<unsigned long long>(slice.drained));
  }
  return out;
}

}  // namespace espk
