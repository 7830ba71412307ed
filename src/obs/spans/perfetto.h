// The Trace Event Format writers: everything the system exports for
// ui.perfetto.dev and chrome://tracing. Timestamps are the sim clock in
// microseconds, so every export is bit-identical across runs.
//
//  - PerfettoSpanJson: assembled span trees as real duration events
//    ("ph":"X") — one slice per span, laid out with one track (tid) per
//    station and one process (pid) per stream — plus flow events
//    ("ph":"s" / "ph":"f") connecting each send to its N receive children,
//    so the fan-out renders as arrows across station tracks.
//  - ChromeTraceJson: the raw, unsampled PacketTracer ring as instant
//    events, for runs without the span plane.
//  - RuntimePerfettoEvents: the ZoneCollector's epoch slices, ready to
//    splice into PerfettoSpanJson's timeline.
#ifndef SRC_OBS_SPANS_PERFETTO_H_
#define SRC_OBS_SPANS_PERFETTO_H_

#include <string>

namespace espk {

class PacketTracer;
class SpanAssembler;
class ZoneCollector;

// JSON object in Trace Event Format, covering every retained trace in
// retention order. Deterministic for a given assembler state.
std::string PerfettoSpanJson(const SpanAssembler& assembler);

// Same, with extra pre-rendered Trace Event Format objects (comma-joined,
// no enclosing array — e.g. RuntimePerfettoEvents()) spliced into the
// traceEvents array, so runtime epoch slices land in the same timeline as
// the span trees.
std::string PerfettoSpanJson(const SpanAssembler& assembler,
                             const std::string& extra_events);

// Every event in the tracer's ring, rendered on a real timeline: each
// lifecycle stage becomes an instant event ("ph":"i") on track (pid =
// stream, tid = station), and each packet that reached at least two stages
// additionally gets an async begin/end pair ("ph":"b"/"e") spanning first
// stage to last, so a packet reads as one horizontal bar with its stage
// marks on top.
std::string ChromeTraceJson(const PacketTracer& tracer);

// Trace Event Format objects for the collector's retained epoch slices —
// comma-joined, no enclosing array — ready to splice into PerfettoSpanJson's
// traceEvents via its extra_events parameter. Each zone gets an "epoch"
// slice per epoch on pid 999 ("espk runtime"), tid = zone, with wall-clock
// run/wait and drained counts in args.
std::string RuntimePerfettoEvents(const ZoneCollector& collector);

}  // namespace espk

#endif  // SRC_OBS_SPANS_PERFETTO_H_
