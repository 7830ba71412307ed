// Per-layer unit costs, each measured by replaying a workload's own inputs
// through one module's public API in isolation: the producer on a capturing
// Transport, then the captured wire bytes through ParsePacket, the decoder,
// a lone EthernetSpeaker, and a standalone EthernetSegment fan-out. The
// traced run multiplies these unit costs by the same layer's counts in the
// real run to attribute the run's wall time.
#ifndef PERFBENCH_HARNESS_REPLAYS_H_
#define PERFBENCH_HARNESS_REPLAYS_H_

#include "harness/bench_trace.h"
#include "harness/workload.h"

namespace perfbench {

struct ReplayCosts {
  double rebroadcast_ns_per_packet = 0.0;  // Codec and VAD time excluded.
  double vad_ns_per_kb = 0.0;              // Player write + master read.
  double encode_ns_per_frame = 0.0;
  double decode_ns_per_frame = 0.0;
  double parse_ns_per_packet = 0.0;
  // Per speaker data packet: admit + decode + play, plus this packet's
  // share of the parse.
  double speaker_ns_per_packet = 0.0;
  double fanout_ns_per_delivery = 0.0;
  double sim_ns_per_event = 0.0;
  double trace_ns_per_event = 0.0;  // PacketTracer::Record, no observer.
  // False (with `error` set) when a replay could not run or its output was
  // wrong, e.g. a captured packet failed to parse or decode.
  bool ok = true;
  std::string error;
};

// Speakers that share one parse of a datagram: one zone's members of one
// group for a zoned workload, else a lone speaker.
int SpeakerBatchMembers(const WorkloadSpec& spec);

ReplayCosts RunReplays(const WorkloadSpec& spec, const Inputs& inputs,
                       BenchTrace* trace);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_REPLAYS_H_
