// Per-packet cost of the causal span plane: the full system path (player ->
// VAD -> rebroadcaster -> 5 speakers over the simulated segment) is driven
// for a fixed stretch of simulated time in three configurations and the
// host-side wall clock per data packet is compared:
//
//   off      - PacketTracer present, no span observer (the pre-span-plane
//              configuration). This is the regression gate that matters:
//              enabling the span *code* must not slow down systems that
//              never call EnableSpanTracing().
//   sampling - span plane on with the default tail sampler (errors + the
//              slowest 10% survive). The intended production shape.
//   full     - span plane on retaining every trace. Upper bound; what an
//              exhaustive debugging session pays.
//
// A fourth tier repeats the off/full pair on the sharded runtime (4 zones,
// 4 executor threads): the span plane there records into per-zone tracers
// merged at the epoch barrier, so this measures what barrier-time merging
// adds on top of sharding itself. Because merged-mirror observability is
// bit-identical to the classic plane, the sharded packet and retained
// counts must EQUAL the classic ones — a structural gate, not a tolerance.
//
// The emitted BENCH_trace.json is validated by bench_gate against
// bench/baselines/BENCH_trace_baseline.json: the structural fields
// (sampling retained <= full retained, sampler actually discarding,
// sharded counts equal to classic) are hard gates; the ns/packet numbers
// get the shared-machine noise margin. `--quick` (used by the
// espk_bench_smoke ctest) shortens the simulated window.
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>

#include "bench/bench_util.h"
#include "src/core/system.h"
#include "src/obs/spans/plane.h"

namespace espk {
namespace {

constexpr int kSchemaVersion = 1;
constexpr int kSpeakers = 5;
constexpr int kShardedZones = 4;

enum class SpanMode { kOff, kSampling, kFull };

struct TraceMeasurement {
  uint64_t packets = 0;
  double ns_per_packet = 0.0;
  uint64_t retained = 0;
  uint64_t discarded = 0;
};

TraceMeasurement MeasureMode(SpanMode mode, int sim_seconds, int zones = 1) {
  using Clock = std::chrono::steady_clock;
  SystemOptions sys_options;
  sys_options.sharded.zones = zones;
  sys_options.sharded.threads = zones;
  EthernetSpeakerSystem system(sys_options);
  RebroadcasterOptions rb;
  rb.codec_override = CodecId::kRaw;
  Channel* channel = *system.CreateChannel("music", rb);
  for (int i = 0; i < kSpeakers; ++i) {
    SpeakerOptions so;
    so.name = "es-" + std::to_string(i);
    so.decode_speed_factor = 0.05;
    (void)*system.AddSpeaker(so, channel->group);
  }
  SpanPlane* spans = nullptr;
  if (mode != SpanMode::kOff) {
    SpanPlaneOptions options;
    // Rings sized so nothing wraps before the end-of-run Drain(): the
    // bench measures recording cost, not scrape cadence.
    options.recorder_capacity = 1 << 16;
    if (mode == SpanMode::kFull) {
      options.sampler.keep_slowest_fraction = 1.0;
      options.sampler.max_retained = 1 << 16;
    }
    spans = system.EnableSpanTracing(options);
  }
  PlayerAppOptions opts;
  opts.config = AudioConfig::CdQuality();
  if (!system
           .StartPlayer(channel, std::make_unique<MusicLikeGenerator>(21),
                        opts)
           .ok()) {
    std::fprintf(stderr, "FAIL: player did not start\n");
    std::exit(1);
  }

  const auto t0 = Clock::now();
  system.RunUntil(Seconds(sim_seconds));
  if (spans != nullptr) {
    spans->Drain();
  }
  const auto t1 = Clock::now();

  TraceMeasurement m;
  m.packets = channel->rebroadcaster->stats().data_packets;
  if (m.packets > 0) {
    m.ns_per_packet =
        std::chrono::duration<double, std::nano>(t1 - t0).count() /
        static_cast<double>(m.packets);
  }
  if (spans != nullptr) {
    m.retained = spans->assembler()->RetainedTraces().size();
    m.discarded = spans->assembler()->sampler_discarded();
  }
  return m;
}

int RunTraceBench(int sim_seconds) {
  PrintHeader("A8", "span plane overhead: ns/packet off vs sampling vs full");
  PrintPaperNote(
      "causal span trees ride the existing per-packet trace events; when "
      "the plane is off the tracer has no observer and the packet path "
      "must cost what it did before spans existed");

  // Warmup: the first system built in the process pays page faults and
  // allocator growth that would otherwise bias whichever mode runs first.
  (void)MeasureMode(SpanMode::kOff, 1);

  // Best-of-N per mode: the wall clock per run is tens of milliseconds, so
  // a single sample is at the mercy of the host scheduler. The minimum is
  // the run with the least interference — that is the number the gate
  // compares, and the one that converges across machines.
  auto best_of = [sim_seconds](SpanMode mode, int zones = 1) {
    TraceMeasurement best = MeasureMode(mode, sim_seconds, zones);
    for (int rep = 1; rep < 3; ++rep) {
      TraceMeasurement m = MeasureMode(mode, sim_seconds, zones);
      if (m.ns_per_packet < best.ns_per_packet) {
        best = m;
      }
    }
    return best;
  };
  TraceMeasurement off = best_of(SpanMode::kOff);
  TraceMeasurement sampling = best_of(SpanMode::kSampling);
  TraceMeasurement full = best_of(SpanMode::kFull);
  TraceMeasurement sharded_off = best_of(SpanMode::kOff, kShardedZones);
  TraceMeasurement sharded_full = best_of(SpanMode::kFull, kShardedZones);

  Table table({"mode", "packets", "us/pkt", "retained", "discarded"});
  table.Row({"off", std::to_string(off.packets),
             Fmt(off.ns_per_packet / 1000.0), "-", "-"});
  table.Row({"sampling", std::to_string(sampling.packets),
             Fmt(sampling.ns_per_packet / 1000.0),
             std::to_string(sampling.retained),
             std::to_string(sampling.discarded)});
  table.Row({"full", std::to_string(full.packets),
             Fmt(full.ns_per_packet / 1000.0), std::to_string(full.retained),
             std::to_string(full.discarded)});
  table.Row({"shard-off", std::to_string(sharded_off.packets),
             Fmt(sharded_off.ns_per_packet / 1000.0), "-", "-"});
  table.Row({"shard-full", std::to_string(sharded_full.packets),
             Fmt(sharded_full.ns_per_packet / 1000.0),
             std::to_string(sharded_full.retained),
             std::to_string(sharded_full.discarded)});
  if (off.ns_per_packet > 0.0) {
    std::printf("sampling overhead %+.1f%%, full overhead %+.1f%%\n",
                (sampling.ns_per_packet / off.ns_per_packet - 1.0) * 100.0,
                (full.ns_per_packet / off.ns_per_packet - 1.0) * 100.0);
  }
  if (sharded_off.ns_per_packet > 0.0) {
    std::printf("sharded (%d zones) full-trace overhead %+.1f%%\n",
                kShardedZones,
                (sharded_full.ns_per_packet / sharded_off.ns_per_packet -
                 1.0) * 100.0);
  }

  if (off.packets == 0 || sampling.packets != off.packets ||
      full.packets != off.packets) {
    std::fprintf(stderr,
                 "FAIL: modes sent different packet counts (%llu/%llu/%llu); "
                 "the span plane changed simulation behaviour\n",
                 static_cast<unsigned long long>(off.packets),
                 static_cast<unsigned long long>(sampling.packets),
                 static_cast<unsigned long long>(full.packets));
    return 1;
  }
  if (sampling.retained == 0 || full.retained == 0) {
    std::fprintf(stderr, "FAIL: span plane retained nothing; harness broken\n");
    return 1;
  }
  // The sharded runtime's bit-identity contract, checked in-process: the
  // same workload over 4 zones must send the same packets and (via the
  // barrier-merged mirror) retain the same traces as the classic run.
  if (sharded_off.packets != off.packets ||
      sharded_full.packets != off.packets) {
    std::fprintf(stderr,
                 "FAIL: sharded runs sent %llu/%llu packets vs classic %llu; "
                 "sharding changed simulation behaviour\n",
                 static_cast<unsigned long long>(sharded_off.packets),
                 static_cast<unsigned long long>(sharded_full.packets),
                 static_cast<unsigned long long>(off.packets));
    return 1;
  }
  if (sharded_full.retained != full.retained) {
    std::fprintf(stderr,
                 "FAIL: sharded full retention kept %llu traces vs classic "
                 "%llu; the barrier merge lost or duplicated spans\n",
                 static_cast<unsigned long long>(sharded_full.retained),
                 static_cast<unsigned long long>(full.retained));
    return 1;
  }

  JsonWriter json;
  json.Str("bench", "trace");
  json.Int("schema_version", kSchemaVersion);
  json.Int("speakers", kSpeakers);
  json.Int("sim_seconds", static_cast<uint64_t>(sim_seconds));
  json.Int("packets", off.packets);
  json.Num("spans_off_ns_per_packet", off.ns_per_packet);
  json.Num("sampling_ns_per_packet", sampling.ns_per_packet);
  json.Num("full_ns_per_packet", full.ns_per_packet);
  json.Int("sampling_retained", sampling.retained);
  json.Int("sampling_discarded", sampling.discarded);
  json.Int("full_retained", full.retained);
  json.Int("sharded_zones", kShardedZones);
  json.Int("sharded_packets", sharded_off.packets);
  json.Num("sharded_spans_off_ns_per_packet", sharded_off.ns_per_packet);
  json.Num("sharded_full_ns_per_packet", sharded_full.ns_per_packet);
  json.Int("sharded_full_retained", sharded_full.retained);
  if (!json.WriteFile("BENCH_trace.json")) {
    return 1;
  }
  std::printf("wrote BENCH_trace.json\n");
  return 0;
}

}  // namespace
}  // namespace espk

int main(int argc, char** argv) {
  int sim_seconds = 20;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      sim_seconds = 8;
    }
  }
  return espk::RunTraceBench(sim_seconds);
}
