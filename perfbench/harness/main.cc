// espk_perfbench: runs one benchmark workload through EthernetSpeakerSystem's
// public API and prints every metric by name and unit; the last line of
// stdout is one JSON object {correct, attempted, failed, metrics}.
//
//   espk_perfbench --workload fleet --seed 1 --seconds 10 --trace 0
//   espk_perfbench_traced --workload fleet --seed 1 --seconds 10 --trace 1
//       [--spans-out FILE]
//   add --tiny for the self-check's shrunken fleet.
//
// --trace 0 reports the end-to-end metrics from untraced rounds. --trace 1
// alternates untraced and traced rounds (the difference is the tracing
// overhead), then replays each layer in isolation and prints the per-layer
// metrics and an attribution table. Exit status 1 means a correctness check
// failed; 2 means bad arguments.
#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "harness/alloc_count.h"
#include "harness/bench_trace.h"
#include "harness/replays.h"
#include "harness/workload.h"
#include "src/speaker/speaker.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool tiny = false;
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&](const char** out) {
      if (i + 1 >= argc) {
        return false;
      }
      *out = argv[++i];
      return true;
    };
    const char* v = nullptr;
    if (a == "--tiny") {
      args->tiny = true;
    } else if (a == "--workload" && value(&v)) {
      args->workload = v;
    } else if (a == "--seed" && value(&v)) {
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds" && value(&v)) {
      args->seconds = std::strtod(v, nullptr);
    } else if (a == "--trace" && value(&v)) {
      args->trace = std::atoi(v);
    } else if (a == "--spans-out" && value(&v)) {
      args->spans_out = v;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1);
}

// VmHWM from /proc/self/status, in MiB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("\n%-34s %16s  %s\n", "metric", "value", "unit");
  for (const Metric& m : metrics) {
    std::printf("%-34s %16.6g  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void PrintFailures(const std::string& what,
                   const std::vector<std::string>& failures) {
  for (const std::string& f : failures) {
    std::fprintf(stderr, "CHECK FAILED (%s): %s\n", what.c_str(), f.c_str());
  }
}

// Rotates the calling thread over the CPUs the process may use, one per
// measured round. On a shared host the speed of a CPU depends on its
// neighbours, and a single-threaded run otherwise stays on whichever CPU the
// scheduler picked, so whole runs came out fast or slow; rotating makes
// every run sample every CPU. Restore() puts the original mask back (the
// width-check round's executor threads inherit it).
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&all_);
    if (sched_getaffinity(0, sizeof(all_), &all_) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &all_)) {
          cpus_.push_back(c);
        }
      }
    }
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  ~CpuRotation() { Restore(); }

  void PinForRound(size_t round) {
    if (cpus_.size() < 2) {
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[round % cpus_.size()], &one);
    (void)sched_setaffinity(0, sizeof(one), &one);
  }
  void Restore() {
    if (!cpus_.empty()) {
      (void)sched_setaffinity(0, sizeof(all_), &all_);
    }
  }

 private:
  cpu_set_t all_;
  std::vector<int> cpus_;
};

// The §3.2 epsilon every workload speaker runs with.
double SyncEpsilonMs() {
  return espk::ToMillisecondsF(espk::SpeakerOptions{}.sync_epsilon);
}

// Set-up samples per run: at least the minimum, then more while they fit in
// about a second (cheap set-ups get many).
constexpr size_t kMinSetupSamples = 11;
constexpr size_t kMaxSetupSamples = 201;
constexpr size_t kMinSlices = 200;

struct RunState {
  std::vector<RoundResult> rounds;
  std::vector<std::string> failures;
  uint64_t failed_rounds = 0;

  void Add(RoundResult r, const std::string& label) {
    if (!rounds.empty() && !r.outcome.SameAs(rounds.front().outcome)) {
      r.failures.push_back("outcome differs from round 0: " +
                           r.outcome.Describe() + " vs " +
                           rounds.front().outcome.Describe());
    }
    if (!r.failures.empty()) {
      ++failed_rounds;
      PrintFailures(label, r.failures);
      failures.insert(failures.end(), r.failures.begin(), r.failures.end());
    }
    rounds.push_back(std::move(r));
  }
};

void PrintRound(const char* kind, size_t i, const RoundResult& r) {
  std::printf("round %-2zu %-8s setup %.3f s  run %.3f s  realtime_x %.3f  "
              "%s\n",
              i, kind, r.setup_s, r.run_s, r.sim_s / r.run_s,
              r.outcome.Describe().c_str());
  std::fflush(stdout);
}

// The process's first round pays page faults and allocator growth that
// later rounds do not; it runs untimed so every measured round starts warm.
void WarmUp(const WorkloadSpec& spec, const Inputs& inputs,
            BenchTrace* trace) {
  RoundOptions ro;
  PrintRound("warm-up", 0, RunRound(spec, inputs, ro, trace));
}

// The sharded runtime's results must not depend on executor width: an
// untimed round on spec.check_threads threads must equal round 0 exactly,
// skew included.
void CheckExecutorWidth(const WorkloadSpec& spec, const Inputs& inputs,
                        RunState* state, BenchTrace* trace) {
  if (spec.check_threads <= 1) {
    return;
  }
  RoundOptions ro;
  ro.threads = spec.check_threads;
  ro.measure_sync = true;
  ro.index = 1000;
  RoundResult ref = RunRound(spec, inputs, ro, trace);
  PrintRound("threads", static_cast<size_t>(spec.check_threads), ref);
  const Outcome& one = state->rounds.front().outcome;
  if (!ref.outcome.SameAs(one)) {
    ref.failures.push_back(std::to_string(spec.check_threads) +
                           "-thread outcome " + ref.outcome.Describe() +
                           " differs from 1 thread " + one.Describe());
  }
  if (!ref.failures.empty()) {
    PrintFailures("executor width", ref.failures);
    state->failures.insert(state->failures.end(), ref.failures.begin(),
                           ref.failures.end());
  }
}

int RunEndToEnd(const WorkloadSpec& spec, const Inputs& inputs,
                const Args& args) {
  BenchTrace trace(false);
  RunState state;
  const auto t0 = Clock::now();
  WarmUp(spec, inputs, &trace);
  // At least three rounds, so realtime_x is a median, and enough slices
  // that kMinSlices / 20 of them lie beyond p95.
  size_t slice_count = 0;
  CpuRotation rotation;
  while (state.rounds.size() < 3 || slice_count < kMinSlices ||
         SecondsSince(t0) < args.seconds) {
    rotation.PinForRound(state.rounds.size());
    RoundOptions ro;
    ro.measure_sync = state.rounds.empty();
    ro.index = state.rounds.size();
    RoundResult r = RunRound(spec, inputs, ro, &trace);
    PrintRound("untraced", state.rounds.size(), r);
    slice_count += r.slice_ms.size();
    state.Add(std::move(r), "round " + std::to_string(state.rounds.size()));
    if (state.rounds.size() >= 64) {
      break;
    }
  }
  rotation.Restore();
  // Before the width check: its extra executor threads grow the heap.
  const double peak_rss_mb = PeakRssMb();
  CheckExecutorWidth(spec, inputs, &state, &trace);

  // p95 pools every slice of the run (it needs >= 10 beyond it); p50, like
  // realtime_x, is a median over rounds, which one slow round cannot move.
  std::vector<double> realtime;
  std::vector<double> round_p50;
  std::vector<double> slices;
  for (const RoundResult& r : state.rounds) {
    realtime.push_back(r.sim_s / r.run_s);
    round_p50.push_back(Quantile(r.slice_ms, 0.5));
    slices.insert(slices.end(), r.slice_ms.begin(), r.slice_ms.end());
  }
  // Set-up gets samples of its own: a build right after a round's teardown
  // varies with what the teardown left in the allocator.
  std::vector<double> setup;
  const auto setup_t0 = Clock::now();
  while (setup.size() < kMinSetupSamples ||
         (setup.size() < kMaxSetupSamples && SecondsSince(setup_t0) < 1.0)) {
    rotation.PinForRound(setup.size());
    RoundOptions ro;
    ro.setup_only = true;
    setup.push_back(RunRound(spec, inputs, ro, &trace).setup_s);
  }
  rotation.Restore();
  std::printf("setup_s over %zu set-ups: min %.4f median %.4f max %.4f\n",
              setup.size(), Quantile(setup, 0.0), Quantile(setup, 0.5),
              Quantile(setup, 1.0));
  const Outcome& o = state.rounds.front().outcome;
  std::printf("\nslices: %zu of %.2f ms sim; %zu above p95\n", slices.size(),
              espk::ToMillisecondsF(spec.slice),
              static_cast<size_t>(static_cast<double>(slices.size()) * 0.05));
  std::printf("miss_fraction %.6g (misses %llu of %llu deliveries), "
              "max_skew_ms %.4f over %d pairs\n",
              o.miss_fraction(), static_cast<unsigned long long>(o.misses()),
              static_cast<unsigned long long>(o.deliveries), o.max_skew_ms,
              o.sync_pairs);
  const std::vector<Metric> metrics = {
      {"setup_s", Quantile(setup, 0.5), "s"},
      {"realtime_x", Quantile(realtime, 0.5), "sim_s/s"},
      {"slice_wall_ms_p50", Quantile(round_p50, 0.5), "ms"},
      {"slice_wall_ms_p95", Quantile(slices, 0.95), "ms"},
      {"peak_rss_mb", peak_rss_mb, "MiB"},
      {"ok_fraction", 1.0 - o.miss_fraction(), "fraction"},
      {"sync_margin", 1.0 - o.max_skew_ms / SyncEpsilonMs(), "fraction"},
  };
  const bool correct = state.failures.empty();
  PrintResult(correct, state.rounds.size(), state.failed_rounds, metrics);
  return correct ? 0 : 1;
}

// One layer's share of a traced round: replay unit cost × the layer's count
// in the round, or (unit "ms") a time the round measured directly.
struct AttributionRow {
  std::string layer;
  double unit_cost;
  std::string unit;
  double count;
  double ms = 0.0;
};

int RunTraced(const WorkloadSpec& spec, const Inputs& inputs,
              const Args& args) {
  BenchTrace off(false);
  BenchTrace trace(true);
  RunState plain;
  RunState traced;
  const auto t0 = Clock::now();
  WarmUp(spec, inputs, &off);
  // Alternate so both kinds see the same machine conditions; each pair
  // shares a CPU.
  CpuRotation rotation;
  while (traced.rounds.empty() || SecondsSince(t0) < args.seconds * 0.7) {
    rotation.PinForRound(traced.rounds.size());
    RoundOptions ro;
    ro.index = 1 + plain.rounds.size() + traced.rounds.size();
    RoundResult p = RunRound(spec, inputs, ro, &off);
    PrintRound("untraced", ro.index, p);
    plain.Add(std::move(p), "untraced round");
    ro.traced = true;
    ro.measure_sync = traced.rounds.empty();
    ro.index += 1;
    RoundResult t = RunRound(spec, inputs, ro, &trace);
    PrintRound("traced", ro.index, t);
    traced.Add(std::move(t), "traced round");
    if (traced.rounds.size() >= 32) {
      break;
    }
  }
  rotation.Restore();
  trace.set_trace_id(9999);
  const ReplayCosts costs = RunReplays(spec, inputs, &trace);
  std::vector<std::string> failures = plain.failures;
  failures.insert(failures.end(), traced.failures.begin(),
                  traced.failures.end());
  if (!costs.ok) {
    failures.push_back(costs.error);
    PrintFailures("replays", {costs.error});
  }

  std::vector<double> rt_plain;
  std::vector<double> rt_traced;
  for (const RoundResult& r : plain.rounds) {
    rt_plain.push_back(r.sim_s / r.run_s);
  }
  for (const RoundResult& r : traced.rounds) {
    rt_traced.push_back(r.sim_s / r.run_s);
  }
  const RoundResult& last = traced.rounds.back();
  std::map<std::string, double> L = last.layer;
  auto at = [&L](const char* name) { return L[name]; };

  // ------------------------------------------------------- attribution --
  const double wall_ms = last.run_s * 1e3;
  const double frames_per_packet = static_cast<double>(spec.packet_frames);
  const double parses = spec.zones > 1
                            ? at("lan.packets_sent") * spec.zones
                            : at("speaker.packets_received");
  const double decoded_frames =
      (at("speaker.chunks_played") + at("speaker.late_drops")) *
      frames_per_packet;
  const double speaker_self_ns = std::max(
      0.0, costs.speaker_ns_per_packet -
               costs.parse_ns_per_packet / SpeakerBatchMembers(spec) -
               costs.decode_ns_per_frame * frames_per_packet);
  std::vector<AttributionRow> rows = {
      {"kernel", costs.vad_ns_per_kb, "ns/KB", at("kernel.bytes_written") / 1024},
      {"rebroadcast", costs.rebroadcast_ns_per_packet, "ns/packet",
       at("rebroadcast.data_packets")},
      {"codec_encode", costs.encode_ns_per_frame, "ns/frame",
       at("codec.frames_encoded")},
      {"lan", costs.fanout_ns_per_delivery, "ns/delivery",
       at("lan.deliveries")},
      {"proto", costs.parse_ns_per_packet, "ns/parse", parses},
      {"codec_decode", costs.decode_ns_per_frame, "ns/frame", decoded_frames},
      {"speaker", speaker_self_ns, "ns/packet", at("speaker.data_packets")},
      {"sim", costs.sim_ns_per_event, "ns/event", at("sim.events")},
      {"obs_tracer", costs.trace_ns_per_event, "ns/record",
       at("obs.trace_events")},
      {"obs", 1e6, "ms", at("obs.collector_ms")},
      {"mgmt", 1e6, "ms", at("mgmt.churn_ms")},
      {"audio", 1e6, "ms", at("audio.generate_ms")},
  };
  double attributed = 0.0;
  for (AttributionRow& row : rows) {
    row.ms = row.unit_cost * row.count / 1e6;
    attributed += row.ms;
  }
  std::printf("\nattribution of the last traced round (%.1f ms wall, "
              "%.1f s sim):\n",
              wall_ms, last.sim_s);
  std::printf("%-14s %14s %-12s %14s %12s %8s\n", "layer", "unit cost", "unit",
              "count", "est ms", "share");
  for (const AttributionRow& row : rows) {
    if (row.unit == "ms") {
      std::printf("%-14s %14s %-12s %14s %12.2f %7.2f%%\n", row.layer.c_str(),
                  "measured", "", "", row.ms, 100.0 * row.ms / wall_ms);
      continue;
    }
    std::printf("%-14s %14.2f %-12s %14.0f %12.2f %7.2f%%\n",
                row.layer.c_str(), row.unit_cost, row.unit.c_str(), row.count,
                row.ms, 100.0 * row.ms / wall_ms);
  }
  std::printf("%-14s %14s %-12s %14s %12.2f %7.2f%%\n", "unattributed", "", "",
              "", wall_ms - attributed,
              100.0 * (wall_ms - attributed) / wall_ms);
  const double rx_plain = Quantile(rt_plain, 0.5);
  const double rx_traced = Quantile(rt_traced, 0.5);
  std::printf("tracing overhead: realtime_x %.3f traced vs %.3f untraced "
              "(%+.1f%%)\n",
              rx_traced, rx_plain, 100.0 * (rx_plain / rx_traced - 1.0));
  std::printf("\nbenchmark spans (self time = span minus its children):\n");
  for (const BenchTrace::SelfTime& t : trace.SelfTimes()) {
    std::printf("  %-24s %8zu spans %12.2f ms self\n", t.name.c_str(), t.count,
                t.self_ms);
  }
  if (!args.spans_out.empty()) {
    if (trace.WriteChromeJson(args.spans_out)) {
      std::printf("wrote %zu benchmark spans to %s\n", trace.spans().size(),
                  args.spans_out.c_str());
    } else {
      std::fprintf(stderr, "could not write %s\n", args.spans_out.c_str());
    }
  }

  const Outcome& o = traced.rounds.front().outcome;
  std::vector<Metric> m = {
      {"sim.events", at("sim.events"), "count"},
      {"sim.epochs", at("sim.epochs"), "count"},
      {"sim.epoch_run_ms", at("sim.epoch_run_ms"), "ms"},
      {"sim.barrier_wait_ms", at("sim.barrier_wait_ms"), "ms"},
      {"sim.parallel_efficiency", at("sim.parallel_efficiency"), "fraction"},
      {"sim.messages_posted", at("sim.messages_posted"), "count"},
      {"sim.ring_spills", at("sim.ring_spills"), "count"},
      {"sim.ns_per_event", costs.sim_ns_per_event, "ns"},
      {"lan.deliveries", at("lan.deliveries"), "count"},
      {"lan.deliveries_lost", at("lan.deliveries_lost"), "count"},
      {"lan.queue_drops", at("lan.queue_drops"), "count"},
      {"lan.bytes_on_wire", at("lan.bytes_on_wire"), "bytes"},
      {"lan.fanout_ns_per_delivery", costs.fanout_ns_per_delivery, "ns"},
      {"speaker.data_packets", at("speaker.data_packets"), "count"},
      {"speaker.chunks_played", at("speaker.chunks_played"), "count"},
      {"speaker.late_drops", at("speaker.late_drops"), "count"},
      {"speaker.overflow_drops", at("speaker.overflow_drops"), "count"},
      {"speaker.duplicate_drops", at("speaker.duplicate_drops"), "count"},
      {"speaker.waiting_drops", at("speaker.waiting_drops"), "count"},
      {"speaker.lateness_ms_p50", at("speaker.lateness_ms_p50"), "ms"},
      {"speaker.lateness_ms_p99", at("speaker.lateness_ms_p99"), "ms"},
      {"speaker.ns_per_packet", costs.speaker_ns_per_packet, "ns"},
      {"codec.encode_cpu_ms", at("codec.encode_cpu_ms"), "ms"},
      {"codec.encode_ns_per_frame", costs.encode_ns_per_frame, "ns"},
      {"codec.decode_ns_per_frame", costs.decode_ns_per_frame, "ns"},
      {"codec.compression_ratio", at("codec.compression_ratio"), "ratio"},
      {"proto.parse_ns_per_packet", costs.parse_ns_per_packet, "ns"},
      {"kernel.context_switches", at("kernel.context_switches"), "count"},
      {"kernel.bytes_written", at("kernel.bytes_written"), "bytes"},
      {"kernel.vad_ns_per_kb", costs.vad_ns_per_kb, "ns"},
      {"rebroadcast.data_packets", at("rebroadcast.data_packets"), "count"},
      {"rebroadcast.control_packets", at("rebroadcast.control_packets"),
       "count"},
      {"rebroadcast.ns_per_packet", costs.rebroadcast_ns_per_packet, "ns"},
      {"obs.trace_events", at("obs.trace_events"), "count"},
      {"obs.trace_dropped", at("obs.trace_dropped"), "count"},
      {"obs.trace_ns_per_event", costs.trace_ns_per_event, "ns"},
      {"obs.spans_recorded", at("obs.spans_recorded"), "count"},
      {"obs.spans_dropped", at("obs.spans_dropped"), "count"},
      {"obs.traces_retained", at("obs.traces_retained"), "count"},
      {"obs.collector_ms", at("obs.collector_ms"), "ms"},
      {"obs.alerts_fired", at("obs.alerts_fired"), "count"},
      {"obs.postmortems", at("obs.postmortems"), "count"},
      {"core.add_speaker_us_p50", at("core.add_speaker_us_p50"), "us"},
      {"core.add_speaker_us_p95", at("core.add_speaker_us_p95"), "us"},
      {"core.create_channel_ms", at("core.create_channel_ms"), "ms"},
      {"core.enable_planes_ms", at("core.enable_planes_ms"), "ms"},
      {"core.metric_entries", at("core.metric_entries"), "count"},
      {"core.allocs_per_delivery", at("core.allocs_per_delivery"), "count"},
      {"mgmt.subscribe_us", at("mgmt.subscribe_us"), "us"},
      {"mgmt.churn_ms", at("mgmt.churn_ms"), "ms"},
      {"audio.generate_ms", at("audio.generate_ms"), "ms"},
      {"miss_fraction", o.miss_fraction(), "fraction"},
      {"max_skew_ms", o.max_skew_ms, "ms"},
  };
  for (const AttributionRow& row : rows) {
    m.push_back({"attr." + row.layer + "_pct", 100.0 * row.ms / wall_ms, "%"});
  }
  m.push_back({"attr.unattributed_pct",
               100.0 * (wall_ms - attributed) / wall_ms, "%"});
  m.push_back({"trace.realtime_x_traced", rx_traced, "sim_s/s"});
  m.push_back({"trace.realtime_x_untraced", rx_plain, "sim_s/s"});
  m.push_back({"trace.overhead_pct", 100.0 * (rx_plain / rx_traced - 1.0),
               "%"});
  const bool correct = failures.empty();
  PrintResult(correct, plain.rounds.size() + traced.rounds.size(),
              plain.failed_rounds + traced.failed_rounds, m);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--tiny] [--spans-out FILE]\n",
                 argv[0]);
    return 2;
  }
  if (args.trace == 1 && !AllocCountEnabled()) {
    std::fprintf(stderr, "--trace 1 needs the traced binary\n");
    return 2;
  }
  // Keep freed heap memory in the process. Every round builds and tears
  // down a whole fleet; a long-running system does not, so rounds should not
  // pay the page faults of getting that memory back from the kernel.
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
  mallopt(M_TOP_PAD, 64 << 20);
  WorkloadSpec spec;
  const int nproc = static_cast<int>(std::thread::hardware_concurrency());
  if (!MakeSpec(args.workload, args.tiny, nproc, &spec)) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const Inputs inputs = MakeInputs(spec, args.seed);
  std::printf("workload %s seed %" PRIu64 ": %d speakers, %d channels, "
              "%d zones, %.1f s sim per round (inputs %.3f s)\n",
              spec.name.c_str(), args.seed, spec.speakers, spec.channels,
              spec.zones, espk::ToSecondsF(spec.round_sim),
              inputs.generate_s);
  return args.trace == 0 ? RunEndToEnd(spec, inputs, args)
                         : RunTraced(spec, inputs, args);
}
