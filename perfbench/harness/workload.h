// Workload definitions and the round runner. A round is one batch job:
// build an EthernetSpeakerSystem through its public API, run a fixed stretch
// of simulated time in fixed slices, then read the results back out. The
// producers' audio clock is an open loop in simulated time; the host-side
// result is simulated work per wall second at the stated fleet size.
#ifndef PERFBENCH_HARNESS_WORKLOAD_H_
#define PERFBENCH_HARNESS_WORKLOAD_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness/bench_trace.h"
#include "src/audio/format.h"
#include "src/audio/generator.h"
#include "src/base/time_types.h"
#include "src/codec/codec.h"

namespace perfbench {

// Linearly interpolated quantile of `v`, q in [0, 1]; 0 when empty.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

struct WorkloadSpec {
  std::string name;
  int channels = 1;
  int speakers = 1;
  int zones = 1;
  // Measured rounds run on one executor thread. When > 1, one untimed round
  // on this many threads must reproduce round 0's outcome exactly.
  int check_threads = 0;
  espk::AudioConfig audio;
  int64_t packet_frames = 4096;
  int64_t chunk_frames = 4410;  // Player write(2) size.
  espk::CodecId codec = espk::CodecId::kRaw;
  int quality = 10;
  double decode_speed_factor = 0.25;
  double loss = 0.0;
  espk::SimDuration jitter = 0;
  espk::SimDuration join_latency = 0;
  bool spans = false;
  bool health = false;
  // Every churn_period, churn_percent of the speakers move to the next
  // channel. 0 = static membership.
  espk::SimDuration churn_period = 0;
  int churn_percent = 0;
  espk::SimDuration round_sim = espk::Seconds(1);
  // Timed unit of RunUntil: a whole number of packet periods, so every
  // slice carries the same work.
  espk::SimDuration slice = espk::Milliseconds(20);
  // MeasureSync window at the end of the round and its lag search.
  espk::SimDuration sync_window = espk::Milliseconds(100);
  espk::SimDuration sync_search = espk::Milliseconds(5);
  // Simulated producer time the layer replays capture.
  espk::SimDuration replay_sim = espk::Seconds(2);
};

// False for an unknown name. `tiny` shrinks fleet size and run length for
// the self-check; `nproc` sizes fleet's multi-threaded check round.
bool MakeSpec(const std::string& name, bool tiny, int nproc,
              WorkloadSpec* spec);

// Everything derived from the seed, generated before any timing starts.
struct Inputs {
  uint64_t seed = 0;
  // Per channel: interleaved float PCM that the replay generator loops.
  std::vector<std::shared_ptr<const std::vector<float>>> pcm;
  // Per churn tick (tick k fires at k * churn_period, k >= 1): the speaker
  // indices that move to their next channel.
  std::vector<std::vector<size_t>> churn;
  double generate_s = 0.0;  // Time spent making the PCM (not in any run).
};
Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed);

// Replays pre-generated PCM, looping. When `busy_ns` is set, the time spent
// inside Generate() accumulates there (the audio.generate_ms metric).
class ReplayGenerator : public espk::SignalGenerator {
 public:
  ReplayGenerator(std::shared_ptr<const std::vector<float>> pcm,
                  int64_t* busy_ns)
      : pcm_(std::move(pcm)), busy_ns_(busy_ns) {}
  void Generate(int64_t frames, int channels, int sample_rate,
                std::vector<float>* out) override;

 private:
  std::shared_ptr<const std::vector<float>> pcm_;
  int64_t* busy_ns_;
  size_t pos_ = 0;
};

// Simulation outcomes that must not depend on executor width, timing, or
// which round of a run produced them.
struct Outcome {
  uint64_t packets_sent = 0;
  uint64_t deliveries = 0;  // Per-receiver handoffs, lost ones included.
  uint64_t deliveries_lost = 0;
  uint64_t queue_drops = 0;
  uint64_t data_packets = 0;  // Σ speaker stats.
  uint64_t chunks_played = 0;
  uint64_t late_drops = 0;
  uint64_t overflow_drops = 0;
  uint64_t duplicate_drops = 0;
  uint64_t waiting_drops = 0;
  uint64_t decode_errors = 0;
  uint64_t bad_packets = 0;
  double max_skew_ms = -1.0;  // -1 when the round did not measure sync.
  int sync_pairs = 0;

  uint64_t misses() const {
    return deliveries_lost + queue_drops + late_drops + overflow_drops +
           duplicate_drops + decode_errors + bad_packets;
  }
  double miss_fraction() const {
    return deliveries == 0 ? 0.0
                           : static_cast<double>(misses()) /
                                 static_cast<double>(deliveries);
  }
  bool SameAs(const Outcome& o) const;
  std::string Describe() const;
};

struct RoundOptions {
  bool traced = false;       // Probes, per-call timing, allocation counts.
  bool measure_sync = false;
  bool setup_only = false;   // Build the system, time it, tear it down.
  int threads = 1;           // Executor width for this round.
  uint64_t index = 0;        // Trace id of the round's spans.
};

struct RoundResult {
  double setup_s = 0.0;
  double run_s = 0.0;  // Σ slice wall time.
  double sim_s = 0.0;
  std::vector<double> slice_ms;
  Outcome outcome;
  // Failed correctness checks, one line each; empty when the round passed.
  std::vector<std::string> failures;
  // Per-layer values (traced rounds only), keyed by metric name.
  std::map<std::string, double> layer;
};

RoundResult RunRound(const WorkloadSpec& spec, const Inputs& inputs,
                     const RoundOptions& options, BenchTrace* trace);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_WORKLOAD_H_
