// C4 (§3.2): the synchronization design. Two sweeps:
//
//  (a) epsilon sweep under delivery jitter — "it is necessary to provide an
//      epsilon value that provides the ES with some leeway. If this is not
//      done then data will be unnecessarily thrown out and skipping in
//      playback will be noticeable."
//  (b) speaker-count sweep with staggered joins — the wall-clock scheme
//      keeps any number of speakers aligned, including mid-stream joiners
//      (the failure mode of earlier versions of the system).
#include "bench/bench_util.h"
#include "src/core/system.h"

namespace espk {
namespace {

struct EpsilonResult {
  uint64_t late_drops = 0;
  uint64_t chunks_played = 0;
  int gaps = 0;
  double mean_lateness_ms = 0.0;
};

EpsilonResult RunEpsilon(SimDuration epsilon, SimDuration jitter,
                         int seconds) {
  SystemOptions sys;
  sys.lan.jitter = jitter;
  EthernetSpeakerSystem system(sys);
  RebroadcasterOptions rb;
  // A tight playout budget makes the deadline margin comparable to the
  // jitter, which is exactly when epsilon starts deciding between "play a
  // few ms late" and "throw the chunk away" (§3.2). The margin is
  // playout_delay + rate-limiter lead, so both are squeezed here.
  rb.playout_delay = Milliseconds(20);
  rb.rate_limiter_lead = Milliseconds(5);
  rb.packet_frames = 2048;
  rb.codec_override = CodecId::kRaw;  // Sync behaviour is codec-independent.
  Channel* channel = *system.CreateChannel("music", rb);
  SpeakerOptions so;
  so.decode_speed_factor = 0.1;
  so.sync_epsilon = epsilon;
  EthernetSpeaker* speaker = *system.AddSpeaker(so, channel->group);
  PlayerAppOptions opts;
  opts.config = AudioConfig::CdQuality();
  (void)*system.StartPlayer(channel, std::make_unique<MusicLikeGenerator>(4),
                            opts);
  system.RunUntil(Seconds(seconds));
  EpsilonResult result;
  result.late_drops = speaker->stats().late_drops;
  result.chunks_played = speaker->stats().chunks_played;
  if (speaker->ready()) {
    result.gaps = speaker->output()->CountGaps(Milliseconds(5));
  }
  if (speaker->stats().chunks_played > 0) {
    result.mean_lateness_ms =
        static_cast<double>(speaker->stats().total_lateness_ns) / 1e6 /
        static_cast<double>(speaker->stats().chunks_played);
  }
  return result;
}

struct SkewResult {
  double max_skew_ms = 0.0;
  double min_correlation = 1.0;
  int pairs = 0;
};

SkewResult RunSpeakerCount(int speakers, int seconds) {
  EthernetSpeakerSystem system;
  RebroadcasterOptions rb;
  rb.codec_override = CodecId::kRaw;
  Channel* channel = *system.CreateChannel("music", rb);
  PlayerAppOptions opts;
  opts.config = AudioConfig::CdQuality();
  (void)*system.StartPlayer(channel, std::make_unique<MusicLikeGenerator>(5),
                            opts);
  // Staggered joins: one speaker every 500 ms — the mid-stream start that
  // broke "earlier versions of the system" (§3.2).
  for (int i = 0; i < speakers; ++i) {
    system.RunFor(Milliseconds(500));
    SpeakerOptions so;
    so.name = "es" + std::to_string(i);
    so.decode_speed_factor = 0.1;
    (void)*system.AddSpeaker(so, channel->group);
  }
  system.RunUntil(Seconds(seconds));
  auto report = system.MeasureSync(Seconds(seconds - 2), Milliseconds(500),
                                   Milliseconds(20), /*all_pairs=*/false);
  SkewResult result;
  result.max_skew_ms = report.max_skew_seconds * 1000.0;
  result.min_correlation = report.min_correlation;
  result.pairs = report.speaker_pairs;
  return result;
}

}  // namespace
}  // namespace espk

int main() {
  using namespace espk;
  PrintHeader("C4 (a)", "Sync epsilon sweep under delivery jitter (§3.2)");
  PrintPaperNote(
      "epsilon too small -> unnecessary discards and audible skipping; "
      "adequate epsilon -> inaudible sync handling");

  constexpr int kSeconds = 20;
  Table table({"epsilon_ms", "jitter_ms", "late_drops", "played", "gaps",
               "mean_late_ms"});
  for (SimDuration jitter : {Milliseconds(0), Milliseconds(10),
                             Milliseconds(30)}) {
    for (SimDuration epsilon : {Milliseconds(0), Milliseconds(1),
                                Milliseconds(5), Milliseconds(20),
                                Milliseconds(100)}) {
      EpsilonResult r = RunEpsilon(epsilon, jitter, kSeconds);
      table.Row({Fmt(ToMillisecondsF(epsilon), 0),
                 Fmt(ToMillisecondsF(jitter), 0),
                 std::to_string(r.late_drops),
                 std::to_string(r.chunks_played), std::to_string(r.gaps),
                 Fmt(r.mean_lateness_ms, 3)});
    }
  }
  std::printf(
      "\nshape check: with jitter present, epsilon=0/1ms throws chunks away "
      "and leaves gaps; epsilon>=20ms plays everything. Lateness stays "
      "far below audibility.\n");

  PrintHeader("C4 (b)",
              "Inter-speaker skew vs speaker count (staggered joins)");
  Table table2({"speakers", "pairs", "max_skew_ms", "min_correlation"});
  for (int speakers : {2, 4, 8, 16}) {
    SkewResult r = RunSpeakerCount(speakers, 15);
    table2.Row({std::to_string(speakers), std::to_string(r.pairs),
                Fmt(r.max_skew_ms, 3), Fmt(r.min_correlation, 4)});
  }
  std::printf(
      "\nshape check: skew stays 0 ms regardless of speaker count or join "
      "time — 'any phase difference attributed to network delay or "
      "otherwise is inaudible' (§3.2).\n");
  return 0;
}
