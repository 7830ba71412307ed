// C3 (§3.1 in-text): "Without any rate limiting the rebroadcaster will send
// data that it receives from the VAD as fast as it is written... the
// producer will essentially send the entire file at wire speed causing the
// buffers on the Ethernet Speakers to fill up, and the extra data will be
// discarded... you will only hear the first few seconds of the song."
//
// A 60-second "song" is played through the VAD with the rate limiter on and
// off; we report how long the transmission took, what the speaker dropped,
// and how many seconds of audio actually came out of the speaker.
#include "bench/bench_util.h"
#include "src/core/system.h"

namespace espk {
namespace {

struct SongResult {
  double played_seconds = 0.0;  // Audio that left the speaker.
  uint64_t overflow_drops = 0;
  uint64_t late_drops = 0;
  uint64_t rate_limit_sleeps = 0;
};

SongResult Run(bool limiter_enabled, int song_seconds) {
  EthernetSpeakerSystem system;
  RebroadcasterOptions rb;
  rb.rate_limiter_enabled = limiter_enabled;
  Channel* channel = *system.CreateChannel("song", rb);
  SpeakerOptions so;
  so.decode_speed_factor = 0.05;
  so.jitter_buffer_bytes = 512 * 1024;  // ~1.5 s of decoded CD audio.
  EthernetSpeaker* speaker = *system.AddSpeaker(so, channel->group);

  PlayerAppOptions opts;
  opts.config = AudioConfig::CdQuality();
  opts.total_frames = static_cast<int64_t>(song_seconds) * 44100;
  (void)*system.StartPlayer(channel, std::make_unique<MusicLikeGenerator>(3),
                            opts);

  system.RunUntil(Seconds(song_seconds + 10));
  const RebroadcasterStats& pstats = channel->rebroadcaster->stats();

  SongResult result;
  result.rate_limit_sleeps = pstats.rate_limit_sleeps;
  result.overflow_drops = speaker->stats().overflow_drops;
  result.late_drops = speaker->stats().late_drops;
  result.played_seconds =
      static_cast<double>(speaker->stats().chunks_played) * 4096.0 / 44100.0;
  return result;
}

}  // namespace
}  // namespace espk

int main() {
  using namespace espk;
  PrintHeader("C3", "Why does a 5 minute song take 5 minutes? (§3.1)");
  PrintPaperNote(
      "without the rate limiter the song blasts at wire speed, the ES "
      "buffer overflows, and only the first few seconds play");

  constexpr int kSongSeconds = 60;
  SongResult with_limiter = Run(true, kSongSeconds);
  SongResult without_limiter = Run(false, kSongSeconds);

  Table table({"rate_limiter", "sleeps", "played_s", "overflow_drops",
               "late_drops"});
  table.Row({"on", std::to_string(with_limiter.rate_limit_sleeps),
             Fmt(with_limiter.played_seconds, 1),
             std::to_string(with_limiter.overflow_drops),
             std::to_string(with_limiter.late_drops)});
  table.Row({"off", std::to_string(without_limiter.rate_limit_sleeps),
             Fmt(without_limiter.played_seconds, 1),
             std::to_string(without_limiter.overflow_drops),
             std::to_string(without_limiter.late_drops)});

  std::printf(
      "\nshape check: with the limiter the %d s song plays ~%d s of audio "
      "with zero drops; without it the speaker hears only its buffer depth "
      "(~%.0f s) and discards the rest — \"you will only hear the first "
      "few seconds of the song.\"\n",
      kSongSeconds, kSongSeconds, without_limiter.played_seconds);
  return 0;
}
