// Simulated speaker output stage: records exactly which samples left the
// speaker at which simulated instant. Experiments reconstruct each
// speaker's acoustic timeline from this and measure inter-speaker skew,
// gaps (underruns), and content fidelity — the things a listener standing
// between two Ethernet Speakers would hear (§3.2).
//
// A segment holds its decoded PCM as a shared, immutable PcmBlock plus the
// gain it played at. Every member of a SpeakerZone that decodes one packet
// with the same decoder parameters plays the SAME block (the zone's
// PipelineScheduler decodes it once, src/speaker/speaker.h), so a zone's
// recorders hold one copy of the audio, not one per member. The gain is
// applied when the samples are read (Render, RecentRms) and skipped at gain
// 1, so each sample read is exactly the float product sample * gain.
#ifndef SRC_SPEAKER_PLAYBACK_H_
#define SRC_SPEAKER_PLAYBACK_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/audio/format.h"
#include "src/base/time_types.h"

namespace espk {

// One packet's decoded PCM (interleaved), immutable once decoded and shared
// by everything that plays it.
using PcmBlock = std::shared_ptr<const std::vector<float>>;

class OutputRecorder {
 public:
  OutputRecorder(int sample_rate, int channels)
      : sample_rate_(sample_rate), channels_(channels) {}

  // Plays `block` starting at `start`, scaled by `gain`. Segments are
  // expected in nondecreasing start order (chunks are played by deadline);
  // overlapping audio is overwritten by the newer segment at Render time.
  void Play(SimTime start, PcmBlock block, float gain);
  // The same for samples nothing else shares.
  void Play(SimTime start, std::vector<float> samples, float gain);

  // Renders the continuous waveform in [from, from+duration): silence where
  // nothing was playing.
  std::vector<float> Render(SimTime from, SimDuration duration) const;

  struct Segment {
    SimTime start = 0;
    PcmBlock block;  // Interleaved, before gain.
    float gain = 1.0f;
    // Sample i as it left the speaker.
    float sample(size_t i) const {
      return gain == 1.0f ? (*block)[i] : (*block)[i] * gain;
    }
    SimDuration duration(int sample_rate, int channels) const {
      return FramesToDuration(
          static_cast<int64_t>(block->size()) / channels, sample_rate);
    }
  };
  const std::vector<Segment>& segments() const { return segments_; }

  int sample_rate() const { return sample_rate_; }
  int channels() const { return channels_; }

  SimTime first_start() const {
    return segments_.empty() ? -1 : segments_.front().start;
  }
  SimTime last_end() const;

  // Gaps between consecutive segments longer than `threshold` — audible
  // dropouts.
  int CountGaps(SimDuration threshold) const;
  SimDuration TotalGapTime() const;

  // Average absolute output level over the most recent `window` ending at
  // `now` (used by the §5.2 auto-volume loop's self-monitoring microphone).
  double RecentRms(SimTime now, SimDuration window) const;

 private:
  int sample_rate_;
  int channels_;
  std::vector<Segment> segments_;
};

}  // namespace espk

#endif  // SRC_SPEAKER_PLAYBACK_H_
