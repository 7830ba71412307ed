// Automatic volume control (§5.2, future work implemented): each Ethernet
// Speaker has a microphone next to it, which hears the speaker's own output
// plus the room's ambient noise. The controller compares the two and steers
// the playback gain:
//
//  * background music mode — track the ambient level, so music stays
//    discreet in a quiet room and present in a noisy one, and recordings
//    mastered at different levels come out at the same loudness;
//  * announcement mode — stay well above the ambient level so announcements
//    "are likely to be heard" over crowd noise.
//
// Every 500 ms the controller measures the speaker's output RMS over the
// last 500 ms, aims for an output-to-ambient ratio of 1 (music) or 4
// (announcements), and corrects half of the gain error (a first-order
// loop), within [min_gain, max_gain].
#ifndef SRC_SPEAKER_AUTO_VOLUME_H_
#define SRC_SPEAKER_AUTO_VOLUME_H_

#include <functional>
#include <vector>

#include "src/sim/simulation.h"
#include "src/speaker/speaker.h"

namespace espk {

enum class VolumeMode {
  kBackgroundMusic,
  kAnnouncement,
};

struct AutoVolumeOptions {
  VolumeMode mode = VolumeMode::kBackgroundMusic;
  float min_gain = 0.05f;
  float max_gain = 8.0f;
};

// The simulated microphone's ambient-noise pickup (RMS) as a function of
// time; the scenario supplies it (e.g. quiet at night, loud at rush hour).
using AmbientNoiseModel = std::function<double(SimTime)>;

class AutoVolumeController {
 public:
  AutoVolumeController(EthernetSpeaker* speaker, AmbientNoiseModel ambient,
                       const AutoVolumeOptions& options);

  void Start() { task_.Start(); }
  void Stop() { task_.Stop(); }

  void set_mode(VolumeMode mode) { options_.mode = mode; }
  VolumeMode mode() const { return options_.mode; }

  struct Sample {
    SimTime time;
    double ambient_rms;
    double output_rms;  // What the mic heard from the speaker.
    float gain;         // Gain after this tick's adjustment.
  };
  const std::vector<Sample>& history() const { return history_; }

 private:
  void Tick(SimTime now);

  EthernetSpeaker* speaker_;
  AmbientNoiseModel ambient_;
  AutoVolumeOptions options_;
  std::vector<Sample> history_;
  PeriodicTask task_;
};

}  // namespace espk

#endif  // SRC_SPEAKER_AUTO_VOLUME_H_
