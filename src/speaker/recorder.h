// Time shifting (§2.1, §3.3): "Certain streaming services offer no means of
// storing the audio stream for later playback"; the Ethernet Speaker
// architecture fixes that for free — a recorder is just one more
// receive-only station on the multicast group. It decodes data packets,
// reassembles them in sequence order (a recorder can afford to reorder;
// live speakers cannot), fills network losses with silence so the timeline
// stays intact, and exports standard WAV.
#ifndef SRC_SPEAKER_RECORDER_H_
#define SRC_SPEAKER_RECORDER_H_

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "src/audio/pcm.h"
#include "src/audio/wav.h"
#include "src/codec/codec.h"
#include "src/lan/transport.h"
#include "src/proto/wire.h"

namespace espk {

struct RecorderStats {
  uint64_t chunks_recorded = 0;
  uint64_t duplicate_chunks = 0;
  uint64_t decode_errors = 0;
  uint64_t gaps_filled = 0;       // Missing sequence numbers padded.
  int64_t frames_recorded = 0;    // Including silence fill.
};

class StreamRecorder {
 public:
  explicit StreamRecorder(Transport* nic);

  // Joins `group` and starts capturing. Like a speaker, nothing can be
  // decoded until the first control packet arrives.
  Status StartRecording(GroupId group);
  // Leaves the group; the recording stays available.
  Status StopRecording();

  bool recording() const { return group_.has_value(); }
  bool ready() const { return config_.has_value(); }
  const RecorderStats& stats() const { return stats_; }
  const std::optional<AudioConfig>& config() const { return config_; }

  // Assembles everything captured so far, in sequence order, with silence
  // where packets were lost. Empty buffer before the first control packet.
  PcmBuffer Assemble() const;

  // Assemble() + WAV file.
  Status ExportWav(const std::string& path) const;

 private:
  void OnDatagram(const Datagram& datagram);

  Transport* nic_;
  std::optional<GroupId> group_;
  std::optional<AudioConfig> config_;
  std::unique_ptr<AudioDecoder> decoder_;
  // Decoded chunks by unwrapped sequence number (each seq extended against
  // the previous chunk's with RFC 1982 serial arithmetic, so a take that
  // crosses 2^32 stays in order); frame counts tracked for gap fill.
  struct Chunk {
    std::vector<float> samples;
    uint32_t frame_count;
  };
  std::map<int64_t, Chunk> chunks_;
  int64_t last_key_ = 0;  // Key of the latest chunk; valid when non-empty.
  RecorderStats stats_;
};

}  // namespace espk

#endif  // SRC_SPEAKER_RECORDER_H_
