// StreamSession: the per-stream half of an Ethernet Speaker. One session
// exists per subscribed multicast group and owns everything that belongs to
// that stream alone — the control-packet sync state (adopted producer
// clock, codec config, decoder), the output recorder, jitter-buffer
// accounting, dedup history, and deadline/silence bookkeeping. The speaker
// itself (src/speaker/speaker.h) keeps only device-wide state: the NIC, the
// serialized decode CPU, the aggregate SpeakerStats, and the subscriptions
// routing each arriving datagram's group to its session.
//
// A speaker subscribed to exactly one stream behaves bit-identically to the
// pre-session speaker: every stage below is the old single-stream code with
// its state relocated, and tests/sharded_determinism_test.cc pins it.
#ifndef SRC_SPEAKER_STREAM_SESSION_H_
#define SRC_SPEAKER_STREAM_SESSION_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/audio/format.h"
#include "src/codec/codec.h"
#include "src/lan/transport.h"
#include "src/proto/wire.h"
#include "src/sim/simulation.h"
#include "src/speaker/playback.h"

namespace espk {

class EthernetSpeaker;
struct DecodeGroup;
struct LastDecode;
struct PipelineJob;
struct PlayGroup;

// Counters one subscription accumulates on top of the speaker's aggregate
// SpeakerStats (which single-stream tests and the health rules watch). The
// subscription directory's who-hears-what view reads these.
struct StreamSessionStats {
  uint64_t data_packets = 0;
  uint64_t chunks_played = 0;
  uint64_t late_drops = 0;
};

class StreamSession {
 public:
  StreamSession(EthernetSpeaker* speaker, GroupId group, uint64_t epoch);
  ~StreamSession();

  StreamSession(const StreamSession&) = delete;
  StreamSession& operator=(const StreamSession&) = delete;

  GroupId group() const { return group_; }
  // Reincarnation counter: a pipeline obligation issued by session N of a
  // group is ignored once session N+1 exists (the group was unsubscribed
  // and re-subscribed while the chunk was in flight).
  uint64_t epoch() const { return epoch_; }

  // Null / empty until the stream's first control packet.
  bool ready() const { return config_.has_value(); }
  const std::optional<AudioConfig>& config() const { return config_; }
  OutputRecorder* output() { return recorder_.get(); }
  const OutputRecorder* output() const { return recorder_.get(); }

  // Decoded-but-unplayed PCM this stream holds in the shared jitter buffer.
  size_t queued_pcm_bytes() const { return queued_pcm_bytes_; }
  const StreamSessionStats& stats() const { return stats_; }

  // Pipeline stages, driven by the owning speaker's batched surface
  // (src/speaker/speaker.h): admission at arrival (true, with `*out`
  // filled, when a data packet is admitted), decode + deadline triage at
  // decode-done (true when the chunk is early and owes a play of
  // `last->pcm`), render at the play deadline. The packet and its decoded
  // block belong to the job's group and are read, never copied per member.
  void HandleControl(const ControlPacket& packet);
  bool HandleData(const DataPacket& packet, PipelineJob* out);
  bool RunDecode(const DecodeGroup& packet, const PipelineJob& job,
                 LastDecode* last);
  void RunPlay(const PlayGroup& packet, const PipelineJob& job);

 private:
  bool OnDecodeComplete(const DecodeGroup& packet, const PipelineJob& job,
                        const PcmBlock& pcm);
  // Accounts playout-timeline gaps: a chunk of `sample_count` samples
  // started rendering at `at`.
  void NotePlay(SimTime at, size_t sample_count);

  EthernetSpeaker* speaker_;
  GroupId group_;
  uint64_t epoch_;

  // Channel state, valid once a control packet has arrived.
  std::optional<AudioConfig> config_;
  CodecId codec_ = CodecId::kRaw;
  uint8_t quality_ = 10;
  std::unique_ptr<AudioDecoder> decoder_;
  std::unique_ptr<OutputRecorder> recorder_;
  uint32_t control_seq_ = 0;

  // Producer-clock to local-clock offset: local = producer + offset. The
  // protocol assumes uniform multicast delivery, so the offset is taken
  // directly from the latest control packet (§3.2). Per stream: each
  // producer has its own wall clock.
  SimDuration clock_offset_ = 0;

  // Decoded PCM scheduled for playback but not yet played, in bytes.
  size_t queued_pcm_bytes_ = 0;
  uint32_t highest_seq_seen_ = 0;
  bool any_data_seen_ = false;
  // When the previously played chunk finishes rendering; 0 until the first
  // play of this subscription.
  SimTime last_play_end_ = 0;

  StreamSessionStats stats_;
};

}  // namespace espk

#endif  // SRC_SPEAKER_STREAM_SESSION_H_
