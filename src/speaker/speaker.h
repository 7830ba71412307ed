// The Ethernet Speaker (§2.4, §3.2): a receive-only device — "our Ethernet
// Speakers function like radios". It joins a channel's multicast group,
// waits for a control packet (it cannot decode anything before one arrives),
// adopts the producer's wall clock, and then plays each data packet at its
// deadline:
//
//   * packet early            -> sleep until deadline, then play
//   * packet within epsilon   -> play immediately (slightly late, inaudible)
//   * packet past epsilon     -> throw it away (§3.2: "throwing away data up
//                                until the current wall time")
//
// An epsilon of zero would discard data unnecessarily and make "skipping in
// playback noticeable" — bench C4 sweeps it.
//
// The decode stage is serialized and costs simulated time proportional to
// the audio duration (decode_speed_factor models the 233 MHz Geode of the
// Neoware EON 4000); large producer buffers therefore stall the pipeline
// exactly as §3.4 describes — bench C5 sweeps that.
//
// Beyond the paper's one-channel radio: a speaker holds a MAP of
// StreamSessions (src/speaker/stream_session.h), one per subscribed group,
// and may Subscribe/Unsubscribe at runtime. Per-stream state (sync, jitter
// accounting, decoder, output) lives in the session; the speaker keeps
// device-wide state only — the NIC, the serialized decode CPU, the shared
// jitter-buffer budget, and the aggregate stats. Concurrent subscriptions
// share the output stage via RenderMix. The paper's Tune/Untune survive as
// thin aliases over the subscription API.
//
// Every packet takes one path through the pipeline: admission at arrival
// (IngestParsed), then decode and play as events a PipelineScheduler groups
// by instant. A speaker in an EthernetSpeakerSystem is a member of a
// SpeakerZone (src/speaker/speaker_zone.h), which admits a whole zone's
// members per packet into the zone's scheduler. A standalone speaker (its
// own NIC handler, or HandleDatagram) is a batch of one on its own
// scheduler.
//
// The scheduler decodes once per (packet, zone): a member whose session
// decodes the same payload with the same decoder parameters as the
// scheduler's last decode plays that decode's PcmBlock instead of decoding
// again. Only host work is shared. Each member still pays its own simulated
// decode time on its own decode CPU, counts its own stats, and records its
// own trace stages.
#ifndef SRC_SPEAKER_SPEAKER_H_
#define SRC_SPEAKER_SPEAKER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/audio/format.h"
#include "src/base/buffer.h"
#include "src/codec/codec.h"
#include "src/lan/transport.h"
#include "src/proto/wire.h"
#include "src/sim/simulation.h"
#include "src/speaker/playback.h"
#include "src/speaker/stream_session.h"

namespace espk {

class HistogramMetric;
class PacketTracer;
enum class TraceStage : uint8_t;

struct SpeakerOptions {
  std::string name = "es";
  // §3.2 leeway: how late a chunk may be and still be played.
  SimDuration sync_epsilon = Milliseconds(20);
  // Cap on decoded-but-not-yet-played PCM, shared across every
  // subscription. When a producer floods the LAN (rate limiter off), this
  // is the buffer that overflows (§3.1).
  size_t jitter_buffer_bytes = 2 * 1024 * 1024;
  // Decode time as a fraction of audio duration. ~0.25 models the EON
  // 4000's 233 MHz Geode on compressed CD audio; ~0.02 a workstation.
  double decode_speed_factor = 0.25;
  float gain = 1.0f;
  // §5.1 hook: return false to reject a packet (failed authentication).
  std::function<bool(const ParsedPacket&)> auth_verifier;
  // Extension beyond the paper: exponential smoothing of the producer-clock
  // offset across control packets. The paper adopts each control packet's
  // clock outright ("latest wins"), which is exact on a jitter-free LAN but
  // lets one delayed control packet shift the whole playout timeline. With
  // alpha in (0,1], offset_new = alpha*sample + (1-alpha)*offset. 1.0
  // reproduces the paper's behaviour exactly.
  double clock_smoothing_alpha = 1.0;

  // Observability hooks (src/obs), both optional and wired up by the
  // system: per-packet lifecycle tracing, and the distribution of how late
  // each chunk completed decode relative to its deadline (ms; negative =
  // early, > sync_epsilon = dropped).
  PacketTracer* tracer = nullptr;
  HistogramMetric* lateness_histogram = nullptr;
};

// A data packet that cleared admission (dedup, overflow, config checks) and
// now owes the pipeline a decode at `decode_done`. The PipelineScheduler
// below groups a batch's same-instant decodes into ONE event — for a zone,
// that batching is where the fleet runtime's per-speaker cost collapses.
// `valid` is false when the packet was dropped at admission.
// `group`/`session_epoch` route the obligation back to the session that
// issued it; a stale epoch (the group was unsubscribed mid-flight) makes
// the obligation a no-op.
struct PendingDecode {
  bool valid = false;
  SimTime decode_done = 0;
  GroupId group = 0;
  uint64_t session_epoch = 0;
  uint32_t stream_id = 0;
  uint32_t seq = 0;
  SimTime local_deadline = 0;
  BufferSlice payload;  // Zero-copy slice of the arrival buffer.
  size_t decoded_bytes = 0;
};

// A decoded chunk that arrived early and owes the pipeline a playout at
// `at` (its local deadline). Same batching and routing story as
// PendingDecode.
struct PendingPlay {
  bool valid = false;
  SimTime at = 0;
  GroupId group = 0;
  uint64_t session_epoch = 0;
  uint32_t stream_id = 0;
  uint32_t seq = 0;
  PcmBlock pcm;
  size_t decoded_bytes = 0;
};

// A PipelineScheduler's last successful decode, keyed by everything its
// output depends on. Both codecs decode each packet on its own (the
// AudioDecoder contract), so the PCM is a pure function of the payload
// bytes and the decoder's parameters. The key holds the payload slice, and
// with it the arrival buffer, so the buffer's address cannot be reused by
// another packet while the key names it.
struct LastDecode {
  BufferSlice payload;
  CodecId codec = CodecId::kRaw;
  AudioConfig config;
  uint8_t quality = 0;
  PcmBlock pcm;  // Null until the first successful decode.

  // True when `pcm` is what a decoder with these parameters would produce
  // for `slice`: the same slice of the same arrival buffer.
  bool Matches(const BufferSlice& slice, CodecId slice_codec,
               const AudioConfig& slice_config, uint8_t slice_quality) const {
    return pcm != nullptr && payload.data() == slice.data() &&
           payload.size() == slice.size() && codec == slice_codec &&
           config == slice_config && quality == slice_quality;
  }
};

class EthernetSpeaker;

// A pipeline obligation and the speaker that owes it.
struct DecodeJob {
  EthernetSpeaker* speaker = nullptr;
  PendingDecode pending;
};
struct PlayJob {
  EthernetSpeaker* speaker = nullptr;
  PendingPlay play;
};

// The decode/play scheduler every speaker's pipeline runs on. It turns
// admitted decodes into simulation events: ONE event per distinct
// decode-completion instant and ONE per distinct playout instant, however
// many speakers the batch holds. Jobs that share an instant run in the
// order given. A zone schedules all its members' admissions for one packet
// at once; a standalone speaker schedules a batch of one.
//
// A waiting group is parked in a slot and its event captures only
// (scheduler, slot), which std::function stores inline: each group costs
// one allocation, its vector.
//
// The scheduler keeps its last successful decode (LastDecode). Members of a
// zone that decode the same packet with the same parameters, in one group
// or in later ones with no other decode between, share its PcmBlock; a
// failed decode is never kept, so every member counts its own error.
class PipelineScheduler {
 public:
  explicit PipelineScheduler(Simulation* sim) : sim_(sim) {}
  PipelineScheduler(const PipelineScheduler&) = delete;
  PipelineScheduler& operator=(const PipelineScheduler&) = delete;

  void ScheduleDecodes(std::vector<DecodeJob> jobs);

 private:
  template <typename Job>
  struct Slots {
    std::vector<std::vector<Job>> groups;
    std::vector<uint32_t> free;
    std::vector<Job> Take(uint32_t slot);
  };

  // Splits `jobs` (stably) by instant and parks each group.
  template <typename Job>
  void Schedule(std::vector<Job> jobs, Slots<Job>* slots);
  template <typename Job>
  void Park(SimTime at, std::vector<Job> group, Slots<Job>* slots);
  void RunDecodes(uint32_t slot);
  void RunPlays(uint32_t slot);

  Simulation* sim_;
  Slots<DecodeJob> decodes_;
  Slots<PlayJob> plays_;
  LastDecode last_decode_;
};

struct SpeakerStats {
  uint64_t packets_received = 0;
  uint64_t control_packets = 0;
  uint64_t data_packets = 0;
  uint64_t bad_packets = 0;        // CRC/parse failures.
  uint64_t auth_rejected = 0;      // §5.1 verifier said no.
  uint64_t waiting_drops = 0;      // Data before the first control packet.
  uint64_t late_drops = 0;         // Past deadline + epsilon.
  uint64_t overflow_drops = 0;     // Jitter buffer full.
  uint64_t duplicate_drops = 0;    // Replayed/duplicated sequence numbers.
  uint64_t chunks_played = 0;
  uint64_t decode_errors = 0;
  // How late (ns) chunks that played within epsilon actually were.
  int64_t total_lateness_ns = 0;
  // Dead air: total gap (ns) between the end of one played chunk and the
  // start of the next within a subscription. Grows whenever a drop or
  // starvation leaves a hole in the playout timeline — the user-audible
  // failure the health layer alerts on.
  int64_t silence_ns = 0;
};

class EthernetSpeaker {
 public:
  EthernetSpeaker(Simulation* sim, Transport* nic,
                  const SpeakerOptions& options);
  ~EthernetSpeaker();

  // ------------------------------------------------- subscription surface --
  // Joins `group` and opens a fresh StreamSession for it. Fails if already
  // subscribed. Membership takes effect per the segment's join-latency knob
  // (SegmentConfig::join_latency); the session exists immediately.
  Status Subscribe(GroupId group);
  // Leaves `group` and tears the session down; in-flight pipeline
  // obligations for it become no-ops. Fails if not subscribed.
  Status Unsubscribe(GroupId group);
  // The paper's one-channel radio dial, kept as thin aliases: Tune drops
  // every current subscription, then subscribes to `group` alone.
  Status Tune(GroupId group);
  Status Untune();

  // Subscribed groups in subscription order. The first is the "primary"
  // whose stream the legacy single-channel accessors below expose.
  const std::vector<GroupId>& subscriptions() const {
    return subscribe_order_;
  }
  // Null when not subscribed to `group`.
  StreamSession* session(GroupId group);
  // The primary subscription's group; empty when unsubscribed. (Historical
  // name: with several subscriptions this is the earliest-subscribed one.)
  std::optional<GroupId> tuned_group() const;

  const SpeakerStats& stats() const { return stats_; }
  const SpeakerOptions& options() const { return options_; }
  const std::string& name() const { return options_.name; }

  // Legacy single-stream accessors, delegating to the primary session.
  // Null / empty until the first control packet of the primary stream.
  OutputRecorder* output();
  const std::optional<AudioConfig>& config() const;
  // True once any session has seen its control packet.
  bool ready() const;

  // Volume control (§5.2 auto-volume adjusts this). Device-wide: applied to
  // every subscription at play time.
  void set_gain(float gain) { options_.gain = gain; }
  float gain() const { return options_.gain; }

  // Decoded-but-unplayed PCM currently occupying the jitter buffer, summed
  // over every subscription (the capacity in options().jitter_buffer_bytes
  // is a shared device budget).
  size_t queued_pcm_bytes() const;

  // Mixes every ready session over [from, from+duration] into one PCM
  // window: concurrently subscribed streams sum at the output stage, the
  // way a real device feeds one DAC. Sessions whose format differs from the
  // primary's are skipped (no resampler). Empty when nothing is ready.
  std::vector<float> RenderMix(SimTime from, SimDuration duration);

  Simulation* sim() { return sim_; }

  // Feeds a datagram as if it arrived on the NIC: a batch of one through
  // the speaker's own scheduler. The speaker installs itself as the NIC's
  // receive handler at construction; components that share the NIC (e.g.
  // the management agent) take the handler over and forward
  // non-management traffic here.
  void HandleDatagram(const Datagram& datagram) { OnDatagram(datagram); }

  // ------------------------------------------------- pipeline surface --
  // A zone parses a multicast packet ONCE and feeds the shared result to
  // every member through these three stages; HandleDatagram runs the same
  // stages for one speaker.

  // Stage 1, at arrival time: admission (stats, auth, control handling,
  // dedup/overflow checks) for the session the datagram's group maps to;
  // null when the speaker has none. Fills `*out` with the decode
  // obligation for an admitted data packet; out->valid stays false
  // otherwise.
  void IngestParsed(const Result<ParsedPacket>& parsed, StreamSession* session,
                    PendingDecode* out);
  // Stage 2, at pending.decode_done: decode + deadline triage. The decode
  // reuses `*last` when it matches and replaces it after a successful
  // decode otherwise. An early-arriving chunk becomes a playout obligation
  // in `*out_play`; on-time chunks play here, late ones drop here.
  void RunDecode(const PendingDecode& pending, LastDecode* last,
                 PendingPlay* out_play);
  // Stage 3, at play.at: render an early chunk at its deadline.
  void RunPlay(PendingPlay play);

 private:
  friend class StreamSession;

  void OnDatagram(const Datagram& datagram);
  void Trace(uint32_t stream_id, uint32_t seq, TraceStage stage);
  StreamSession* FindSession(GroupId group);
  StreamSession* primary();
  const StreamSession* primary() const;

  Simulation* sim_;
  Transport* nic_;
  // The NIC's id, fixed at its construction; stamped on trace records.
  const NodeId node_id_;
  SpeakerOptions options_;
  // Schedules what HandleDatagram admits (zone members use their zone's).
  PipelineScheduler scheduler_;

  // Active subscriptions: group -> session, plus subscription order (the
  // front is the primary the legacy accessors expose).
  std::map<GroupId, std::unique_ptr<StreamSession>> sessions_;
  std::vector<GroupId> subscribe_order_;
  uint64_t next_session_epoch_ = 0;

  // Decode pipeline: ONE decode CPU per device, shared by every session —
  // serialized, busy until this instant.
  SimTime decode_busy_until_ = 0;

  // Returned by config() when no session is ready; always empty.
  std::optional<AudioConfig> no_config_;

  SpeakerStats stats_;
};

}  // namespace espk

#endif  // SRC_SPEAKER_SPEAKER_H_
