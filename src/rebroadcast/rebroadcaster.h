// The Audio Stream Rebroadcaster (§2.2): a single-threaded user-level
// process that reads the master side of a VAD and delivers the stream to
// the LAN as multicast packets.
//
// Responsibilities, straight from the paper:
//  * read audio + configuration records from /dev/vadmN
//  * rate-limit to real time (§3.1) — the VAD won't do it
//  * compress high-bitrate channels (200 kbps and up, which splits phone
//    from CD quality), leave low-bitrate channels raw (§2.2), with the
//    quality index at maximum by default to minimize tandem-lossy damage
//    (source codec -> Vorbix)
//  * send a control packet at regular intervals carrying the audio config
//    and the producer wall clock, so receive-only speakers can tune in at
//    any moment with zero producer state (§2.3)
//  * stamp every data packet with the deadline at which its first frame
//    should be played (§3.2)
#ifndef SRC_REBROADCAST_REBROADCASTER_H_
#define SRC_REBROADCAST_REBROADCASTER_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "src/base/cpu_clock.h"
#include "src/codec/codec.h"
#include "src/kernel/kernel.h"
#include "src/lan/transport.h"
#include "src/proto/wire.h"
#include "src/rebroadcast/rate_limiter.h"
#include "src/sim/simulation.h"

namespace espk {

class HistogramMetric;
class PacketTracer;

struct RebroadcasterOptions {
  uint32_t stream_id = 1;
  GroupId group = kFirstChannelGroup;
  std::string channel_name = "channel";

  // Control packets at regular intervals (§2.3).
  SimDuration control_interval = Seconds(1);
  // Frames per data packet (per channel).
  int64_t packet_frames = 4096;
  // How far ahead of a packet's send time its play deadline is placed —
  // the speakers' playout buffer depth.
  SimDuration playout_delay = Milliseconds(200);

  // §3.1 rate limiter. Disabling it reproduces the wire-speed failure.
  bool rate_limiter_enabled = true;
  SimDuration rate_limiter_lead = Milliseconds(250);

  int quality = 10;  // "we simply set the Ogg Vorbis quality index to its
                     // maximum" (§2.2).
  // Forces one codec instead of §2.2's choice by bitrate.
  std::optional<CodecId> codec_override;

  // Optional §5.1 authenticator: given the signed region, returns the auth
  // trailer to attach.
  std::function<Bytes(const Bytes& signed_region)> authenticator;

  // Observability hooks (src/obs), both optional and wired up by the
  // system: per-packet lifecycle tracing, and the per-packet codec CPU
  // cost distribution (the Figure 4 quantity, in milliseconds).
  PacketTracer* tracer = nullptr;
  HistogramMetric* encode_ms_histogram = nullptr;
};

struct RebroadcasterStats {
  uint64_t control_packets = 0;
  uint64_t data_packets = 0;
  uint64_t payload_bytes = 0;      // Post-codec bytes on the wire.
  uint64_t pcm_bytes_in = 0;       // Raw bytes read from the VAD.
  uint64_t config_changes = 0;
  uint64_t rate_limit_sleeps = 0;  // Times the producer had to wait.
  uint64_t packets_suppressed = 0; // Dropped while suspended (no listeners).
};

class Rebroadcaster {
 public:
  // Reads from `master_path` (e.g. "/dev/vadm0") as process `pid` on
  // `kernel`, sends via `transport`. The transport must outlive this.
  Rebroadcaster(SimKernel* kernel, Pid pid, std::string master_path,
                Transport* transport, const RebroadcasterOptions& options);
  ~Rebroadcaster();

  Rebroadcaster(const Rebroadcaster&) = delete;
  Rebroadcaster& operator=(const Rebroadcaster&) = delete;

  // Opens the master device and starts the read/encode/send loop.
  Status Start();
  void Stop();

  const RebroadcasterStats& stats() const { return stats_; }
  const RebroadcasterOptions& options() const { return options_; }
  // Real host CPU spent inside the codec — the quantity Figure 4 plots.
  double encode_cpu_seconds() const { return encode_cpu_.total_seconds(); }
  bool compressing() const { return codec_id_ == CodecId::kVorbix; }
  const AudioConfig& config() const { return config_; }

  // MSNIP-style transmission suspension (§4.3, planned feature): while
  // suspended the producer keeps consuming the live source and sending
  // control packets (so the channel stays in the catalog and joiners can
  // still sync), but data packets are suppressed — "the server [can]
  // suspend transmission of a particular channel if it notices that there
  // are no listeners". The PresenceMonitor (src/core) drives this.
  void set_suspended(bool suspended) { suspended_ = suspended; }
  bool suspended() const { return suspended_; }

 private:
  void ReadNext();
  void HandleRecord(const Bytes& frame);
  void HandleConfig(const AudioConfig& config);
  void HandleAudio(const Bytes& pcm);
  void MaybeSendPacket();
  void SendDataPacket();
  void SendControlPacket(SimTime now);
  CodecId PickCodec(const AudioConfig& config) const;
  void Send(const Packet& packet, TraceTag trace = {});

  SimKernel* kernel_;
  Pid pid_;
  std::string master_path_;
  Transport* transport_;
  RebroadcasterOptions options_;

  int fd_ = -1;
  bool running_ = false;
  bool read_outstanding_ = false;
  bool send_scheduled_ = false;
  bool suspended_ = false;

  AudioConfig config_;
  bool have_config_ = false;
  CodecId codec_id_ = CodecId::kRaw;
  std::unique_ptr<AudioEncoder> encoder_;

  Bytes staging_;             // PCM bytes awaiting a full packet.
  uint64_t bytes_cut_ = 0;    // Cumulative PCM cut into packets (tracing).
  uint32_t next_seq_ = 0;
  uint32_t control_seq_ = 0;
  SimTime next_deadline_ = 0;  // Play deadline for the next packet's frame 0.

  RateLimiter limiter_;
  std::unique_ptr<PeriodicTask> control_task_;
  RebroadcasterStats stats_;
  CpuAccumulator encode_cpu_;
};

}  // namespace espk

#endif  // SRC_REBROADCAST_REBROADCASTER_H_
