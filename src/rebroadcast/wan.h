// The WAN side of the rebroadcaster-as-proxy story (§2.2, Figure 1): a
// "Real Audio server" somewhere on the Internet streams unicast audio to
// clients; the gateway runs the client, which plays into a VAD, and the
// rebroadcaster turns the single WAN connection into one LAN multicast.
//
// WanAudioServer also supports multiple unicast listeners directly, which is
// the load the paper wants to avoid ("we may not want to load our WAN link
// with multiple unicast connections from machines downloading the same
// data") — bench C6 measures exactly that.
#ifndef SRC_REBROADCAST_WAN_H_
#define SRC_REBROADCAST_WAN_H_

#include <memory>
#include <set>

#include "src/audio/format.h"
#include "src/audio/generator.h"
#include "src/kernel/kernel.h"
#include "src/lan/transport.h"
#include "src/sim/simulation.h"

namespace espk {

// Framing of the WAN stream: u32 seq + raw PCM bytes (the format is part of
// the out-of-band session setup, as with a real streaming service).
struct WanChunk {
  uint32_t seq = 0;
  Bytes pcm;

  Bytes Serialize() const;
  static Result<WanChunk> Deserialize(const BufferSlice& wire);
};

// Streams `generator` content at real-time pace as unicast datagrams to
// every subscribed listener over `wan` (its own simulated link).
class WanAudioServer {
 public:
  WanAudioServer(Simulation* sim, Transport* wan, const AudioConfig& config,
                 std::unique_ptr<SignalGenerator> generator,
                 SimDuration chunk_interval = Milliseconds(100));

  void AddListener(NodeId node) { listeners_.insert(node); }
  size_t listener_count() const { return listeners_.size(); }

  void Start() { task_.Start(); }
  void Stop() { task_.Stop(); }

  uint64_t chunks_sent() const { return chunks_sent_; }

 private:
  void Tick(SimTime now);

  Transport* wan_;
  AudioConfig config_;
  std::unique_ptr<SignalGenerator> generator_;
  SimDuration chunk_interval_;
  std::set<NodeId> listeners_;
  uint32_t next_seq_ = 0;
  uint64_t chunks_sent_ = 0;
  PeriodicTask task_;
};

// The gateway's streaming client: receives the WAN unicast stream and plays
// it into an audio device — which happens to be a VAD slave, so the
// rebroadcaster can pick it up. From the client's point of view it is just
// playing audio (§2.1: "the application cannot determine whether it is
// sending the audio to a physical device or to a virtual device").
class GatewayPlayer {
 public:
  GatewayPlayer(SimKernel* kernel, Pid pid, std::string device_path,
                Transport* wan_nic, const AudioConfig& config);
  ~GatewayPlayer();

  Status Start();
  void Stop();

  uint64_t chunks_received() const { return chunks_received_; }
  uint64_t chunks_dropped() const { return chunks_dropped_; }

 private:
  void OnDatagram(const Datagram& datagram);
  void FlushToDevice();

  SimKernel* kernel_;
  Pid pid_;
  std::string device_path_;
  Transport* wan_nic_;
  AudioConfig config_;
  int fd_ = -1;
  bool running_ = false;
  bool write_outstanding_ = false;
  Bytes pending_;
  uint64_t chunks_received_ = 0;
  uint64_t chunks_dropped_ = 0;
};

}  // namespace espk

#endif  // SRC_REBROADCAST_WAN_H_
