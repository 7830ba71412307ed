// Comparators from the paper's related-work discussion (§4):
//
//  * UnicastStreamServer — a SHOUTcast/Helix-style server that streams a
//    separate unicast copy to every listener. Bench C6 shows its LAN/WAN
//    load growing linearly with listeners while the ES multicast stays
//    flat ("these multiple connections increase the load both on the
//    remote server and on the external connection points", §6).
//
//  * UnsyncReceiver — an AirTunes-class "internet radio" device: it buffers
//    and plays on arrival with a fixed local delay and ignores producer
//    timestamps. Its feature set "is very similar to the ES, with the
//    exception that they do not provide synchronization between nearby
//    stations" (§4.2). Under loss or staggered starts, two of them drift
//    audibly apart — the problem the ES sync protocol exists to solve.
#ifndef SRC_BASELINE_BASELINE_H_
#define SRC_BASELINE_BASELINE_H_

#include <memory>
#include <set>
#include <vector>

#include "src/audio/format.h"
#include "src/audio/generator.h"
#include "src/codec/codec.h"
#include "src/lan/transport.h"
#include "src/proto/wire.h"
#include "src/sim/simulation.h"
#include "src/speaker/playback.h"

namespace espk {

// Streams one unicast copy of the (same) content to each listener, paced at
// real time, using the same wire packets as the ES protocol so the
// comparison is apples-to-apples.
class UnicastStreamServer {
 public:
  UnicastStreamServer(Simulation* sim, Transport* nic,
                      const AudioConfig& config,
                      std::unique_ptr<SignalGenerator> generator,
                      int64_t packet_frames = 4096);

  void AddListener(NodeId node);
  size_t listener_count() const { return listeners_.size(); }

  void Start();
  void Stop();

  uint64_t packets_sent() const { return packets_sent_; }
  uint64_t payload_bytes_sent() const { return payload_bytes_; }

 private:
  void Tick(SimTime now);

  Simulation* sim_;
  Transport* nic_;
  AudioConfig config_;
  std::unique_ptr<SignalGenerator> generator_;
  int64_t packet_frames_;
  std::set<NodeId> listeners_;
  uint32_t next_seq_ = 0;
  uint64_t packets_sent_ = 0;
  uint64_t payload_bytes_ = 0;
  PeriodicTask task_;
};

// Plays data packets in arrival order on a self-paced local timeline, after
// a fixed 200 ms of local buffering; no producer clock, no deadline discard.
class UnsyncReceiver {
 public:
  UnsyncReceiver(Simulation* sim, Transport* nic);

  // Tunes to a multicast channel (it understands the ES wire format; it
  // just ignores the synchronization machinery).
  Status Tune(GroupId group);

  OutputRecorder* output() { return recorder_.get(); }
  bool ready() const { return recorder_ != nullptr; }
  uint64_t chunks_played() const { return chunks_played_; }

 private:
  void OnDatagram(const Datagram& datagram);

  Simulation* sim_;
  Transport* nic_;
  std::optional<AudioConfig> config_;
  std::unique_ptr<AudioDecoder> decoder_;
  std::unique_ptr<OutputRecorder> recorder_;
  SimTime next_play_time_ = 0;
  uint64_t chunks_played_ = 0;
};

}  // namespace espk

#endif  // SRC_BASELINE_BASELINE_H_
