// Telemetry scrape extension to the management protocol: the collector side
// of the distributed telemetry plane pulls a whole metrics snapshot from one
// station with a single kScrape request, and the station streams the
// serialized snapshot back as unicast kScrapeChunk fragments (a snapshot
// with histogram bucket arrays does not fit one mgmt datagram).
//
// Ops 6/7 coexist with the SNMP-ish ops 1..5 on the same multicast group:
// the existing request/response/trap parsers reject unknown op bytes, and
// these parsers reject theirs.
//
// This header deliberately knows nothing about MetricsRegistry or snapshot
// encoding — a ScrapeAgent serves whatever bytes its snapshot callback
// yields. That keeps the dependency arrow pointing the right way: mgmt
// carries the bytes, src/obs/federation defines and interprets them.
#ifndef SRC_MGMT_SCRAPE_H_
#define SRC_MGMT_SCRAPE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "src/lan/transport.h"
#include "src/mgmt/agent.h"
#include "src/sim/simulation.h"

namespace espk {

// Console -> station: "send me your snapshot". Targeted, never broadcast —
// the collector paces stations individually so their replies don't collide.
struct ScrapeRequest {
  uint32_t request_id = 0;
  NodeId target = 0;

  Bytes Serialize() const;
  static Result<ScrapeRequest> Deserialize(const BufferSlice& wire);
};

// Station -> console: one fragment of the serialized snapshot. `index` out
// of `count` fragments, each at most the agent's max_chunk_bytes.
struct ScrapeChunk {
  uint32_t request_id = 0;
  NodeId responder = 0;
  uint16_t index = 0;
  uint16_t count = 0;
  Bytes fragment;

  Bytes Serialize() const;
  static Result<ScrapeChunk> Deserialize(const BufferSlice& wire);
};

// Fragments `payload` into chunks of at most `max_chunk_bytes` fragment
// bytes each. Always yields at least one chunk (an empty payload travels as
// a single empty fragment so the collector can tell "empty snapshot" from
// "no answer").
std::vector<ScrapeChunk> SplitIntoChunks(uint32_t request_id, NodeId responder,
                                         const Bytes& payload,
                                         size_t max_chunk_bytes);

// Reassembles one response. Feed every arriving chunk for the request to
// Add(); it returns the full payload once the last missing fragment lands,
// nullopt before that. Chunks for a different request id than the first one
// seen, duplicates, and inconsistent counts are ignored. Reset() forgets
// everything (the collector resets per scrape attempt).
class ChunkAssembler {
 public:
  std::optional<Bytes> Add(const ScrapeChunk& chunk);
  void Reset();

  bool started() const { return started_; }
  uint32_t request_id() const { return request_id_; }
  size_t received() const { return received_; }
  uint16_t expected() const { return count_; }

 private:
  bool started_ = false;
  uint32_t request_id_ = 0;
  uint16_t count_ = 0;
  size_t received_ = 0;
  std::vector<Bytes> fragments_;
  std::vector<bool> have_;
};

struct ScrapeAgentOptions {
  // Fragment payload cap. Small enough that a multi-histogram snapshot
  // genuinely fragments, large enough that a fleet scrape is a handful of
  // datagrams per station.
  size_t max_chunk_bytes = 1024;
};

// Station-side responder. Owns no metrics: `snapshot_source` is called per
// scrape and its bytes are chunked back to the requester as unicast. Runs on
// a dedicated NIC (it claims the receive handler).
class ScrapeAgent {
 public:
  // `nic` and `snapshot_source`'s captures must outlive the agent.
  ScrapeAgent(Transport* nic, std::function<Bytes()> snapshot_source,
              ScrapeAgentOptions options = {});

  ScrapeAgent(const ScrapeAgent&) = delete;
  ScrapeAgent& operator=(const ScrapeAgent&) = delete;

  uint64_t scrapes_served() const { return scrapes_served_; }
  uint64_t chunks_sent() const { return chunks_sent_; }

 private:
  void OnDatagram(const Datagram& datagram);

  Transport* nic_;
  std::function<Bytes()> snapshot_source_;
  ScrapeAgentOptions options_;
  uint64_t scrapes_served_ = 0;
  uint64_t chunks_sent_ = 0;
};

}  // namespace espk

#endif  // SRC_MGMT_SCRAPE_H_
