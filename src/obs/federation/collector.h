// The active half of the distributed telemetry plane: a FleetCollector
// pulls a metrics snapshot from every registered station once per second
// of sim time over the management protocol (kScrape out, kScrapeChunk
// fragments back), with a 250 ms per-attempt timeout, up to two retries
// after 100 ms and then 200 ms, and staleness marking after two
// consecutive whole-cycle misses. The store keeps 600 points per (station,
// metric). Everything runs on the simulated clock, so a lossy or congested
// segment produces the exact same timeout/retry/staleness history on every
// run.
//
// Stations that live in the collector's own process (the console itself)
// register as local sources and are ingested directly each cycle — same
// store, no wire.
#ifndef SRC_OBS_FEDERATION_COLLECTOR_H_
#define SRC_OBS_FEDERATION_COLLECTOR_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/lan/transport.h"
#include "src/mgmt/scrape.h"
#include "src/obs/federation/store.h"
#include "src/obs/metrics.h"
#include "src/sim/simulation.h"

namespace espk {

class FleetCollector {
 public:
  // The collector registers its self-telemetry on `self_registry` (the
  // console station's own) as the scrape.* counter family; the registry
  // must outlive the collector.
  FleetCollector(Simulation* sim, Transport* nic,
                 MetricsRegistry* self_registry);

  FleetCollector(const FleetCollector&) = delete;
  FleetCollector& operator=(const FleetCollector&) = delete;

  ~FleetCollector();

  // A remote station to scrape, keyed in the store by `station` (the
  // collector's name for it wins over whatever the wire snapshot claims).
  void AddTarget(std::string station, NodeId node);

  // A registry in this process, ingested directly each cycle. Must outlive
  // the collector.
  void AddLocalSource(std::string station, const MetricsRegistry* registry);

  // Receives each successfully scraped station's opaque span-buffer bytes
  // (StationSnapshot::spans, when non-empty). The fleet plane points this
  // at the span assembler so cross-station trees build up at the console.
  using SpanSink =
      std::function<void(const std::string& station, const Bytes& spans,
                         SimTime now)>;
  void set_span_sink(SpanSink sink) { span_sink_ = std::move(sink); }

  // First cycle fires immediately at Start() time.
  void Start();
  void Stop();
  bool running() const { return task_ != nullptr && task_->running(); }

  FleetStore* store() { return &store_; }
  const FleetStore& store() const { return store_; }

  // Self-telemetry. An "attempt" is one request+timeout window; a "miss" is
  // a whole cycle whose every attempt timed out. The scrape.* counters
  // behind these accessors are the only store of their values.
  uint64_t cycles() const { return cycles_; }
  uint64_t attempts() const { return attempts_->value(); }
  uint64_t successes() const { return successes_->value(); }
  uint64_t timeouts() const { return timeouts_->value(); }
  uint64_t retries() const { return retries_->value(); }
  uint64_t misses() const { return misses_->value(); }
  uint64_t stale_transitions() const { return stale_transitions_->value(); }
  uint64_t chunks_received() const { return chunks_received_->value(); }
  uint64_t stray_chunks() const { return stray_chunks_; }
  uint64_t overruns() const { return overruns_; }

 private:
  struct Target {
    std::string station;
    NodeId node = 0;
    // Cycle state.
    bool awaiting = false;
    int attempt = 0;  // 1-based within the cycle.
    uint32_t request_id = 0;
    int consecutive_misses = 0;
    bool marked_stale = false;
    ChunkAssembler assembler;
    Simulation::EventHandle timeout_event;
    Simulation::EventHandle retry_event;
  };

  void OnTick(SimTime now);
  void BeginAttempt(Target* target);
  void OnAttemptTimeout(Target* target);
  void OnDatagram(const Datagram& datagram);

  Simulation* sim_;
  Transport* nic_;
  FleetStore store_;
  std::unique_ptr<PeriodicTask> task_;
  std::vector<std::unique_ptr<Target>> targets_;
  std::map<uint32_t, Target*> by_request_;
  struct LocalSource {
    std::string station;
    const MetricsRegistry* registry;
  };
  std::vector<LocalSource> locals_;
  SpanSink span_sink_;
  uint32_t next_request_id_ = 1;

  uint64_t cycles_ = 0;
  uint64_t stray_chunks_ = 0;
  uint64_t overruns_ = 0;
  // The scrape.* counters on the self registry.
  Counter* attempts_;
  Counter* successes_;
  Counter* timeouts_;
  Counter* retries_;
  Counter* misses_;
  Counter* stale_transitions_;
  Counter* chunks_received_;
};

}  // namespace espk

#endif  // SRC_OBS_FEDERATION_COLLECTOR_H_
