#include "src/obs/federation/fleet.h"

#include "src/obs/federation/sample.h"

namespace espk {
namespace {

// Store key for the system-wide registry, ingested locally each cycle.
constexpr char kConsoleStation[] = "console";

}  // namespace

FleetPlane::FleetPlane(EthernetSpeakerSystem* system) : system_(system) {
  Simulation* sim = system_->sim();
  collector_nic_ = system_->lan()->CreateNic();
  collector_ = std::make_unique<FleetCollector>(sim, collector_nic_.get(),
                                                system_->metrics());
  collector_->AddLocalSource(kConsoleStation, system_->metrics());
  // With span tracing enabled (before the fleet plane is built), each
  // station's span buffer rides its scrape and successfully collected
  // buffers flow into the console-side assembler.
  SpanPlane* spans = system_->spans();
  if (spans != nullptr) {
    SpanAssembler* assembler = spans->assembler();
    collector_->set_span_sink(
        [assembler](const std::string& /*station*/, const Bytes& wire,
                    SimTime now) {
          // A corrupt batch is dropped whole; the spans it carried will
          // ride the next scrape of the same ring.
          (void)assembler->IngestWire(wire, now);
        });
  }
  for (const auto& station : system_->stations()) {
    std::unique_ptr<SimNic> nic = system_->lan()->CreateNic();
    // The agent serializes the station's registry at scrape time, stamped
    // with the station-side sim clock (one clock in simulation, but the
    // snapshot format keeps them distinct on purpose).
    MetricsRegistry* registry = station->registry.get();
    std::string name = station->name;
    SpanRecorder* recorder =
        spans != nullptr ? spans->FindRecorder(name) : nullptr;
    agents_.push_back(std::make_unique<ScrapeAgent>(
        sim, nic.get(),
        [registry, name, sim, recorder] {
          StationSnapshot snapshot =
              SnapshotRegistry(*registry, name, sim->now());
          if (recorder != nullptr) {
            snapshot.spans = recorder->SerializeBatch();
          }
          return snapshot.Serialize();
        }));
    collector_->AddTarget(station->name, nic->node_id());
    agent_nics_.push_back(std::move(nic));
  }
}

}  // namespace espk
