// Read-outs over the FleetStore: a federated Prometheus-style exposition
// (every station's metrics behind one endpoint, distinguished by a
// `station` label) and a fixed-width text dashboard for terminals. Both are
// pure functions of store contents, so two identical runs render
// byte-identical output — the fleet_dashboard example's golden-file CI
// check leans on that.
#ifndef SRC_OBS_FEDERATION_RENDER_H_
#define SRC_OBS_FEDERATION_RENDER_H_

#include <string>
#include <vector>

#include "src/obs/federation/store.h"

namespace espk {

// Prometheus text format, grouped per metric family with HELP/TYPE emitted
// once and one line per station: `espk_speaker_late_drops{station="es-0"} 3`.
// Histograms come out as summaries with {station,quantile} labels plus
// _sum/_count. Leads with the synthetic family `espk_up{station=...}` —
// 1 fresh, 0 stale — so scrape health federates along with the data.
std::string FederatedExposition(const FleetStore& store);

struct DashboardOptions {
  // Queries rendered as sections under the station table, in order.
  std::vector<std::string> queries;
  // Extra pre-rendered sections appended after the query sections: a `##
  // title` header followed by the body verbatim. Lets callers splice in
  // views the store doesn't hold (e.g. the subscription directory's
  // who-hears-what) without this layer depending on theirs.
  struct Section {
    std::string title;
    std::string body;
  };
  std::vector<Section> sections;
};

// Deterministic fleet overview: one row per station (state, data age,
// metric count, ingest count), then one section per configured query.
// The runtime's "zone-*" stations (EnableZoneTelemetry) additionally
// render as a "runtime" section (see RenderRuntimeSection); fleets without
// them have no such section.
std::string RenderFleetDashboard(const FleetStore& store, SimTime now,
                                 const DashboardOptions& options = {});

// One row per "zone-<z>" station with the sharded runtime's
// self-telemetry: epochs run, run-phase p50/p99 and barrier-wait p99 (us,
// wall clock), cross-shard messages drained, and the inbox high-watermark.
// Empty string when the store has no zone stations.
std::string RenderRuntimeSection(const FleetStore& store);

}  // namespace espk

#endif  // SRC_OBS_FEDERATION_RENDER_H_
