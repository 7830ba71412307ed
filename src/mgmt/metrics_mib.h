// Bridge from the metrics registry (src/obs) to the enterprise MIB (§5.3):
// every registered metric becomes one or more read-only OIDs under
// 1.3.6.1.4.1.9999.9, so an NMS walk enumerates live telemetry without any
// per-metric glue. One MIB per station, as each speaker has its own agent
// and MIB: the system registry gives the console's kernel and LAN view, a
// speaker's "es-<i>" or a channel's "rb-<sid>" registry that component's.
// Lives in mgmt (not obs) so the low-level obs library stays free of
// management-protocol dependencies.
#ifndef SRC_MGMT_METRICS_MIB_H_
#define SRC_MGMT_METRICS_MIB_H_

#include <cstddef>

#include "src/mgmt/mib.h"
#include "src/obs/alerts.h"
#include "src/obs/metrics.h"

namespace espk {

// Registers every metric currently in `registry` under the metrics subtree
// {9} of the enterprise OID, in registration order (1-based arc `i`):
//
//   counter / gauge:  .9.i.1           = value
//   histogram:        .9.i.1 = count,  .9.i.2 = mean,
//                     .9.i.3 = p50,    .9.i.4 = p99
//
// The MIB variables read through to the live metric, so a walk always sees
// current values. Metrics registered after this call are not exported; call
// again once the system is fully assembled. Returns how many OIDs were
// registered. The registry must outlive the MIB.
size_t ExportMetricsToMib(const MetricsRegistry* registry, Mib* mib);

// Registers one row per SLO rule under the alerts subtree {10} of the
// enterprise OID, in rule order (1-based arc `i`):
//
//   .10.i.1 = rule name       .10.i.2 = state name (inactive/.../clearing)
//   .10.i.3 = observed value  .10.i.4 = threshold
//   .10.i.5 = transition count for the rule
//
// Read-through like the metrics bridge: a walk during an incident shows the
// firing rules live. Rules added after this call are not exported. Returns
// how many OIDs were registered. The engine must outlive the MIB.
size_t ExportAlertsToMib(const AlertEngine* engine, Mib* mib);

}  // namespace espk

#endif  // SRC_MGMT_METRICS_MIB_H_
