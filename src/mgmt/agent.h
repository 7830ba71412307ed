// The Ethernet Speaker's management agent and the NMS console that drives
// it (§5.3). The agent exposes the speaker through a MIB — volume, tuned
// channel, playback statistics — over a trivial SNMP-ish request/response
// protocol on a dedicated multicast group (requests carry the target node,
// or 0 to address every agent at once: the paper's "all ESs within an
// administrative domain may need to be controlled centrally").
#ifndef SRC_MGMT_AGENT_H_
#define SRC_MGMT_AGENT_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/lan/transport.h"
#include "src/mgmt/mib.h"
#include "src/sim/simulation.h"
#include "src/speaker/speaker.h"

namespace espk {

// Management traffic rides its own well-known group.
inline constexpr GroupId kMgmtGroup = 2;

enum class MgmtOp : uint8_t {
  kGet = 1,
  kSet = 2,
  kGetNext = 3,
  kResponse = 4,
  kTrap = 5,         // Unsolicited agent -> console notification.
  kScrape = 6,       // Telemetry pull: console -> one station (src/mgmt/scrape).
  kScrapeChunk = 7,  // Fragment of a scrape response, station -> console.
};

struct MgmtRequest {
  uint32_t request_id = 0;
  NodeId target = 0;  // 0 = every agent.
  MgmtOp op = MgmtOp::kGet;
  Oid oid;
  std::string value;  // For kSet.

  Bytes Serialize() const;
  static Result<MgmtRequest> Deserialize(const BufferSlice& wire);
};

struct MgmtResponse {
  uint32_t request_id = 0;
  NodeId responder = 0;
  bool ok = false;
  Oid oid;             // For kGetNext: the next OID.
  std::string value;   // Get result or error message.

  Bytes Serialize() const;
  static Result<MgmtResponse> Deserialize(const BufferSlice& wire);
};

// SNMP-style trap: an unsolicited notification carrying one SLO alert
// transition. Request/response parsers reject the kTrap op byte, so traps
// coexist with polling traffic on the same group.
struct MgmtTrap {
  uint32_t trap_seq = 0;  // Per-sender sequence, for loss detection.
  NodeId source = 0;
  bool firing = false;    // true = alert fired, false = resolved.
  std::string rule;
  double observed = 0.0;
  double threshold = 0.0;
  SimTime at = 0;         // Sim time of the transition.

  Bytes Serialize() const;
  static Result<MgmtTrap> Deserialize(const BufferSlice& wire);
};

class AlertEngine;
struct AlertTransition;

// Bridges an AlertEngine onto the wire: subscribes to transitions and
// multicasts each one as an MgmtTrap on the management group from `nic`.
class AlertTrapSender {
 public:
  // Subscribes at construction; `nic` and `engine` must outlive the sender.
  AlertTrapSender(Transport* nic, AlertEngine* engine);

  AlertTrapSender(const AlertTrapSender&) = delete;
  AlertTrapSender& operator=(const AlertTrapSender&) = delete;

  uint64_t sent() const { return sent_; }

 private:
  Transport* nic_;
  uint32_t next_seq_ = 1;
  uint64_t sent_ = 0;
};

// Binds a speaker to the management group and answers requests against its
// MIB. Also implements the channel-override behaviour: setting the
// `override` OID retunes the speaker and remembers where it was.
class SpeakerAgent {
 public:
  SpeakerAgent(Simulation* sim, Transport* nic, EthernetSpeaker* speaker);

  Mib* mib() { return &mib_; }

  // Starts forwarding `engine`'s alert transitions as traps from this
  // agent's NIC. The engine must outlive the agent.
  void WatchAlerts(AlertEngine* engine);

 private:
  void BuildMib();
  void OnDatagram(const Datagram& datagram);

  Simulation* sim_;
  Transport* nic_;
  EthernetSpeaker* speaker_;
  Mib mib_;
  // Subscriptions in order, saved by the first override and restored by
  // the set of 0.
  std::optional<std::vector<GroupId>> pre_override_groups_;
  std::unique_ptr<AlertTrapSender> trap_sender_;
};

class MetricsRegistry;
class Counter;

// The central console: issues requests and collects responses. Since the
// simulation is event-driven, results arrive via callback after RunFor.
class MgmtConsole {
 public:
  // With a registry, the console registers its own telemetry there:
  // "trap.received" and "trap.sequence_gaps" (gaps in per-sender trap
  // sequence numbers — the console-side count of traps the LAN ate).
  MgmtConsole(Simulation* sim, Transport* nic,
              MetricsRegistry* registry = nullptr);

  using ResponseCallback = std::function<void(const MgmtResponse&)>;

  // Sends a request; `on_response` fires per responding agent.
  void Get(NodeId target, const Oid& oid, ResponseCallback on_response);
  void Set(NodeId target, const Oid& oid, const std::string& value,
           ResponseCallback on_response);
  void GetNext(NodeId target, const Oid& oid, ResponseCallback on_response);

  // Broadcast override: every speaker saves its channel and tunes to
  // `announcement_group`; Restore sends them back (§5.3's cabin-crew
  // scenario).
  void OverrideAll(GroupId announcement_group);
  void RestoreAll();

  using TrapHandler = std::function<void(const MgmtTrap&)>;

  // Fires per received trap. Traps arriving with no handler installed are
  // still counted and kept in trap_log().
  void SetTrapHandler(TrapHandler handler);
  const std::vector<MgmtTrap>& trap_log() const { return trap_log_; }
  uint64_t traps_received() const { return traps_received_; }

  // Traps that provably never arrived: each sender numbers its traps 1,2,…,
  // so a received seq jumping from n to n+k counts k-1 missing. Detected at
  // receive time — a trailing loss (nothing after it arrives) is invisible.
  uint64_t sequence_gaps() const { return sequence_gaps_; }

 private:
  void Send(MgmtOp op, NodeId target, const Oid& oid,
            const std::string& value, ResponseCallback on_response);
  void OnDatagram(const Datagram& datagram);
  void AccountTrapSequence(const MgmtTrap& trap);

  Simulation* sim_;
  Transport* nic_;
  uint32_t next_request_id_ = 1;
  std::map<uint32_t, ResponseCallback> outstanding_;
  TrapHandler trap_handler_;
  std::vector<MgmtTrap> trap_log_;
  uint64_t traps_received_ = 0;
  uint64_t sequence_gaps_ = 0;
  std::map<NodeId, uint32_t> last_trap_seq_;
  Counter* traps_received_metric_ = nullptr;  // Null without a registry.
  Counter* sequence_gaps_metric_ = nullptr;
};

// OIDs of the speaker MIB (under the espk enterprise arc).
Oid MibOidName();            // .1.1  name (ro)
Oid MibOidVolume();          // .1.2  volume gain (rw)
Oid MibOidChannel();         // .1.3  primary group (rw; 0 = untuned)
Oid MibOidOverride();        // .1.4  override group (rw; 0 = restore)
Oid MibOidSubscriptions();   // .1.5  subscribed groups, comma-joined (ro)
Oid MibOidSubscribe();       // .1.6  set = add subscription to group
Oid MibOidUnsubscribe();     // .1.7  set = drop subscription to group
Oid MibOidChunksPlayed();    // .2.1  (ro)
Oid MibOidLateDrops();       // .2.2  (ro)
Oid MibOidPacketsReceived(); // .2.3  (ro)

}  // namespace espk

#endif  // SRC_MGMT_AGENT_H_
