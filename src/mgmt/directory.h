// SubscriptionDirectory: the service plane's registry of named streams and
// who hears them. The paper's MSS announces channels on a well-known group
// (§4.1) and an NMS tunes speakers one at a time (§5.3); the directory is
// the administrative complement — a single authority that allocates
// multicast groups for channels, records each stream's codec and zone
// routing policy, and renders the fleet's subscription state ("who hears
// what") for the operations dashboard.
//
// The directory is control-plane only: it never touches the wire. Stream
// registration happens at channel creation (src/core/system.cc), and the
// subscriber view is pushed in by the owner between runs (UpdateBindings)
// rather than observed live — a live listener would race the sharded
// runtime's epoch barriers, and between-runs truth is all a dashboard needs.
#ifndef SRC_MGMT_DIRECTORY_H_
#define SRC_MGMT_DIRECTORY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/codec/codec.h"
#include "src/lan/transport.h"
#include "src/proto/wire.h"

namespace espk {

// One named stream: identity (name, stream id), transport (multicast
// group), and policy (codec, which zones may subscribe).
struct StreamRecord {
  std::string name;
  uint32_t stream_id = 0;
  GroupId group = 0;
  CodecId codec = CodecId::kRaw;
  // Zone routing policy: shard/zone indices allowed to subscribe. Empty =
  // any zone. Enforced by CheckSubscription at subscribe time.
  std::vector<int> zones;
};

// A speaker's per-stream counters as seen at the last UpdateBindings push.
struct SpeakerSubscriptionView {
  GroupId group = 0;
  uint64_t chunks_played = 0;
  uint64_t late_drops = 0;
};

// One speaker's identity and current subscriptions.
struct SpeakerBindingView {
  std::string name;
  int zone = 0;
  std::vector<SpeakerSubscriptionView> subs;
};

class SubscriptionDirectory {
 public:
  SubscriptionDirectory() = default;
  SubscriptionDirectory(const SubscriptionDirectory&) = delete;
  SubscriptionDirectory& operator=(const SubscriptionDirectory&) = delete;

  // Registers a stream under `name` and allocates it the next free channel
  // group (groups start at kFirstChannelGroup; announce/mgmt groups are
  // below it). AlreadyExists if the name is taken. The returned record
  // pointer is stable for the directory's lifetime.
  Result<const StreamRecord*> RegisterStream(const std::string& name,
                                             uint32_t stream_id,
                                             CodecId codec);

  // Restricts `name` to the given zones (empty = clear the restriction).
  Status SetZonePolicy(const std::string& name, std::vector<int> zones);

  // Lookups; null when absent.
  const StreamRecord* FindByName(const std::string& name) const;
  const StreamRecord* FindByGroup(GroupId group) const;
  const StreamRecord* FindByStreamId(uint32_t stream_id) const;

  // Would a speaker in `zone` be allowed to subscribe to `name`?
  // NotFound for unknown streams, FailedPrecondition on zone policy.
  Status CheckSubscription(const std::string& name, int zone) const;

  // Replaces the subscriber view wholesale. Called by the owner between
  // runs with the live per-speaker state.
  void UpdateBindings(std::vector<SpeakerBindingView> bindings);

  size_t stream_count() const { return streams_.size(); }
  const std::vector<SpeakerBindingView>& bindings() const { return bindings_; }

  // Deterministic plain-text view: one block per stream in registration
  // order, listing each subscribed speaker with its play/drop counters,
  // then any speakers subscribed to groups the directory doesn't know
  // (foreign groups) so the view never silently hides a binding.
  std::string RenderWhoHearsWhat() const;

 private:
  // unique_ptr for pointer stability across registrations.
  std::vector<std::unique_ptr<StreamRecord>> streams_;
  std::vector<SpeakerBindingView> bindings_;
  GroupId next_group_ = kFirstChannelGroup;
};

}  // namespace espk

#endif  // SRC_MGMT_DIRECTORY_H_
