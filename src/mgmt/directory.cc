#include "src/mgmt/directory.h"

#include <algorithm>
#include <set>
#include <sstream>
#include <utility>

namespace espk {

Result<const StreamRecord*> SubscriptionDirectory::RegisterStream(
    const std::string& name, uint32_t stream_id, CodecId codec) {
  if (FindByName(name) != nullptr) {
    return AlreadyExistsError("stream name already registered: " + name);
  }
  auto record = std::make_unique<StreamRecord>();
  record->name = name;
  record->stream_id = stream_id;
  record->group = next_group_++;
  record->codec = codec;
  streams_.push_back(std::move(record));
  return streams_.back().get();
}

Status SubscriptionDirectory::SetZonePolicy(const std::string& name,
                                            std::vector<int> zones) {
  for (auto& record : streams_) {
    if (record->name == name) {
      record->zones = std::move(zones);
      return OkStatus();
    }
  }
  return NotFoundError("no stream named " + name);
}

const StreamRecord* SubscriptionDirectory::FindByName(
    const std::string& name) const {
  for (const auto& record : streams_) {
    if (record->name == name) {
      return record.get();
    }
  }
  return nullptr;
}

const StreamRecord* SubscriptionDirectory::FindByGroup(GroupId group) const {
  for (const auto& record : streams_) {
    if (record->group == group) {
      return record.get();
    }
  }
  return nullptr;
}

const StreamRecord* SubscriptionDirectory::FindByStreamId(
    uint32_t stream_id) const {
  for (const auto& record : streams_) {
    if (record->stream_id == stream_id) {
      return record.get();
    }
  }
  return nullptr;
}

Status SubscriptionDirectory::CheckSubscription(const std::string& name,
                                                int zone) const {
  const StreamRecord* record = FindByName(name);
  if (record == nullptr) {
    return NotFoundError("no stream named " + name);
  }
  if (record->zones.empty()) {
    return OkStatus();
  }
  if (std::find(record->zones.begin(), record->zones.end(), zone) ==
      record->zones.end()) {
    return FailedPreconditionError("stream " + name +
                                   " is not routed to zone " +
                                   std::to_string(zone));
  }
  return OkStatus();
}

void SubscriptionDirectory::UpdateBindings(
    std::vector<SpeakerBindingView> bindings) {
  bindings_ = std::move(bindings);
}

std::string SubscriptionDirectory::RenderWhoHearsWhat() const {
  std::ostringstream out;
  out << "subscription directory: " << streams_.size() << " stream"
      << (streams_.size() == 1 ? "" : "s") << ", " << bindings_.size()
      << " speaker" << (bindings_.size() == 1 ? "" : "s") << "\n";
  std::set<GroupId> known;
  for (const auto& record : streams_) {
    known.insert(record->group);
    out << "  " << record->name << " (stream " << record->stream_id
        << ", group " << record->group << ", codec "
        << CodecIdName(record->codec) << ", zones ";
    if (record->zones.empty()) {
      out << "any";
    } else {
      for (size_t i = 0; i < record->zones.size(); ++i) {
        out << (i == 0 ? "" : ",") << record->zones[i];
      }
    }
    out << ")\n";
    bool any = false;
    for (const SpeakerBindingView& binding : bindings_) {
      for (const SpeakerSubscriptionView& sub : binding.subs) {
        if (sub.group != record->group) {
          continue;
        }
        any = true;
        out << "    " << binding.name << " [zone " << binding.zone
            << "]: chunks=" << sub.chunks_played << " late=" << sub.late_drops
            << "\n";
      }
    }
    if (!any) {
      out << "    (no subscribers)\n";
    }
  }
  // Never hide a binding: groups the directory doesn't know about (tuned by
  // hand, or a stale registration) get their own section.
  std::set<GroupId> foreign;
  for (const SpeakerBindingView& binding : bindings_) {
    for (const SpeakerSubscriptionView& sub : binding.subs) {
      if (known.count(sub.group) == 0) {
        foreign.insert(sub.group);
      }
    }
  }
  for (GroupId group : foreign) {
    out << "  unregistered group " << group << "\n";
    for (const SpeakerBindingView& binding : bindings_) {
      for (const SpeakerSubscriptionView& sub : binding.subs) {
        if (sub.group != group) {
          continue;
        }
        out << "    " << binding.name << " [zone " << binding.zone
            << "]: chunks=" << sub.chunks_played << " late=" << sub.late_drops
            << "\n";
      }
    }
  }
  return out.str();
}

}  // namespace espk
