#include "src/speaker/speaker.h"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "src/base/logging.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace espk {

uint32_t PlayGroup::AddBlock(const PcmBlock& block) {
  if (pcm == nullptr) {
    pcm = block;
    return 0;
  }
  if ((more_pcm.empty() ? pcm : more_pcm.back()) != block) {
    more_pcm.push_back(block);
  }
  return static_cast<uint32_t>(more_pcm.size());
}

template <typename Group>
Group PipelineScheduler::Slots<Group>::Take(uint32_t slot) {
  free.push_back(slot);
  return std::move(groups[slot]);
}

void PipelineScheduler::ScheduleDecodes(DecodeGroup group) {
  Schedule(std::move(group), &decodes_);
}

template <typename Group>
void PipelineScheduler::Schedule(Group group, Slots<Group>* slots) {
  // Jitter or divergent decode backlogs spread a group over several
  // instants; the common case (one instant for the whole group) is already
  // sorted and parks as it is.
  std::vector<PipelineJob>& jobs = group.jobs;
  if (jobs.empty()) {
    return;
  }
  auto earlier = [](const PipelineJob& a, const PipelineJob& b) {
    return a.at < b.at;
  };
  if (!std::is_sorted(jobs.begin(), jobs.end(), earlier)) {
    std::stable_sort(jobs.begin(), jobs.end(), earlier);
  }
  if (jobs.front().at == jobs.back().at) {
    const SimTime at = jobs.front().at;
    Park(at, std::move(group), slots);
    return;
  }
  // Each part carries the packet (and, for plays, the block table its
  // jobs index) with its own run of jobs.
  const std::vector<PipelineJob> all = std::move(group.jobs);
  size_t i = 0;
  while (i < all.size()) {
    size_t j = i + 1;
    while (j < all.size() && all[j].at == all[i].at) {
      ++j;
    }
    Group part = group;
    part.jobs.assign(all.begin() + static_cast<ptrdiff_t>(i),
                     all.begin() + static_cast<ptrdiff_t>(j));
    Park(all[i].at, std::move(part), slots);
    i = j;
  }
}

template <typename Group>
void PipelineScheduler::Park(SimTime at, Group group, Slots<Group>* slots) {
  uint32_t slot = 0;
  if (slots->free.empty()) {
    slot = static_cast<uint32_t>(slots->groups.size());
    slots->groups.push_back(std::move(group));
  } else {
    slot = slots->free.back();
    slots->free.pop_back();
    slots->groups[slot] = std::move(group);
  }
  sim_->ScheduleAt(at, [this, slot] {
    if constexpr (std::is_same_v<Group, DecodeGroup>) {
      RunDecodes(slot);
    } else {
      RunPlays(slot);
    }
  });
}

void PipelineScheduler::RunDecodes(uint32_t slot) {
  const DecodeGroup group = decodes_.Take(slot);
  PlayGroup plays;
  plays.stream_id = group.stream_id;
  plays.seq = group.seq;
  for (const PipelineJob& job : group.jobs) {
    if (!job.speaker->RunDecode(group, job, &last_decode_)) {
      continue;
    }
    if (plays.jobs.empty()) {
      plays.jobs.reserve(group.jobs.size());
    }
    PipelineJob play = job;
    play.at = job.local_deadline;
    play.block = plays.AddBlock(last_decode_.pcm);
    plays.jobs.push_back(play);
  }
  Schedule(std::move(plays), &plays_);
}

void PipelineScheduler::RunPlays(uint32_t slot) {
  const PlayGroup group = plays_.Take(slot);
  for (const PipelineJob& job : group.jobs) {
    job.speaker->RunPlay(group, job);
  }
}

EthernetSpeaker::EthernetSpeaker(Simulation* sim, Transport* nic,
                                 const SpeakerOptions& options)
    : sim_(sim),
      nic_(nic),
      node_id_(nic->node_id()),
      options_(options),
      scheduler_(sim) {
  nic_->SetReceiveHandler(
      [this](const Datagram& datagram) { OnDatagram(datagram); });
}

EthernetSpeaker::~EthernetSpeaker() = default;

Status EthernetSpeaker::Subscribe(GroupId group) {
  if (FindSession(group) != nullptr) {
    return AlreadyExistsError("already subscribed to group " +
                              std::to_string(group));
  }
  ESPK_RETURN_IF_ERROR(nic_->JoinGroup(group));
  subscribe_order_.push_back(group);
  sessions_.push_back(
      std::make_unique<StreamSession>(this, group, ++next_session_epoch_));
  return OkStatus();
}

Status EthernetSpeaker::Unsubscribe(GroupId group) {
  const auto it =
      std::find(subscribe_order_.begin(), subscribe_order_.end(), group);
  if (it == subscribe_order_.end()) {
    return NotFoundError("not subscribed to group " + std::to_string(group));
  }
  ESPK_RETURN_IF_ERROR(nic_->LeaveGroup(group));
  // The session's share of the jitter buffer leaves with it; in-flight
  // pipeline obligations carry its (now stale) epoch and become no-ops.
  sessions_.erase(sessions_.begin() + (it - subscribe_order_.begin()));
  subscribe_order_.erase(it);
  if (sessions_.empty()) {
    // Matches the historical Tune/Untune reset: an idle device's decode
    // pipeline does not stay busy into its next subscription.
    decode_busy_until_ = sim_->now();
  }
  return OkStatus();
}

Status EthernetSpeaker::Tune(GroupId group) {
  while (!subscribe_order_.empty()) {
    ESPK_RETURN_IF_ERROR(Unsubscribe(subscribe_order_.front()));
  }
  return Subscribe(group);
}

Status EthernetSpeaker::Untune() {
  if (subscribe_order_.empty()) {
    return FailedPreconditionError("not tuned to any channel");
  }
  while (!subscribe_order_.empty()) {
    ESPK_RETURN_IF_ERROR(Unsubscribe(subscribe_order_.front()));
  }
  return OkStatus();
}

std::optional<GroupId> EthernetSpeaker::tuned_group() const {
  if (subscribe_order_.empty()) {
    return std::nullopt;
  }
  return subscribe_order_.front();
}

StreamSession* EthernetSpeaker::FindSession(GroupId group) {
  for (size_t i = 0; i < subscribe_order_.size(); ++i) {
    if (subscribe_order_[i] == group) {
      return sessions_[i].get();
    }
  }
  return nullptr;
}

StreamSession* EthernetSpeaker::session(GroupId group) {
  return FindSession(group);
}

StreamSession* EthernetSpeaker::primary() {
  return sessions_.empty() ? nullptr : sessions_.front().get();
}

const StreamSession* EthernetSpeaker::primary() const {
  return sessions_.empty() ? nullptr : sessions_.front().get();
}

OutputRecorder* EthernetSpeaker::output() {
  StreamSession* p = primary();
  return p == nullptr ? nullptr : p->output();
}

const std::optional<AudioConfig>& EthernetSpeaker::config() const {
  const StreamSession* p = primary();
  return p == nullptr ? no_config_ : p->config();
}

bool EthernetSpeaker::ready() const {
  for (const auto& session : sessions_) {
    if (session->ready()) {
      return true;
    }
  }
  return false;
}

size_t EthernetSpeaker::queued_pcm_bytes() const {
  size_t total = 0;
  for (const auto& session : sessions_) {
    total += session->queued_pcm_bytes();
  }
  return total;
}

std::vector<float> EthernetSpeaker::RenderMix(SimTime from,
                                              SimDuration duration) {
  StreamSession* base = nullptr;
  for (const auto& s : sessions_) {
    if (s->ready()) {
      base = s.get();
      break;
    }
  }
  if (base == nullptr) {
    return {};
  }
  std::vector<float> mix = base->output()->Render(from, duration);
  for (const auto& s : sessions_) {
    if (s.get() == base || !s->ready() ||
        s->config()->sample_rate != base->config()->sample_rate ||
        s->config()->channels != base->config()->channels) {
      continue;
    }
    std::vector<float> other = s->output()->Render(from, duration);
    const size_t n = std::min(mix.size(), other.size());
    for (size_t i = 0; i < n; ++i) {
      mix[i] += other[i];
    }
  }
  return mix;
}

void EthernetSpeaker::OnDatagram(const Datagram& datagram) {
  Result<ParsedPacket> parsed = ParsePacket(datagram.payload);
  PipelineJob job;
  if (!IngestParsed(parsed, FindSession(datagram.group), &job)) {
    return;
  }
  // Admitted, so the parse holds a data packet; the batch of one takes its
  // payload slice over.
  DataPacket& data = std::get<DataPacket>(parsed->packet);
  scheduler_.ScheduleDecodes(
      DecodeGroup{data.stream_id, data.seq, std::move(data.payload), {job}});
}

bool EthernetSpeaker::IngestParsed(const Result<ParsedPacket>& parsed,
                                   StreamSession* session, PipelineJob* out) {
  ++stats_.packets_received;
  if (!parsed.ok()) {
    // Damaged or non-protocol datagram: integrity check failed (§5.1).
    ++stats_.bad_packets;
    return false;
  }
  if (options_.auth_verifier && !options_.auth_verifier(*parsed)) {
    ++stats_.auth_rejected;
    return false;
  }
  if (session == nullptr) {
    // No subscription for this group. Possible transiently: packets already
    // queued on the wire when an unsubscribe's membership change lands.
    return false;
  }
  if (const auto* control = std::get_if<ControlPacket>(&parsed->packet)) {
    session->HandleControl(*control);
  } else if (const auto* data = std::get_if<DataPacket>(&parsed->packet)) {
    if (session->HandleData(*data, out)) {
      out->speaker = this;
      return true;
    }
  }
  // Announce packets are handled by the catalog browser (src/mgmt), not by
  // the playback path.
  return false;
}

void EthernetSpeaker::Trace(uint32_t stream_id, uint32_t seq,
                            TraceStage stage) {
  if (options_.tracer != nullptr) {
    options_.tracer->Record(stream_id, seq, stage, node_id_);
  }
}

bool EthernetSpeaker::RunDecode(const DecodeGroup& packet,
                                const PipelineJob& job, LastDecode* last) {
  StreamSession* session = FindSession(job.group);
  if (session == nullptr || session->epoch() != job.session_epoch) {
    return false;  // Unsubscribed while the chunk was in the pipeline.
  }
  return session->RunDecode(packet, job, last);
}

void EthernetSpeaker::RunPlay(const PlayGroup& packet, const PipelineJob& job) {
  StreamSession* session = FindSession(job.group);
  if (session == nullptr || session->epoch() != job.session_epoch) {
    return;  // Unsubscribed while the chunk was in the pipeline.
  }
  session->RunPlay(packet, job);
}

}  // namespace espk
