#include "src/speaker/speaker.h"

#include <algorithm>
#include <iterator>
#include <type_traits>
#include <utility>

#include "src/base/logging.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace espk {

namespace {

SimTime InstantOf(const DecodeJob& job) { return job.pending.decode_done; }
SimTime InstantOf(const PlayJob& job) { return job.play.at; }

}  // namespace

template <typename Job>
std::vector<Job> PipelineScheduler::Slots<Job>::Take(uint32_t slot) {
  free.push_back(slot);
  return std::move(groups[slot]);
}

void PipelineScheduler::ScheduleDecodes(std::vector<DecodeJob> jobs) {
  Schedule(std::move(jobs), &decodes_);
}

template <typename Job>
void PipelineScheduler::Schedule(std::vector<Job> jobs, Slots<Job>* slots) {
  // Jitter or divergent decode backlogs spread a batch over several
  // instants; the common case (one instant for the whole batch) is already
  // sorted.
  auto earlier = [](const Job& a, const Job& b) {
    return InstantOf(a) < InstantOf(b);
  };
  if (!std::is_sorted(jobs.begin(), jobs.end(), earlier)) {
    std::stable_sort(jobs.begin(), jobs.end(), earlier);
  }
  size_t i = 0;
  while (i < jobs.size()) {
    const SimTime at = InstantOf(jobs[i]);
    size_t j = i + 1;
    while (j < jobs.size() && InstantOf(jobs[j]) == at) {
      ++j;
    }
    if (i == 0 && j == jobs.size()) {
      Park(at, std::move(jobs), slots);
      return;
    }
    Park(at,
         std::vector<Job>(
             std::make_move_iterator(jobs.begin() + static_cast<ptrdiff_t>(i)),
             std::make_move_iterator(jobs.begin() + static_cast<ptrdiff_t>(j))),
         slots);
    i = j;
  }
}

template <typename Job>
void PipelineScheduler::Park(SimTime at, std::vector<Job> group,
                             Slots<Job>* slots) {
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
    if constexpr (std::is_same_v<Job, DecodeJob>) {
      RunDecodes(slot);
    } else {
      RunPlays(slot);
    }
  });
}

void PipelineScheduler::RunDecodes(uint32_t slot) {
  const std::vector<DecodeJob> group = decodes_.Take(slot);
  std::vector<PlayJob> plays;
  for (const DecodeJob& job : group) {
    PendingPlay play;
    job.speaker->RunDecode(job.pending, &last_decode_, &play);
    if (play.valid) {
      if (plays.empty()) {
        plays.reserve(group.size());
      }
      plays.push_back(PlayJob{job.speaker, std::move(play)});
    }
  }
  Schedule(std::move(plays), &plays_);
}

void PipelineScheduler::RunPlays(uint32_t slot) {
  for (PlayJob& job : plays_.Take(slot)) {
    job.speaker->RunPlay(std::move(job.play));
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
  if (sessions_.count(group) > 0) {
    return AlreadyExistsError("already subscribed to group " +
                              std::to_string(group));
  }
  ESPK_RETURN_IF_ERROR(nic_->JoinGroup(group));
  sessions_[group] =
      std::make_unique<StreamSession>(this, group, ++next_session_epoch_);
  subscribe_order_.push_back(group);
  return OkStatus();
}

Status EthernetSpeaker::Unsubscribe(GroupId group) {
  auto it = sessions_.find(group);
  if (it == sessions_.end()) {
    return NotFoundError("not subscribed to group " + std::to_string(group));
  }
  ESPK_RETURN_IF_ERROR(nic_->LeaveGroup(group));
  // The session's share of the jitter buffer leaves with it; in-flight
  // pipeline obligations carry its (now stale) epoch and become no-ops.
  sessions_.erase(it);
  subscribe_order_.erase(
      std::find(subscribe_order_.begin(), subscribe_order_.end(), group));
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
  auto it = sessions_.find(group);
  return it == sessions_.end() ? nullptr : it->second.get();
}

StreamSession* EthernetSpeaker::session(GroupId group) {
  return FindSession(group);
}

StreamSession* EthernetSpeaker::primary() {
  return subscribe_order_.empty()
             ? nullptr
             : sessions_.at(subscribe_order_.front()).get();
}

const StreamSession* EthernetSpeaker::primary() const {
  return subscribe_order_.empty()
             ? nullptr
             : sessions_.at(subscribe_order_.front()).get();
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
  for (const auto& [group, session] : sessions_) {
    if (session->ready()) {
      return true;
    }
  }
  return false;
}

size_t EthernetSpeaker::queued_pcm_bytes() const {
  size_t total = 0;
  for (const auto& [group, session] : sessions_) {
    total += session->queued_pcm_bytes();
  }
  return total;
}

std::vector<float> EthernetSpeaker::RenderMix(SimTime from,
                                              SimDuration duration) {
  StreamSession* base = nullptr;
  for (GroupId group : subscribe_order_) {
    StreamSession* s = sessions_.at(group).get();
    if (s->ready()) {
      base = s;
      break;
    }
  }
  if (base == nullptr) {
    return {};
  }
  std::vector<float> mix = base->output()->Render(from, duration);
  for (GroupId group : subscribe_order_) {
    StreamSession* s = sessions_.at(group).get();
    if (s == base || !s->ready() ||
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
  PendingDecode pending;
  IngestParsed(ParsePacket(datagram.payload), FindSession(datagram.group),
               &pending);
  if (pending.valid) {
    std::vector<DecodeJob> jobs;
    jobs.push_back(DecodeJob{this, std::move(pending)});
    scheduler_.ScheduleDecodes(std::move(jobs));
  }
}

void EthernetSpeaker::IngestParsed(const Result<ParsedPacket>& parsed,
                                   StreamSession* session,
                                   PendingDecode* out) {
  ++stats_.packets_received;
  if (!parsed.ok()) {
    // Damaged or non-protocol datagram: integrity check failed (§5.1).
    ++stats_.bad_packets;
    return;
  }
  if (options_.auth_verifier && !options_.auth_verifier(*parsed)) {
    ++stats_.auth_rejected;
    return;
  }
  if (session == nullptr) {
    // No subscription for this group. Possible transiently: packets already
    // queued on the wire when an unsubscribe's membership change lands.
    return;
  }
  if (const auto* control = std::get_if<ControlPacket>(&parsed->packet)) {
    session->HandleControl(*control);
  } else if (const auto* data = std::get_if<DataPacket>(&parsed->packet)) {
    session->HandleData(*data, out);
  }
  // Announce packets are handled by the catalog browser (src/mgmt), not by
  // the playback path.
}

void EthernetSpeaker::Trace(uint32_t stream_id, uint32_t seq,
                            TraceStage stage) {
  if (options_.tracer != nullptr) {
    options_.tracer->Record(stream_id, seq, stage, node_id_);
  }
}

void EthernetSpeaker::RunDecode(const PendingDecode& pending,
                                LastDecode* last, PendingPlay* out_play) {
  StreamSession* session = FindSession(pending.group);
  if (session == nullptr || session->epoch() != pending.session_epoch) {
    return;  // Unsubscribed while the chunk was in the pipeline.
  }
  session->RunDecode(pending, last, out_play);
}

void EthernetSpeaker::RunPlay(PendingPlay play) {
  StreamSession* session = FindSession(play.group);
  if (session == nullptr || session->epoch() != play.session_epoch) {
    return;  // Unsubscribed while the chunk was in the pipeline.
  }
  session->RunPlay(std::move(play));
}

}  // namespace espk
