#include "src/obs/federation/collector.h"

#include <utility>

#include "src/mgmt/agent.h"
#include "src/obs/federation/sample.h"

namespace espk {
namespace {

constexpr SimDuration kScrapePeriod = Seconds(1);
constexpr SimDuration kAttemptTimeout = Milliseconds(250);
constexpr int kMaxAttempts = 3;  // 1 try + 2 retries.
constexpr SimDuration kRetryBackoff = Milliseconds(100);  // Doubles per retry.
// A station is marked stale after this many consecutive cycles in which
// every attempt timed out; the next successful scrape clears it.
constexpr int kStaleAfterMisses = 2;

}  // namespace

FleetCollector::FleetCollector(Simulation* sim, Transport* nic,
                               MetricsRegistry* self_registry)
    : sim_(sim),
      nic_(nic),
      attempts_(self_registry->GetCounter(
          "scrape.attempts", "scrape requests sent (including retries)")),
      successes_(self_registry->GetCounter(
          "scrape.success", "scrapes fully reassembled and ingested")),
      timeouts_(self_registry->GetCounter(
          "scrape.timeouts",
          "scrape attempts that hit the per-attempt timeout")),
      retries_(self_registry->GetCounter(
          "scrape.retries", "re-attempts after a timeout, with backoff")),
      misses_(self_registry->GetCounter(
          "scrape.misses",
          "cycles in which every attempt for a target failed")),
      stale_transitions_(self_registry->GetCounter(
          "scrape.stale_transitions",
          "targets marked stale after missed cycles")),
      chunks_received_(self_registry->GetCounter(
          "scrape.chunks_received", "scrape response fragments received")) {
  nic_->SetReceiveHandler([this](const Datagram& d) { OnDatagram(d); });
}

FleetCollector::~FleetCollector() { Stop(); }

void FleetCollector::AddTarget(std::string station, NodeId node) {
  auto target = std::make_unique<Target>();
  target->station = std::move(station);
  target->node = node;
  targets_.push_back(std::move(target));
}

void FleetCollector::AddLocalSource(std::string station,
                                    const MetricsRegistry* registry) {
  locals_.push_back(LocalSource{std::move(station), registry});
}

void FleetCollector::Start() {
  if (task_ == nullptr) {
    task_ = std::make_unique<PeriodicTask>(
        sim_, kScrapePeriod, [this](SimTime now) { OnTick(now); });
  }
  task_->Start(/*fire_immediately=*/true);
}

void FleetCollector::Stop() {
  if (task_ != nullptr) {
    task_->Stop();
  }
  for (auto& target : targets_) {
    sim_->Cancel(target->timeout_event);
    sim_->Cancel(target->retry_event);
    if (target->awaiting) {
      by_request_.erase(target->request_id);
      target->awaiting = false;
    }
  }
}

void FleetCollector::OnTick(SimTime now) {
  ++cycles_;
  for (const LocalSource& local : locals_) {
    store_.Ingest(SnapshotRegistry(*local.registry, local.station, now), now);
  }
  for (auto& target : targets_) {
    if (target->awaiting) {
      // Previous cycle's retry chain is still in flight; let it finish
      // rather than stacking a second request on the same target.
      ++overruns_;
      continue;
    }
    target->attempt = 0;
    target->awaiting = true;
    BeginAttempt(target.get());
  }
}

void FleetCollector::BeginAttempt(Target* target) {
  ++target->attempt;
  attempts_->Increment();
  target->request_id = next_request_id_++;
  target->assembler.Reset();
  by_request_[target->request_id] = target;
  ScrapeRequest request;
  request.request_id = target->request_id;
  request.target = target->node;
  (void)nic_->SendMulticast(kMgmtGroup, request.Serialize());
  target->timeout_event = sim_->ScheduleAfter(
      kAttemptTimeout, [this, target] { OnAttemptTimeout(target); });
}

void FleetCollector::OnAttemptTimeout(Target* target) {
  by_request_.erase(target->request_id);
  timeouts_->Increment();
  if (target->attempt < kMaxAttempts) {
    retries_->Increment();
    // 100ms, 200ms, 400ms, ... — bounded by kMaxAttempts, and in sim time,
    // so the whole schedule is reproducible.
    const SimDuration backoff = kRetryBackoff << (target->attempt - 1);
    target->retry_event =
        sim_->ScheduleAfter(backoff, [this, target] { BeginAttempt(target); });
    return;
  }
  // Cycle over with nothing ingested.
  target->awaiting = false;
  misses_->Increment();
  ++target->consecutive_misses;
  if (target->consecutive_misses >= kStaleAfterMisses &&
      !target->marked_stale) {
    target->marked_stale = true;
    stale_transitions_->Increment();
    store_.MarkStale(target->station);
  }
}

void FleetCollector::OnDatagram(const Datagram& datagram) {
  Result<ScrapeChunk> chunk = ScrapeChunk::Deserialize(datagram.payload);
  if (!chunk.ok()) {
    return;  // The collector NIC only expects chunks; drop the rest.
  }
  auto it = by_request_.find(chunk->request_id);
  if (it == by_request_.end()) {
    return;  // Arrived after its attempt timed out.
  }
  Target* target = it->second;
  chunks_received_->Increment();
  std::optional<Bytes> payload = target->assembler.Add(*chunk);
  if (!payload.has_value()) {
    return;  // More fragments outstanding.
  }
  sim_->Cancel(target->timeout_event);
  by_request_.erase(it);
  target->awaiting = false;
  Result<StationSnapshot> snapshot = StationSnapshot::Deserialize(*payload);
  if (!snapshot.ok()) {
    // Reassembled but unparseable counts as a miss for staleness purposes.
    misses_->Increment();
    ++target->consecutive_misses;
    return;
  }
  target->consecutive_misses = 0;
  target->marked_stale = false;
  successes_->Increment();
  // The collector's name for the target is authoritative; the snapshot's
  // self-reported name is ignored so a misconfigured station can't squat
  // another's slot in the store.
  snapshot->station = target->station;
  store_.Ingest(*snapshot, sim_->now());
  if (span_sink_ && !snapshot->spans.empty()) {
    span_sink_(target->station, snapshot->spans, sim_->now());
  }
}

}  // namespace espk
