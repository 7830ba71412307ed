#include "src/obs/spans/assembler.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "src/obs/metrics.h"

namespace espk {

namespace {
// The decided-trace memory exists to classify rescrapes of old spans as
// duplicates; it only needs to cover what station rings can still hold.
constexpr size_t kMaxDecidedRemembered = 16384;
}  // namespace

const Span* SpanTree::root() const {
  for (const Span& s : spans) {
    if (s.stage == SpanStage::kPacket) {
      return &s;
    }
  }
  return nullptr;
}

uint8_t SpanTree::flags() const {
  uint8_t f = 0;
  for (const Span& s : spans) {
    f |= s.flags;
  }
  return f;
}

double SpanTree::e2e_ms() const {
  const Span* r = root();
  return r != nullptr ? r->duration_ms() : 0.0;
}

std::string SpanTree::Render() const {
  std::ostringstream os;
  char line[160];
  std::snprintf(line, sizeof(line), "trace %016" PRIx64 " stream %u seq %u\n",
                trace_id, stream_id, seq);
  os << line;
  // Depth-first from each root so children print under their parent.
  std::vector<std::vector<int>> children(spans.size());
  std::vector<int> roots;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (parent[i] < 0) {
      roots.push_back(static_cast<int>(i));
    } else {
      children[static_cast<size_t>(parent[i])].push_back(
          static_cast<int>(i));
    }
  }
  struct Frame {
    int index;
    int depth;
  };
  std::vector<Frame> stack;
  for (auto it = roots.rbegin(); it != roots.rend(); ++it) {
    stack.push_back(Frame{*it, 0});
  }
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    const Span& s = spans[static_cast<size_t>(f.index)];
    std::snprintf(line, sizeof(line), "%*s%s @ %s  [%.3f ms .. %.3f ms]  %.3f ms%s%s%s\n",
                  f.depth * 2, "", std::string(SpanStageName(s.stage)).c_str(),
                  stations[static_cast<size_t>(f.index)].c_str(),
                  ToMillisecondsF(s.start), ToMillisecondsF(s.end),
                  s.duration_ms(),
                  (s.flags & kSpanFlagDeadlineMiss) ? " [deadline_miss]" : "",
                  (s.flags & kSpanFlagQueueDrop) ? " [queue_drop]" : "",
                  (s.flags & kSpanFlagLinkLoss) ? " [link_loss]" : "");
    os << line;
    const auto& kids = children[static_cast<size_t>(f.index)];
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
      stack.push_back(Frame{*it, f.depth + 1});
    }
  }
  return os.str();
}

SpanAssembler::SpanAssembler(const TailSamplerOptions& options)
    : options_(options) {}

void SpanAssembler::IngestBatch(const SpanBatch& batch, SimTime now) {
  for (const Span& s : batch.spans) {
    if (!batch.station.empty()) {
      station_names_[s.station] = batch.station;
    }
    if (decided_.count(s.trace_id) != 0 ||
        retained_.count(s.trace_id) != 0) {
      ++duplicates_;
      continue;
    }
    PendingTrace& pending = pending_[s.trace_id];
    auto key = std::tuple{static_cast<uint8_t>(s.stage), s.station,
                          static_cast<int64_t>(s.start)};
    if (!pending.spans.emplace(key, s).second) {
      ++duplicates_;
      continue;
    }
    ++ingested_;
    pending.last_ingest = now;
    pending.has_error = pending.has_error || s.is_error();
    pending.has_root = pending.has_root || s.stage == SpanStage::kPacket;
  }
}

Status SpanAssembler::IngestWire(const uint8_t* data, size_t size,
                                 SimTime now) {
  Result<SpanBatch> batch = SpanBatch::Deserialize(data, size);
  if (!batch.ok()) {
    return batch.status();
  }
  IngestBatch(*batch, now);
  return OkStatus();
}

std::string SpanAssembler::StationName(uint32_t node) const {
  auto it = station_names_.find(node);
  if (it != station_names_.end()) {
    return it->second;
  }
  return "node " + std::to_string(node);
}

SpanTree SpanAssembler::BuildTree(uint64_t trace_id,
                                  PendingTrace& pending) const {
  SpanTree tree;
  tree.trace_id = trace_id;
  tree.spans.reserve(pending.spans.size());
  for (const auto& [key, span] : pending.spans) {
    tree.spans.push_back(span);
  }
  // Deterministic order: stage, then station, then start (the pending map's
  // key order already guarantees this).
  if (!tree.spans.empty()) {
    tree.stream_id = tree.spans.front().stream_id;
    tree.seq = tree.spans.front().seq;
  }
  tree.parent.assign(tree.spans.size(), -1);
  tree.stations.reserve(tree.spans.size());
  int root_index = -1;
  std::map<uint32_t, int> receive_by_station;
  for (size_t i = 0; i < tree.spans.size(); ++i) {
    tree.stations.push_back(StationName(tree.spans[i].station));
    if (tree.spans[i].stage == SpanStage::kPacket) {
      root_index = static_cast<int>(i);
    } else if (tree.spans[i].stage == SpanStage::kReceive) {
      receive_by_station[tree.spans[i].station] = static_cast<int>(i);
    }
  }
  for (size_t i = 0; i < tree.spans.size(); ++i) {
    const Span& s = tree.spans[i];
    switch (s.stage) {
      case SpanStage::kPacket:
        break;
      case SpanStage::kVadRead:
      case SpanStage::kEncode:
      case SpanStage::kTxQueue:
      case SpanStage::kReceive:
        tree.parent[i] = root_index;
        break;
      case SpanStage::kWire:
      case SpanStage::kJitterDwell:
      case SpanStage::kDecode:
      case SpanStage::kRenderSlack: {
        auto it = receive_by_station.find(s.station);
        tree.parent[i] =
            it != receive_by_station.end() ? it->second : root_index;
        break;
      }
    }
  }
  return tree;
}

void SpanAssembler::MarkDecided(uint64_t trace_id) {
  if (decided_.insert(trace_id).second) {
    decided_order_.push_back(trace_id);
    if (decided_order_.size() > kMaxDecidedRemembered) {
      decided_.erase(decided_order_.front());
      decided_order_.pop_front();
    }
  }
}

void SpanAssembler::Retain(SpanTree tree) {
  uint64_t id = tree.trace_id;
  retained_.emplace(id, std::move(tree));
  retained_order_.push_back(id);
  ++sampler_retained_;
  while (retained_order_.size() > options_.max_retained) {
    retained_.erase(retained_order_.front());
    MarkDecided(retained_order_.front());
    retained_order_.pop_front();
  }
}

void SpanAssembler::Decide(std::vector<uint64_t> trace_ids) {
  if (trace_ids.empty()) {
    return;
  }
  // Orphans — no root span reached the console — cannot answer "where did
  // the time go end to end"; count and drop them before sampling.
  struct Candidate {
    uint64_t trace_id;
    double e2e_ms;
    bool error;
  };
  std::vector<Candidate> candidates;
  candidates.reserve(trace_ids.size());
  for (uint64_t id : trace_ids) {
    PendingTrace& pending = pending_.at(id);
    if (!pending.has_root) {
      ++orphans_;
      MarkDecided(id);
      pending_.erase(id);
      continue;
    }
    SpanTree tree = BuildTree(id, pending);
    candidates.push_back(Candidate{id, tree.e2e_ms(), pending.has_error});
  }
  // The tail keeps the slowest keep_slowest_fraction of the decision batch;
  // error traces are kept regardless and do not consume tail slots.
  std::vector<const Candidate*> by_slowness;
  for (const Candidate& c : candidates) {
    if (!c.error) {
      by_slowness.push_back(&c);
    }
  }
  std::sort(by_slowness.begin(), by_slowness.end(),
            [](const Candidate* a, const Candidate* b) {
              if (a->e2e_ms != b->e2e_ms) {
                return a->e2e_ms > b->e2e_ms;
              }
              return a->trace_id < b->trace_id;
            });
  const size_t keep = static_cast<size_t>(
      std::ceil(options_.keep_slowest_fraction *
                static_cast<double>(by_slowness.size())));
  std::set<uint64_t> keep_ids;
  for (size_t i = 0; i < by_slowness.size() && i < keep; ++i) {
    keep_ids.insert(by_slowness[i]->trace_id);
  }
  for (const Candidate& c : candidates) {
    auto it = pending_.find(c.trace_id);
    if (c.error || keep_ids.count(c.trace_id) != 0) {
      Retain(BuildTree(c.trace_id, it->second));
    } else {
      ++sampler_discarded_;
      MarkDecided(c.trace_id);
    }
    pending_.erase(it);
  }
}

void SpanAssembler::Flush(SimTime now) {
  std::vector<uint64_t> due;
  for (const auto& [id, pending] : pending_) {
    if (now - pending.last_ingest >= options_.decision_window) {
      due.push_back(id);
    }
  }
  Decide(std::move(due));
}

void SpanAssembler::FlushAll() {
  std::vector<uint64_t> all;
  all.reserve(pending_.size());
  for (const auto& [id, pending] : pending_) {
    all.push_back(id);
  }
  Decide(std::move(all));
}

const SpanTree* SpanAssembler::FindTrace(uint64_t trace_id) const {
  auto it = retained_.find(trace_id);
  return it == retained_.end() ? nullptr : &it->second;
}

std::vector<const SpanTree*> SpanAssembler::RetainedTraces() const {
  std::vector<const SpanTree*> out;
  out.reserve(retained_order_.size());
  for (uint64_t id : retained_order_) {
    out.push_back(&retained_.at(id));
  }
  return out;
}

void RegisterAssemblerMetrics(const SpanAssembler* assembler,
                              MetricsRegistry* registry) {
  registry->GetGauge(
      "spans.sampler_retained",
      [assembler] {
        return static_cast<double>(assembler->sampler_retained());
      },
      "Traces the tail sampler retained (errors + slowest tail)");
  registry->GetGauge(
      "spans.sampler_discarded",
      [assembler] {
        return static_cast<double>(assembler->sampler_discarded());
      },
      "Fast, uneventful traces discarded at the decision window");
  registry->GetGauge(
      "spans.assembly_orphans",
      [assembler] { return static_cast<double>(assembler->orphans()); },
      "Traces decided without a root span (incomplete collection)");
  registry->GetGauge(
      "spans.assembly_duplicates",
      [assembler] { return static_cast<double>(assembler->duplicates()); },
      "Rescraped spans deduplicated at ingest");
}

}  // namespace espk
