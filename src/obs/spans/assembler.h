// Console-side span assembly: ingests SpanBatches collected from every
// station (over the fleet scrape plane, or directly in tests), dedups the
// re-scraped spans, groups them by trace id, and — once a trace has been
// idle for a decision window — runs the tail sampler: error traces
// (deadline miss / queue drop / link loss) are always retained, the
// slowest-k% of each decision batch is retained, everything else is
// discarded. Retained traces become SpanTrees: parented, deterministic
// structures the critical-path analyzer and Perfetto exporter consume.
#ifndef SRC_OBS_SPANS_ASSEMBLER_H_
#define SRC_OBS_SPANS_ASSEMBLER_H_

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "src/base/status.h"
#include "src/base/time_types.h"
#include "src/obs/spans/span.h"

namespace espk {

class MetricsRegistry;

// One assembled, retained trace. `spans` is deterministically ordered
// (stage, then station, then start); `parent` holds the index of each
// span's parent (-1 for the root): stage spans parent the root, and each
// receiver's wire/dwell/decode/slack spans parent that receiver's kReceive
// span.
struct SpanTree {
  uint64_t trace_id = 0;
  uint32_t stream_id = 0;
  uint32_t seq = 0;
  std::vector<Span> spans;
  std::vector<int> parent;
  // Human station name per span ("rb-1", "es-3"), resolved from the batch
  // the span arrived in; "node <n>" when never named.
  std::vector<std::string> stations;

  const Span* root() const;
  // Union of every span's fate flags.
  uint8_t flags() const;
  bool has_error() const { return flags() != 0; }
  // Root duration: first event anywhere to last terminal anywhere.
  double e2e_ms() const;
  // Indented tree, one span per line, for logs and tests.
  std::string Render() const;
};

struct TailSamplerOptions {
  // A trace with no new spans for this long is decided (kept or dropped).
  SimDuration decision_window = Seconds(2);
  // Fraction of each decision batch retained as "the slow tail", on top of
  // the always-retained error traces.
  double keep_slowest_fraction = 0.10;
  // Bound on retained trees; the oldest retained is evicted beyond this.
  size_t max_retained = 256;
};

class SpanAssembler {
 public:
  explicit SpanAssembler(const TailSamplerOptions& options);

  SpanAssembler(const SpanAssembler&) = delete;
  SpanAssembler& operator=(const SpanAssembler&) = delete;

  // Ingests one station's batch. Spans already seen (rescraped rings) and
  // spans of already-decided traces are counted as duplicates and dropped.
  void IngestBatch(const SpanBatch& batch, SimTime now);
  Status IngestWire(const uint8_t* data, size_t size, SimTime now);
  Status IngestWire(const Bytes& wire, SimTime now) {
    return IngestWire(wire.data(), wire.size(), now);
  }

  // Runs the tail-sampling decision over every trace idle for at least the
  // decision window.
  void Flush(SimTime now);
  // Decides everything still pending (end-of-run drain).
  void FlushAll();

  // Null when the trace was not retained (or not yet decided).
  const SpanTree* FindTrace(uint64_t trace_id) const;
  // Retention order (decision order; oldest first).
  std::vector<const SpanTree*> RetainedTraces() const;

  size_t pending_count() const { return pending_.size(); }
  uint64_t ingested() const { return ingested_; }
  uint64_t duplicates() const { return duplicates_; }
  uint64_t orphans() const { return orphans_; }
  uint64_t sampler_discarded() const { return sampler_discarded_; }
  uint64_t sampler_retained() const { return sampler_retained_; }

  const TailSamplerOptions& options() const { return options_; }

  // "es-3" for a node named by some ingested batch, else "node 3".
  std::string StationName(uint32_t node) const;

 private:
  struct PendingTrace {
    // Dedup key: (stage, station, start) uniquely identifies a span within
    // one trace.
    std::map<std::tuple<uint8_t, uint32_t, int64_t>, Span> spans;
    SimTime last_ingest = 0;
    bool has_error = false;
    bool has_root = false;
  };

  SpanTree BuildTree(uint64_t trace_id, PendingTrace& pending) const;
  void Decide(std::vector<uint64_t> trace_ids);
  void Retain(SpanTree tree);
  void MarkDecided(uint64_t trace_id);

  TailSamplerOptions options_;
  std::map<uint64_t, PendingTrace> pending_;
  // Retained trees, keyed for exemplar resolution; retained_order_ is the
  // FIFO eviction queue.
  std::map<uint64_t, SpanTree> retained_;
  std::deque<uint64_t> retained_order_;
  // Traces already decided (either way): their rescraped spans are
  // duplicates, not new traces. Bounded FIFO.
  std::set<uint64_t> decided_;
  std::deque<uint64_t> decided_order_;
  std::map<uint32_t, std::string> station_names_;
  uint64_t ingested_ = 0;
  uint64_t duplicates_ = 0;
  uint64_t orphans_ = 0;
  uint64_t sampler_discarded_ = 0;
  uint64_t sampler_retained_ = 0;
};

// Registers the assembler's self-metrics ("spans.sampler_discarded",
// "spans.sampler_retained", "spans.assembly_orphans",
// "spans.assembly_duplicates") on the console's station registry.
void RegisterAssemblerMetrics(const SpanAssembler* assembler,
                              MetricsRegistry* registry);

}  // namespace espk

#endif  // SRC_OBS_SPANS_ASSEMBLER_H_
