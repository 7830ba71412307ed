// Perf gate over BENCH_*.json files: validates the schema and fails when a
// hot path regresses against the checked-in baseline. Run by the
// espk_bench_smoke ctest (Release builds, label "bench"):
//
//   bench_gate <current.json> <baseline.json> [max_regress_frac]
//
// The baseline's "bench" string field selects the check set; the current
// file must declare the same bench.
//
// bench "codec" (BENCH_codec.json):
//   1. every required numeric field present (schema_version 1);
//   2. allocations per packet have not grown past the baseline — the
//      zero-allocation steady state is a correctness property here, so even
//      a +1 drift fails;
//   3. bytes per frame EQUALS the baseline — the bench encodes fixed,
//      seeded content, so its packet size is deterministic and any change
//      means the Vorbix bitstream changed, even where timing is noise;
//   4. encode ns/frame is within (1 + max_regress) of baseline, default
//      +25% — loose enough for shared-machine noise, tight enough to catch
//      an accidental O(N log N) -> O(N^2) or a reintroduced per-packet copy.
//
// bench "fanout" (BENCH_fanout.json):
//   1. every required numeric field present (schema_version 1);
//   2. payload copies and buffers per packet are IDENTICAL at the small and
//      large speaker counts — the zero-copy fan-out claim is exact, not a
//      tolerance: per-packet payload cost must not depend on N;
//   3. neither may grow past the baseline (hard, like codec allocations);
//   4. total heap allocations per packet at the large count stay within
//      (1 + max_regress) of baseline — they include O(N) event-scheduling
//      machinery, so they get the noise margin, not an equality.
//
// bench "trace" (BENCH_trace.json):
//   1. every required numeric field present (schema_version 1);
//   2. the tail sampler really sampled: sampling retained fewer traces
//      than full retention did, and discarded at least one (hard —
//      machine-independent structure, not timing);
//   3. the sharded tier delivered IDENTICAL packet and full-retention
//      counts to the classic tiers — the merged-mirror observability
//      bit-identity contract, gated structurally (hard);
//   4. spans-off, sampling, full, and both sharded ns/packet numbers each
//      stay within (1 + max_regress) of baseline — spans-off is the one
//      that guards the "no cost when disabled" claim against the pre-span
//      baseline.
//
// bench "fleet" (BENCH_fleet.json):
//   1. every required numeric field present (schema_version 1);
//   2. the 1-zone and 4-zone runs delivered IDENTICAL packet counts at
//      every tier, and the 4-zone runs actually posted cross-shard
//      messages — the determinism contract, gated structurally (hard);
//   3. payload Buffer shares and heap allocations per delivery of the
//      4-zone run at the 10k tier have not grown past the baseline — work
//      counts, identical run to run, so no noise margin (hard);
//   4. 4-zone ns/delivery at the 10k tier stays within (1 + max_regress)
//      of baseline — the absolute-cost regression gate.
//
// Exit 0 on pass; 1 with one "FAIL:" line per violation otherwise.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/json_lite.h"

namespace espk {
namespace {

Result<std::map<std::string, JsonValue>> LoadJson(const char* path) {
  std::FILE* f = std::fopen(path, "r");
  if (f == nullptr) {
    return DataLossError(std::string("cannot open ") + path);
  }
  std::string text;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, n);
  }
  std::fclose(f);
  return ParseFlatJsonObject(text);
}

struct Gate {
  // Both gate inputs, so every per-metric failure can name the pair being
  // compared — "which file is missing the key" is the first question a
  // broken gate run raises.
  std::string current_path;
  std::string baseline_path;
  int failures = 0;

  Gate(const char* current, const char* baseline)
      : current_path(current), baseline_path(baseline) {}

  void Fail(const std::string& msg) {
    std::fprintf(stderr, "FAIL: %s\n", msg.c_str());
    ++failures;
  }

  // Returns the numeric field, failing (and returning 0) if missing or not
  // a number. The message names the key, the offending file, and the other
  // gate input (a missing baseline key usually means the baseline predates
  // the metric and needs regenerating).
  double Number(const std::map<std::string, JsonValue>& obj,
                const std::string& file, const std::string& key) {
    auto it = obj.find(key);
    const std::string other =
        file == current_path ? baseline_path : current_path;
    if (it == obj.end()) {
      Fail(file + ": missing numeric field \"" + key +
           "\" (gate compares it against " + other +
           "; regenerate the stale file)");
      return 0.0;
    }
    if (it->second.kind != JsonValue::Kind::kNumber) {
      Fail(file + ": field \"" + key +
           "\" is not a number (gate compares it against " + other + ")");
      return 0.0;
    }
    return it->second.number;
  }
};

const char* const kCodecNumericFields[] = {
    "schema_version",          "frames_per_packet",
    "packets",                 "quality",
    "encode_ns_per_frame",     "decode_ns_per_frame",
    "bytes_per_frame",         "encode_allocs_per_packet",
    "decode_allocs_per_packet", "encode_ns_per_packet_count",
    "encode_ns_per_packet_mean", "encode_ns_per_packet_p50",
    "encode_ns_per_packet_p95",
};

const char* const kFanoutNumericFields[] = {
    "schema_version",
    "speakers_small",
    "speakers_large",
    "packets",
    "payload_bytes",
    "payload_copies_per_packet_small",
    "payload_copies_per_packet_large",
    "buffers_per_packet_small",
    "buffers_per_packet_large",
    "shares_per_packet_small",
    "shares_per_packet_large",
    "allocs_per_packet_small",
    "allocs_per_packet_large",
    "ns_per_packet_large",
};

const char* const kFleetNumericFields[] = {
    "schema_version",
    "zones",
    "speakers_small",
    "speakers_mid",
    "speakers_large",
    "deliveries_small",
    "deliveries_mid",
    "deliveries_large",
    "sharded_deliveries_small",
    "sharded_deliveries_mid",
    "sharded_deliveries_large",
    "sharded_messages_posted_mid",
    "one_zone_pps_small",
    "one_zone_pps_mid",
    "one_zone_pps_large",
    "sharded_pps_small",
    "sharded_pps_mid",
    "sharded_pps_large",
    "one_zone_ns_per_delivery_large",
    "sharded_ns_per_delivery_large",
    "sharded_shares_per_delivery_large",
    "sharded_allocs_per_delivery_large",
    "multichannel_channels",
    "multichannel_speakers",
    "multichannel_deliveries",
    "multichannel_sharded_deliveries",
    "multichannel_one_zone_pps",
    "multichannel_sharded_pps",
};

const char* const kTraceNumericFields[] = {
    "schema_version",
    "speakers",
    "sim_seconds",
    "packets",
    "spans_off_ns_per_packet",
    "sampling_ns_per_packet",
    "full_ns_per_packet",
    "sampling_retained",
    "sampling_discarded",
    "full_retained",
    "sharded_zones",
    "sharded_packets",
    "sharded_spans_off_ns_per_packet",
    "sharded_full_ns_per_packet",
    "sharded_full_retained",
};

using JsonObject = std::map<std::string, JsonValue>;

// Returns the baseline's "bench" string after checking both files declare
// the same one; empty string (plus Fail lines) otherwise.
std::string BenchKind(Gate* gate, const JsonObject& current,
                      const char* current_path, const JsonObject& baseline,
                      const char* baseline_path) {
  std::string kind;
  for (const auto* pair : {&baseline, &current}) {
    const std::string file = pair == &current ? current_path : baseline_path;
    auto bench = pair->find("bench");
    if (bench == pair->end() ||
        bench->second.kind != JsonValue::Kind::kString) {
      gate->Fail(file + ": missing string field \"bench\"");
      return "";
    }
    if (pair == &baseline) {
      kind = bench->second.str;
    } else if (bench->second.str != kind) {
      gate->Fail(file + ": bench \"" + bench->second.str +
                 "\" does not match baseline bench \"" + kind + "\"");
      return "";
    }
  }
  return kind;
}

void CheckCodec(Gate* gate, const JsonObject& current,
                const char* current_path, const JsonObject& baseline,
                const char* baseline_path, double max_regress) {
  Gate& g = *gate;
  // Allocations are a hard gate: the steady-state count is a designed-in
  // property (one output buffer per packet), not a tunable.
  for (const char* key :
       {"encode_allocs_per_packet", "decode_allocs_per_packet"}) {
    const double cur = g.Number(current, current_path, key);
    const double base = g.Number(baseline, baseline_path, key);
    if (cur > base) {
      g.Fail(std::string(key) + " grew: " + std::to_string(cur) + " > " +
             "baseline " + std::to_string(base));
    }
  }

  // Both files carry the same printed precision, so equal bitstreams give
  // equal numbers.
  const double cur_bytes = g.Number(current, current_path, "bytes_per_frame");
  const double base_bytes =
      g.Number(baseline, baseline_path, "bytes_per_frame");
  if (cur_bytes != base_bytes) {
    char msg[256];
    std::snprintf(msg, sizeof(msg),
                  "bytes_per_frame %.10g differs from baseline %.10g: the "
                  "Vorbix bitstream changed",
                  cur_bytes, base_bytes);
    g.Fail(msg);
  }

  const double cur_ns = g.Number(current, current_path,
                                 "encode_ns_per_frame");
  const double base_ns = g.Number(baseline, baseline_path,
                                  "encode_ns_per_frame");
  const double limit = base_ns * (1.0 + max_regress);
  if (cur_ns > limit) {
    char msg[256];
    std::snprintf(msg, sizeof(msg),
                  "encode_ns_per_frame %.1f exceeds baseline %.1f by more "
                  "than %.0f%% (limit %.1f)",
                  cur_ns, base_ns, max_regress * 100.0, limit);
    g.Fail(msg);
  }

  if (g.failures == 0) {
    std::printf(
        "PASS: encode %.1f ns/frame (baseline %.1f, limit %.1f), "
        "%.10g bytes/frame, allocs/packet encode=%g decode=%g\n",
        cur_ns, base_ns, limit, cur_bytes,
        g.Number(current, current_path, "encode_allocs_per_packet"),
        g.Number(current, current_path, "decode_allocs_per_packet"));
  }
}

void CheckFanout(Gate* gate, const JsonObject& current,
                 const char* current_path, const JsonObject& baseline,
                 const char* baseline_path, double max_regress) {
  Gate& g = *gate;
  // The zero-copy claim itself: per-packet payload cost must be exactly
  // the same at N=speakers_small and N=speakers_large. Any dependence on
  // the receiver count means a copy crept into the fan-out.
  for (const char* stem :
       {"payload_copies_per_packet", "buffers_per_packet"}) {
    const double small =
        g.Number(current, current_path, std::string(stem) + "_small");
    const double large =
        g.Number(current, current_path, std::string(stem) + "_large");
    if (small != large) {
      g.Fail(std::string(stem) + " depends on speaker count: " +
             std::to_string(small) + " (small) vs " + std::to_string(large) +
             " (large)");
    }
  }
  // Hard ceiling against the checked-in baseline, like codec allocations:
  // copy counts are designed-in properties, not tunables.
  for (const char* key :
       {"payload_copies_per_packet_large", "buffers_per_packet_large"}) {
    const double cur = g.Number(current, current_path, key);
    const double base = g.Number(baseline, baseline_path, key);
    if (cur > base) {
      g.Fail(std::string(key) + " grew: " + std::to_string(cur) + " > " +
             "baseline " + std::to_string(base));
    }
  }
  // Total heap allocations include O(N) event-delivery machinery, so they
  // get the noise margin rather than an equality.
  const double cur_allocs =
      g.Number(current, current_path, "allocs_per_packet_large");
  const double base_allocs =
      g.Number(baseline, baseline_path, "allocs_per_packet_large");
  const double alloc_limit = base_allocs * (1.0 + max_regress);
  if (cur_allocs > alloc_limit) {
    char msg[256];
    std::snprintf(msg, sizeof(msg),
                  "allocs_per_packet_large %.1f exceeds baseline %.1f by "
                  "more than %.0f%% (limit %.1f)",
                  cur_allocs, base_allocs, max_regress * 100.0, alloc_limit);
    g.Fail(msg);
  }

  if (g.failures == 0) {
    std::printf(
        "PASS: fan-out copies/packet %g (N-independent), buffers/packet %g, "
        "allocs/packet %.1f (baseline %.1f, limit %.1f)\n",
        g.Number(current, current_path, "payload_copies_per_packet_large"),
        g.Number(current, current_path, "buffers_per_packet_large"),
        cur_allocs, base_allocs, alloc_limit);
  }
}

void CheckTrace(Gate* gate, const JsonObject& current,
                const char* current_path, const JsonObject& baseline,
                const char* baseline_path, double max_regress) {
  Gate& g = *gate;
  // Structural, machine-independent gates first: the sampler must have
  // made real decisions or the overhead numbers compare nothing.
  const double sampling_retained =
      g.Number(current, current_path, "sampling_retained");
  const double full_retained =
      g.Number(current, current_path, "full_retained");
  if (sampling_retained >= full_retained) {
    g.Fail("tail sampler retained as much as full retention (" +
           std::to_string(sampling_retained) + " vs " +
           std::to_string(full_retained) + "); sampling is not sampling");
  }
  if (g.Number(current, current_path, "sampling_discarded") <= 0.0) {
    g.Fail("tail sampler discarded nothing; sampling is not sampling");
  }
  // The sharded tier's determinism contract is exact: same packets as the
  // classic run, same traces retained through the barrier-merged mirror.
  const double packets = g.Number(current, current_path, "packets");
  const double sharded_packets =
      g.Number(current, current_path, "sharded_packets");
  if (sharded_packets != packets) {
    g.Fail("sharded tier sent " + std::to_string(sharded_packets) +
           " packets vs classic " + std::to_string(packets) +
           "; sharding changed simulation behaviour");
  }
  const double sharded_full_retained =
      g.Number(current, current_path, "sharded_full_retained");
  if (sharded_full_retained != full_retained) {
    g.Fail("sharded full retention kept " +
           std::to_string(sharded_full_retained) + " traces vs classic " +
           std::to_string(full_retained) +
           "; the barrier merge lost or duplicated spans");
  }
  // Timing gates get the shared-machine noise margin. spans_off is the one
  // that matters most: it compares today's untraced packet path against
  // the baseline recorded before/without the span plane.
  for (const char* key : {"spans_off_ns_per_packet", "sampling_ns_per_packet",
                          "full_ns_per_packet",
                          "sharded_spans_off_ns_per_packet",
                          "sharded_full_ns_per_packet"}) {
    const double cur = g.Number(current, current_path, key);
    const double base = g.Number(baseline, baseline_path, key);
    const double limit = base * (1.0 + max_regress);
    if (cur > limit) {
      char msg[256];
      std::snprintf(msg, sizeof(msg),
                    "%s %.1f exceeds baseline %.1f by more than %.0f%% "
                    "(limit %.1f)",
                    key, cur, base, max_regress * 100.0, limit);
      g.Fail(msg);
    }
  }

  if (g.failures == 0) {
    std::printf(
        "PASS: spans off %.1f ns/pkt (baseline %.1f), sampling %.1f, "
        "full %.1f, sharded off %.1f, sharded full %.1f; retained "
        "sampling=%g full=%g sharded=%g\n",
        g.Number(current, current_path, "spans_off_ns_per_packet"),
        g.Number(baseline, baseline_path, "spans_off_ns_per_packet"),
        g.Number(current, current_path, "sampling_ns_per_packet"),
        g.Number(current, current_path, "full_ns_per_packet"),
        g.Number(current, current_path, "sharded_spans_off_ns_per_packet"),
        g.Number(current, current_path, "sharded_full_ns_per_packet"),
        sampling_retained, full_retained, sharded_full_retained);
  }
}

void CheckFleet(Gate* gate, const JsonObject& current,
                const char* current_path, const JsonObject& baseline,
                const char* baseline_path, double max_regress) {
  Gate& g = *gate;
  // Determinism first: both zone counts simulated the same fleet. Any
  // difference means sharding changed what happened, not just how fast.
  for (const char* tier : {"small", "mid", "large"}) {
    const double one_zone =
        g.Number(current, current_path, std::string("deliveries_") + tier);
    const double sharded = g.Number(
        current, current_path, std::string("sharded_deliveries_") + tier);
    if (one_zone <= 0.0 || one_zone != sharded) {
      g.Fail(std::string("deliveries_") + tier + " " +
             std::to_string(one_zone) + " != sharded_deliveries_" + tier +
             " " + std::to_string(sharded) +
             "; the 1-zone and 4-zone runs diverged");
    }
  }
  if (g.Number(current, current_path, "sharded_messages_posted_mid") <= 0.0) {
    g.Fail("the 4-zone run posted no cross-shard messages; its zones did "
           "not run on their own shards");
  }
  // The multi-channel tier (several groups per zone) must obey the same
  // determinism contract.
  const double multi_one_zone =
      g.Number(current, current_path, "multichannel_deliveries");
  const double multi_sharded =
      g.Number(current, current_path, "multichannel_sharded_deliveries");
  if (multi_one_zone <= 0.0 || multi_one_zone != multi_sharded) {
    g.Fail("multichannel_deliveries " + std::to_string(multi_one_zone) +
           " != multichannel_sharded_deliveries " +
           std::to_string(multi_sharded) +
           "; the multi-channel runs diverged");
  }
  // Work per delivery is a count over a fixed stretch of a deterministic
  // run: any growth is a change in the code, not noise.
  for (const char* key : {"sharded_shares_per_delivery_large",
                          "sharded_allocs_per_delivery_large"}) {
    const double cur = g.Number(current, current_path, key);
    const double base = g.Number(baseline, baseline_path, key);
    if (cur > base) {
      char msg[256];
      std::snprintf(msg, sizeof(msg), "%s grew: %.6g > baseline %.6g", key,
                    cur, base);
      g.Fail(msg);
    }
  }
  // Absolute cost of the 4-zone run at the big tier gets the shared-
  // machine noise margin against the checked-in baseline.
  const double cur_ns =
      g.Number(current, current_path, "sharded_ns_per_delivery_large");
  const double base_ns =
      g.Number(baseline, baseline_path, "sharded_ns_per_delivery_large");
  const double limit = base_ns * (1.0 + max_regress);
  if (cur_ns > limit) {
    char msg[256];
    std::snprintf(msg, sizeof(msg),
                  "sharded_ns_per_delivery_large %.1f exceeds baseline %.1f "
                  "by more than %.0f%% (limit %.1f)",
                  cur_ns, base_ns, max_regress * 100.0, limit);
    g.Fail(msg);
  }

  if (g.failures == 0) {
    std::printf(
        "PASS: 1-zone and 4-zone deliveries identical, %.1f ns/delivery at "
        "%g speakers (baseline %.1f, limit %.1f), shares/delivery %.6g, "
        "allocs/delivery %.6g\n",
        cur_ns, g.Number(current, current_path, "speakers_large"), base_ns,
        limit,
        g.Number(current, current_path, "sharded_shares_per_delivery_large"),
        g.Number(current, current_path, "sharded_allocs_per_delivery_large"));
  }
}

int Run(const char* current_path, const char* baseline_path,
        double max_regress) {
  Gate gate(current_path, baseline_path);
  Result<JsonObject> current = LoadJson(current_path);
  Result<JsonObject> baseline = LoadJson(baseline_path);
  if (!current.ok()) {
    gate.Fail(std::string(current_path) + ": unreadable or malformed JSON — " +
              current.status().ToString() + " (baseline input: " +
              baseline_path + ")");
  }
  if (!baseline.ok()) {
    gate.Fail(std::string(baseline_path) + ": unreadable or malformed JSON — " +
              baseline.status().ToString() + " (current input: " +
              current_path + ")");
  }
  if (gate.failures > 0) {
    return 1;
  }

  const std::string kind = BenchKind(&gate, *current, current_path,
                                     *baseline, baseline_path);
  if (kind != "codec" && kind != "fanout" && kind != "trace" &&
      kind != "fleet") {
    if (gate.failures == 0) {
      gate.Fail("unknown bench kind \"" + kind + "\"");
    }
    return 1;
  }

  for (const auto* pair : {&*current, &*baseline}) {
    const std::string file =
        pair == &*current ? current_path : baseline_path;
    if (kind == "codec") {
      for (const char* key : kCodecNumericFields) {
        (void)gate.Number(*pair, file, key);
      }
    } else if (kind == "fanout") {
      for (const char* key : kFanoutNumericFields) {
        (void)gate.Number(*pair, file, key);
      }
    } else if (kind == "fleet") {
      for (const char* key : kFleetNumericFields) {
        (void)gate.Number(*pair, file, key);
      }
    } else {
      for (const char* key : kTraceNumericFields) {
        (void)gate.Number(*pair, file, key);
      }
    }
  }
  if (gate.failures > 0) {
    return 1;
  }

  if (gate.Number(*current, current_path, "schema_version") != 1.0) {
    gate.Fail("unsupported schema_version (want 1)");
  }

  if (kind == "codec") {
    CheckCodec(&gate, *current, current_path, *baseline, baseline_path,
               max_regress);
  } else if (kind == "fanout") {
    CheckFanout(&gate, *current, current_path, *baseline, baseline_path,
                max_regress);
  } else if (kind == "fleet") {
    CheckFleet(&gate, *current, current_path, *baseline, baseline_path,
               max_regress);
  } else {
    CheckTrace(&gate, *current, current_path, *baseline, baseline_path,
               max_regress);
  }
  return gate.failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace espk

int main(int argc, char** argv) {
  if (argc < 3 || argc > 4) {
    std::fprintf(stderr,
                 "usage: bench_gate <current.json> <baseline.json> "
                 "[max_regress_frac]\n");
    return 2;
  }
  double max_regress = 0.25;
  if (argc == 4) {
    max_regress = std::strtod(argv[3], nullptr);
  }
  return espk::Run(argv[1], argv[2], max_regress);
}
