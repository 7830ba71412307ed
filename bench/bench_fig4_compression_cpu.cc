// Figure 4 reproduction: "Compression impact on CPU load, as we increase
// the number of compressed streams transmitted by the local rebroadcaster.
// Each stream is a separate CD-quality stereo audio stream." The paper
// plots userland CPU% over 60 seconds for four and eight streams.
//
// Method: run the full pipeline (players -> VADs -> rebroadcasters with
// Vorbix at maximum quality) on the simulated clock, and at every simulated
// second sample how much *real host CPU* the codec consumed. "CPU%" is that
// cost expressed against the one real second the simulated second stands
// for — i.e. the utilization this producer would show on this host.
// Absolute numbers differ from the paper's 2005-era hardware; the shape to
// check is that CPU tracks the stream count (8 streams ~ 2x 4 streams) and
// is roughly flat over time.
// Besides the printed table, writes BENCH_fig4_compression_cpu.json with the
// per-series CPU means and the per-packet encode-cost distribution pulled
// from each channel's station registry ("rebroadcast.encode_ms" on
// "rb-<sid>", merged across streams) — the same telemetry an NMS would walk.
#include <algorithm>
#include <vector>

#include "bench/bench_util.h"
#include "src/base/cpu_clock.h"
#include "src/core/system.h"
#include "src/dsp/psymodel.h"

namespace espk {
namespace {

// Percentile over several same-shaped histograms as if their samples had
// landed in one; mirrors Histogram::Percentile's interpolation.
double MergedPercentile(const std::vector<const Histogram*>& hs, double q) {
  if (hs.empty()) {
    return 0.0;
  }
  int64_t count = 0;
  int64_t underflow = 0;
  for (const Histogram* h : hs) {
    count += h->count();
    underflow += h->underflow();
  }
  if (count == 0) {
    return hs[0]->lo();
  }
  const double width =
      (hs[0]->hi() - hs[0]->lo()) / static_cast<double>(hs[0]->bucket_count());
  double target = q * static_cast<double>(count);
  double seen = static_cast<double>(underflow);
  if (seen >= target) {
    return hs[0]->lo();
  }
  for (int i = 0; i < hs[0]->bucket_count(); ++i) {
    int64_t in_bucket = 0;
    for (const Histogram* h : hs) {
      in_bucket += h->bucket(i);
    }
    double next = seen + static_cast<double>(in_bucket);
    if (next >= target && in_bucket > 0) {
      double frac = (target - seen) / static_cast<double>(in_bucket);
      return hs[0]->lo() + (static_cast<double>(i) + frac) * width;
    }
    seen = next;
  }
  return hs[0]->hi();
}

struct SeriesResult {
  std::vector<double> cpu_percent;  // One sample per simulated second.
  double mean = 0.0;
  // Per-packet codec cost, merged over every stream's encode_ms histogram.
  uint64_t encode_count = 0;
  double encode_ms_mean = 0.0;
  double encode_ms_p50 = 0.0;
  double encode_ms_p95 = 0.0;
  double encode_ms_max = 0.0;
};

SeriesResult RunStreams(int streams, int seconds) {
  EthernetSpeakerSystem system;
  RebroadcasterOptions rb;
  rb.codec_override = CodecId::kVorbix;  // All streams compressed (Fig 4).
  rb.quality = kMaxQuality;
  std::vector<Channel*> channels;
  for (int i = 0; i < streams; ++i) {
    channels.push_back(
        *system.CreateChannel("stream" + std::to_string(i), rb));
    PlayerAppOptions opts;
    opts.config = AudioConfig::CdQuality();
    (void)*system.StartPlayer(
        channels.back(),
        std::make_unique<MusicLikeGenerator>(100 + static_cast<uint64_t>(i)),
        opts);
  }
  SeriesResult result;
  double last_cpu = ProcessCpuSeconds();
  for (int s = 0; s < seconds; ++s) {
    system.sim()->RunFor(Seconds(1));
    double now_cpu = ProcessCpuSeconds();
    result.cpu_percent.push_back((now_cpu - last_cpu) * 100.0);
    last_cpu = now_cpu;
  }
  double acc = 0.0;
  for (double v : result.cpu_percent) {
    acc += v;
  }
  result.mean = acc / static_cast<double>(result.cpu_percent.size());

  // Harvest each channel's encode-cost histogram from its "rb-<sid>"
  // station.
  std::vector<const Histogram*> hists;
  double weighted_mean = 0.0;
  for (Channel* channel : channels) {
    const auto* h = static_cast<const HistogramMetric*>(
        system.FindStation("rb-" + std::to_string(channel->stream_id))
            ->registry->Find("rebroadcast.encode_ms"));
    hists.push_back(&h->histogram());
    result.encode_count += static_cast<uint64_t>(h->running().count());
    weighted_mean +=
        h->running().mean() * static_cast<double>(h->running().count());
    result.encode_ms_max = std::max(result.encode_ms_max, h->running().max());
  }
  if (result.encode_count > 0) {
    result.encode_ms_mean =
        weighted_mean / static_cast<double>(result.encode_count);
  }
  result.encode_ms_p50 = MergedPercentile(hists, 0.5);
  result.encode_ms_p95 = MergedPercentile(hists, 0.95);
  return result;
}

}  // namespace
}  // namespace espk

int main() {
  using namespace espk;
  PrintHeader("Figure 4", "Userland CPU usage vs. time (compressed streams)");
  PrintPaperNote(
      "y-axis 0-120% over 60 s; four streams sit well below eight; the "
      "ratio eight/four is ~2x. Absolute values are testbed-specific.");

  constexpr int kSeconds = 60;
  SeriesResult four = RunStreams(4, kSeconds);
  SeriesResult eight = RunStreams(8, kSeconds);

  Table table({"time_s", "four_cpu_pct", "eight_cpu_pct"});
  for (int s = 0; s < kSeconds; ++s) {
    table.Row({std::to_string(s + 1), Fmt(four.cpu_percent[s]),
               Fmt(eight.cpu_percent[s])});
  }
  std::printf("\nmean CPU%%: four streams = %.2f, eight streams = %.2f, "
              "ratio = %.2fx (paper shape: ~2x)\n",
              four.mean, eight.mean,
              four.mean > 0 ? eight.mean / four.mean : 0.0);

  JsonWriter json;
  json.Str("bench", "fig4_compression_cpu");
  json.Int("schema_version", 1);
  json.Int("seconds", kSeconds);
  json.Num("four_cpu_pct_mean", four.mean);
  json.Num("eight_cpu_pct_mean", eight.mean);
  json.Num("eight_over_four_ratio",
           four.mean > 0 ? eight.mean / four.mean : 0.0);
  json.Int("eight_encode_packets", eight.encode_count);
  json.Num("eight_encode_ms_mean", eight.encode_ms_mean);
  json.Num("eight_encode_ms_p50", eight.encode_ms_p50);
  json.Num("eight_encode_ms_p95", eight.encode_ms_p95);
  json.Num("eight_encode_ms_max", eight.encode_ms_max);
  return json.WriteFile("BENCH_fig4_compression_cpu.json") ? 0 : 1;
}
