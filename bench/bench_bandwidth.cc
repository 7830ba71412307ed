// C1 (§2.2 in-text): "Early versions of our design sent onto the network
// the raw data as it was extracted from the VAD. However this created
// significant network overhead (around 1.3Mbps for CD-quality audio). On a
// fast Ethernet this was not a problem, but on legacy 10Mbps or wireless
// links, the overhead was unacceptable. We, therefore, decided to compress
// the audio stream."
//
// Part 1 measures the wire load of one CD-quality stream, raw vs Vorbix.
// Part 2 loads a legacy 10 Mbps segment with an increasing number of raw
// and compressed streams and reports where the link saturates (queue drops
// appear), showing why compression makes 10 Mbps viable.
#include "bench/bench_util.h"
#include "src/core/system.h"

namespace espk {
namespace {

struct LoadResult {
  double wire_mbps = 0.0;
  double payload_mbps = 0.0;
  uint64_t queue_drops = 0;
  uint64_t speaker_late_drops = 0;
};

LoadResult Run(int streams, bool compress, double bandwidth_bps,
               int seconds) {
  SystemOptions sys;
  sys.lan.bandwidth_bps = bandwidth_bps;
  EthernetSpeakerSystem system(sys);
  RebroadcasterOptions rb;
  rb.codec_override = compress ? CodecId::kVorbix : CodecId::kRaw;
  std::vector<EthernetSpeaker*> speakers;
  for (int i = 0; i < streams; ++i) {
    Channel* channel =
        *system.CreateChannel("s" + std::to_string(i), rb);
    PlayerAppOptions opts;
    opts.config = AudioConfig::CdQuality();
    (void)*system.StartPlayer(
        channel,
        std::make_unique<MusicLikeGenerator>(200 + static_cast<uint64_t>(i)),
        opts);
    SpeakerOptions so;
    so.decode_speed_factor = 0.05;
    speakers.push_back(*system.AddSpeaker(so, channel->group));
  }
  system.RunUntil(Seconds(seconds));
  LoadResult result;
  const SegmentStats& stats = system.lan()->stats();
  result.wire_mbps = static_cast<double>(stats.bytes_on_wire) * 8.0 /
                     seconds / 1e6;
  uint64_t payload = 0;
  for (const auto& channel : system.channels()) {
    payload += channel->rebroadcaster->stats().payload_bytes;
  }
  result.payload_mbps = static_cast<double>(payload) * 8.0 / seconds / 1e6;
  result.queue_drops = stats.packets_dropped_queue;
  for (EthernetSpeaker* s : speakers) {
    result.speaker_late_drops += s->stats().late_drops;
  }
  return result;
}

}  // namespace
}  // namespace espk

int main() {
  using namespace espk;
  PrintHeader("C1 (a)", "One CD-quality stream: raw vs Vorbix on the wire");
  PrintPaperNote(
      "raw CD-quality ~1.3 Mbps (payload 1.41 Mbps; the paper's figure is "
      "approximate); compression makes legacy 10 Mbps links workable");

  constexpr int kSeconds = 15;
  LoadResult raw1 = Run(1, /*compress=*/false, 100e6, kSeconds);
  LoadResult vorbix1 = Run(1, /*compress=*/true, 100e6, kSeconds);
  {
    Table table({"codec", "payload_mbps", "wire_mbps", "vs_raw"});
    table.Row({"raw", Fmt(raw1.payload_mbps), Fmt(raw1.wire_mbps), "1.00x"});
    table.Row({"vorbix_q10", Fmt(vorbix1.payload_mbps),
               Fmt(vorbix1.wire_mbps),
               Fmt(raw1.wire_mbps / vorbix1.wire_mbps) + "x"});
  }

  PrintHeader("C1 (b)", "Streams on a legacy 10 Mbps segment until it chokes");
  Table table({"streams", "codec", "wire_mbps", "queue_drops", "late_drops"});
  for (int streams : {1, 2, 4, 6, 8}) {
    LoadResult raw = Run(streams, false, 10e6, kSeconds);
    table.Row({std::to_string(streams), "raw", Fmt(raw.wire_mbps),
               std::to_string(raw.queue_drops),
               std::to_string(raw.speaker_late_drops)});
  }
  for (int streams : {1, 2, 4, 6, 8}) {
    LoadResult vorbix = Run(streams, true, 10e6, kSeconds);
    table.Row({std::to_string(streams), "vorbix", Fmt(vorbix.wire_mbps),
               std::to_string(vorbix.queue_drops),
               std::to_string(vorbix.speaker_late_drops)});
  }
  std::printf(
      "\nshape check: raw streams saturate 10 Mbps around 6-7 streams "
      "(1.41 Mbps payload each + overhead); Vorbix streams fit comfortably "
      "— the §2.2 rationale for compressing high-bitrate channels.\n");
  return 0;
}
