// C2 (§2.2 in-text): "Audio channels with low bit-rates are still sent
// uncompressed because the use of Ogg Vorbis introduces latency and
// increases the workload on the sender."
//
// Sweeps stream bitrate and reports, per codec: sender CPU per audio
// second, bandwidth saved, and the pipeline latency added by compression
// (packet accumulation + encode). The crossover justifies the
// rebroadcaster's fixed 200 kbps compression threshold.
#include "bench/bench_util.h"
#include "src/audio/generator.h"
#include "src/audio/sample_convert.h"
#include "src/base/cpu_clock.h"
#include "src/codec/codec.h"
#include "src/dsp/psymodel.h"

namespace espk {
namespace {

struct CodecCost {
  double cpu_per_audio_second = 0.0;  // Host CPU seconds per audio second.
  double compression_ratio = 1.0;
  double packet_latency_ms = 0.0;     // Accumulate + encode latency.
};

CodecCost Measure(const AudioConfig& config, CodecId codec,
                  int64_t packet_frames, double audio_seconds) {
  auto encoder = *CreateEncoder(codec, config, kMaxQuality);
  MusicLikeGenerator gen(42);
  const auto packets = static_cast<int64_t>(
      audio_seconds * config.sample_rate / static_cast<double>(packet_frames));
  uint64_t raw_bytes = 0;
  uint64_t coded_bytes = 0;
  CpuAccumulator cpu;
  double encode_seconds_per_packet = 0.0;
  for (int64_t p = 0; p < packets; ++p) {
    std::vector<float> samples;
    gen.Generate(packet_frames, config.channels, config.sample_rate,
                 &samples);
    raw_bytes += samples.size() * static_cast<size_t>(
                     BytesPerSample(config.encoding));
    cpu.Begin();
    Result<Bytes> coded = encoder->EncodePacket(samples);
    cpu.End();
    coded_bytes += coded->size();
  }
  encode_seconds_per_packet =
      cpu.total_seconds() / static_cast<double>(packets);
  CodecCost cost;
  cost.cpu_per_audio_second = cpu.total_seconds() / audio_seconds;
  cost.compression_ratio =
      static_cast<double>(raw_bytes) / static_cast<double>(coded_bytes);
  double accumulate_ms = static_cast<double>(packet_frames) /
                         config.sample_rate * 1000.0;
  cost.packet_latency_ms = accumulate_ms + encode_seconds_per_packet * 1e3;
  return cost;
}

}  // namespace
}  // namespace espk

int main() {
  using namespace espk;
  PrintHeader("C2", "Selective compression: when is Vorbix worth it?");
  PrintPaperNote(
      "low-bitrate channels go uncompressed: compression 'introduces "
      "latency and increases the workload on the sender' for little "
      "bandwidth gain (§2.2, Figure 4 discussion)");

  struct Case {
    const char* name;
    AudioConfig config;
  };
  const Case cases[] = {
      {"phone_64k", AudioConfig::PhoneQuality()},
      {"mid_352k", AudioConfig::MidQuality()},
      {"cd_1410k", AudioConfig::CdQuality()},
  };

  Table table({"channel", "kbps_raw", "codec", "cpu_per_s", "ratio",
               "latency_ms", "kbps_saved"});
  constexpr double kAudioSeconds = 20.0;
  for (const Case& c : cases) {
    double raw_kbps = c.config.bits_per_second() / 1000.0;
    CodecCost raw = Measure(c.config, CodecId::kRaw, 4096, kAudioSeconds);
    CodecCost vorbix =
        Measure(c.config, CodecId::kVorbix, 4096, kAudioSeconds);
    double saved_kbps = raw_kbps - raw_kbps / vorbix.compression_ratio;
    table.Row({c.name, Fmt(raw_kbps, 0), "raw",
               Fmt(raw.cpu_per_audio_second, 4), "1.00",
               Fmt(raw.packet_latency_ms, 1), "0"});
    table.Row({c.name, Fmt(raw_kbps, 0), "vorbix",
               Fmt(vorbix.cpu_per_audio_second, 4),
               Fmt(vorbix.compression_ratio), Fmt(vorbix.packet_latency_ms, 1),
               Fmt(saved_kbps, 0)});
  }
  std::printf(
      "\nshape check: at 64 kbps the CPU+latency cost of compression buys "
      "back almost no bandwidth; at 1.4 Mbps it buys back most of the "
      "stream. The rebroadcaster's default threshold (200 kbps) sits in "
      "the gap.\n");
  return 0;
}
