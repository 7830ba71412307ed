// C6 (§1, §2.2, §6): the case for the rebroadcaster. "If we have large
// numbers of internal machines listening to the same broadcast, we may not
// want to load our WAN link with multiple unicast connections from machines
// downloading the same data. By contrast, the rebroadcaster can multicast
// the data received from a single connection on the WAN link."
//
// Two parts:
//  (a) LAN load vs listener count: ES multicast vs per-listener unicast.
//  (b) WAN link load: N clients each pulling their own unicast stream from
//      the "Internet" vs one gateway feeding the ES system.
#include "bench/bench_util.h"
#include "src/baseline/baseline.h"
#include "src/core/system.h"
#include "src/rebroadcast/wan.h"

namespace espk {
namespace {

double MulticastLanMbps(int listeners, int seconds) {
  EthernetSpeakerSystem system;
  RebroadcasterOptions rb;
  rb.codec_override = CodecId::kRaw;  // Same payload as the baseline.
  Channel* channel = *system.CreateChannel("music", rb);
  PlayerAppOptions opts;
  opts.config = AudioConfig::CdQuality();
  (void)*system.StartPlayer(channel, std::make_unique<MusicLikeGenerator>(7),
                            opts);
  for (int i = 0; i < listeners; ++i) {
    SpeakerOptions so;
    so.decode_speed_factor = 0.05;
    (void)*system.AddSpeaker(so, channel->group);
  }
  system.RunUntil(Seconds(seconds));
  return static_cast<double>(system.lan()->stats().bytes_on_wire) * 8.0 /
         seconds / 1e6;
}

double UnicastLanMbps(int listeners, int seconds) {
  Simulation sim;
  EthernetSegment segment(&sim, SegmentConfig{});
  auto server_nic = segment.CreateNic();
  UnicastStreamServer server(&sim, server_nic.get(),
                             AudioConfig::CdQuality(),
                             std::make_unique<MusicLikeGenerator>(8));
  std::vector<std::unique_ptr<SimNic>> nics;
  for (int i = 0; i < listeners; ++i) {
    nics.push_back(segment.CreateNic());
    server.AddListener(nics.back()->node_id());
  }
  server.Start();
  sim.RunUntil(Seconds(seconds));
  return static_cast<double>(segment.stats().bytes_on_wire) * 8.0 / seconds /
         1e6;
}

struct WanResult {
  double wan_mbps = 0.0;
  double lan_mbps = 0.0;
};

// N listeners each with their own WAN unicast connection (no proxy).
WanResult DirectWan(int listeners, int seconds) {
  Simulation sim;
  SegmentConfig wan_config;
  wan_config.bandwidth_bps = 10e6;  // The site uplink.
  EthernetSegment wan(&sim, wan_config);
  auto server_nic = wan.CreateNic();
  WanAudioServer server(&sim, server_nic.get(), AudioConfig::CdQuality(),
                        std::make_unique<MusicLikeGenerator>(9));
  std::vector<std::unique_ptr<SimNic>> nics;
  for (int i = 0; i < listeners; ++i) {
    nics.push_back(wan.CreateNic());
    server.AddListener(nics.back()->node_id());
  }
  server.Start();
  sim.RunUntil(Seconds(seconds));
  WanResult result;
  result.wan_mbps =
      static_cast<double>(wan.stats().bytes_on_wire) * 8.0 / seconds / 1e6;
  return result;
}

// One gateway pulls a single WAN stream, plays it into a VAD, and the
// rebroadcaster multicasts to N Ethernet Speakers on the LAN (Figure 1).
WanResult ProxiedWan(int listeners, int seconds) {
  EthernetSpeakerSystem system;  // The LAN.
  SegmentConfig wan_config;
  wan_config.bandwidth_bps = 10e6;
  EthernetSegment wan(system.sim(), wan_config);
  auto server_nic = wan.CreateNic();
  auto gateway_wan_nic = wan.CreateNic();

  RebroadcasterOptions rb;
  rb.codec_override = CodecId::kRaw;
  Channel* channel = *system.CreateChannel("proxied", rb);

  WanAudioServer server(system.sim(), server_nic.get(),
                        AudioConfig::CdQuality(),
                        std::make_unique<MusicLikeGenerator>(10));
  server.AddListener(gateway_wan_nic->node_id());
  GatewayPlayer gateway(system.kernel(), system.NewPid(),
                        channel->slave_path, gateway_wan_nic.get(),
                        AudioConfig::CdQuality());
  (void)gateway.Start();
  server.Start();

  for (int i = 0; i < listeners; ++i) {
    SpeakerOptions so;
    so.decode_speed_factor = 0.05;
    (void)*system.AddSpeaker(so, channel->group);
  }
  system.RunUntil(Seconds(seconds));
  WanResult result;
  result.wan_mbps =
      static_cast<double>(wan.stats().bytes_on_wire) * 8.0 / seconds / 1e6;
  result.lan_mbps = static_cast<double>(system.lan()->stats().bytes_on_wire) *
                    8.0 / seconds / 1e6;
  return result;
}

}  // namespace
}  // namespace espk

int main() {
  using namespace espk;
  constexpr int kSeconds = 10;

  PrintHeader("C6 (a)", "LAN load vs listeners: multicast ES vs unicast");
  PrintPaperNote(
      "multicast keeps the wire flat no matter how many speakers tune in; "
      "unicast pays one full stream per listener (§2.2)");
  Table table({"listeners", "multicast_mbps", "unicast_mbps"});
  for (int listeners : {1, 2, 4, 8, 16, 32}) {
    table.Row({std::to_string(listeners),
               Fmt(MulticastLanMbps(listeners, kSeconds)),
               Fmt(UnicastLanMbps(listeners, kSeconds))});
  }

  PrintHeader("C6 (b)",
              "WAN uplink load: direct unicast clients vs the gateway proxy");
  Table table2({"clients", "direct_wan_mbps", "proxy_wan_mbps",
                "proxy_lan_mbps"});
  for (int clients : {1, 2, 4, 6}) {
    WanResult direct = DirectWan(clients, kSeconds);
    WanResult proxied = ProxiedWan(clients, kSeconds);
    table2.Row({std::to_string(clients), Fmt(direct.wan_mbps),
                Fmt(proxied.wan_mbps), Fmt(proxied.lan_mbps)});
  }
  std::printf(
      "\nshape check: the direct configuration loads the 10 Mbps uplink "
      "linearly and saturates around 6-7 CD streams; the proxy holds the "
      "WAN at one stream regardless of the audience (Figure 1's whole "
      "point).\n");
  return 0;
}
