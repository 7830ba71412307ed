// Diskless-speaker deployment (§2.4): five Ethernet Speakers PXE-boot from
// the network. Each gets a DHCP lease, fetches the ramdisk kernel image
// from the boot server, fetches its machine-specific configuration tar
// (verified against the server key stored in the ramdisk), expands it over
// the skeleton /etc, and then starts its speaker process with the channel
// and volume its config prescribes.
//
// "Once deployed, the administrators will not have to deal with it."
#include <cstdio>

#include "src/boot/netboot.h"
#include "src/core/system.h"

using namespace espk;

int main() {
  EthernetSpeakerSystem system;

  // Producer side: one music channel.
  Channel* music = *system.CreateChannel("music");
  PlayerAppOptions opts;
  opts.config = AudioConfig::CdQuality();
  (void)*system.StartPlayer(music, std::make_unique<MusicLikeGenerator>(41),
                            opts);

  // Boot infrastructure: the boot server's key fingerprint is baked into
  // the ramdisk image, like the ssh keys in the paper.
  Bytes server_key = {'c', 'a', 'm', 'p', 'u', 's', '-', 'k', 'e', 'y'};
  RamdiskImage image =
      BuildStandardEsImage(DigestToBytes(Sha256::Hash(server_key)));
  auto boot_server_nic = system.lan()->CreateNic();
  BootServer boot_server(system.sim(), boot_server_nic.get(), image,
                         server_key);
  auto dhcp_nic = system.lan()->CreateNic();
  DhcpServer dhcp(system.sim(), dhcp_nic.get(), boot_server_nic->node_id());

  // Machine-specific config tars: different volume per location; all tune
  // the music channel.
  struct Machine {
    const char* hostname;
    const char* volume;
  };
  const Machine machines[] = {{"es-lobby", "1.0"},
                              {"es-hallway", "0.8"},
                              {"es-office-a", "0.5"},
                              {"es-office-b", "0.5"},
                              {"es-cafeteria", "1.2"}};
  for (const Machine& machine : machines) {
    FileMap overlay;
    std::string conf = "channel_group=" + std::to_string(music->group) +
                       "\nvolume=" + machine.volume +
                       "\nsync_epsilon_ms=20\ndecode_speed_factor=0.25\n";
    overlay["etc/espk.conf"] = Bytes(conf.begin(), conf.end());
    std::string hostname = std::string(machine.hostname) + "\n";
    overlay["etc/hostname"] = Bytes(hostname.begin(), hostname.end());
    boot_server.SetConfigTar(machine.hostname, *CreateTar(overlay));
  }

  // The diskless machines. Each boots, then brings up its speaker from the
  // fetched configuration.
  struct BootingSpeaker {
    std::unique_ptr<SimNic> nic;
    std::unique_ptr<NetbootClient> client;
    std::unique_ptr<EthernetSpeaker> speaker;
    std::string hostname;
    bool booted = false;
  };
  std::vector<std::unique_ptr<BootingSpeaker>> fleet;
  for (const Machine& machine : machines) {
    auto bs = std::make_unique<BootingSpeaker>();
    bs->nic = system.lan()->CreateNic();
    dhcp.AddHost(bs->nic->node_id(), machine.hostname);
    bs->client = std::make_unique<NetbootClient>(system.sim(), bs->nic.get());
    BootingSpeaker* raw = bs.get();
    Simulation* sim = system.sim();
    bs->client->Boot([raw, sim](Result<NetbootClient::BootResult> result) {
      if (!result.ok()) {
        std::printf("%s boot FAILED: %s\n", raw->hostname.c_str(),
                    result.status().ToString().c_str());
        return;
      }
      raw->booted = true;
      raw->hostname = result->lease.hostname;
      const auto& config = result->config;
      SpeakerOptions so;
      so.name = raw->hostname;
      so.gain = std::stof(config.at("volume"));
      so.sync_epsilon = Milliseconds(std::stol(config.at("sync_epsilon_ms")));
      so.decode_speed_factor = std::stod(config.at("decode_speed_factor"));
      // The boot NIC becomes the speaker NIC: construct the speaker (it
      // installs its own receive handler over the boot client's).
      raw->speaker = std::make_unique<EthernetSpeaker>(sim, raw->nic.get(), so);
      auto group =
          static_cast<GroupId>(std::stoul(config.at("channel_group")));
      (void)raw->speaker->Tune(group);
      std::printf("%-14s booted: lease addr %u, volume %.1f, tuned group "
                  "%u\n",
                  raw->hostname.c_str(), result->lease.address, so.gain,
                  group);
    });
    fleet.push_back(std::move(bs));
  }

  system.RunUntil(Seconds(20));

  int booted = 0;
  int playing = 0;
  for (const auto& bs : fleet) {
    booted += bs->booted ? 1 : 0;
    if (bs->speaker != nullptr && bs->speaker->stats().chunks_played > 50) {
      ++playing;
    }
  }
  std::printf("\nafter 20 s: %d/5 booted, %d/5 playing music\n", booted,
              playing);
  std::printf("boot server served %llu image chunks and %llu config tars\n",
              static_cast<unsigned long long>(
                  boot_server.image_chunks_served()),
              static_cast<unsigned long long>(boot_server.configs_served()));

  bool ok = booted == 5 && playing == 5;
  std::printf("\nnetboot_demo %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
