// Network boot of a diskless Ethernet Speaker (§2.4): DHCP for network and
// boot parameters, a PXE/TFTP-style chunked fetch of the ramdisk kernel
// image, then the machine-specific configuration tar from the boot server —
// verified against the server key baked into the ramdisk — expanded over
// the skeleton /etc.
//
// "The requirement that we should be able to update the software on these
// machines without having to visit each machine separately made the network
// boot option more appealing."
#ifndef SRC_BOOT_NETBOOT_H_
#define SRC_BOOT_NETBOOT_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "src/boot/ramdisk.h"
#include "src/lan/transport.h"
#include "src/security/sha256.h"
#include "src/sim/simulation.h"

namespace espk {

// Boot-protocol message types (one shared u8 tag space).
enum class BootMsg : uint8_t {
  kDhcpDiscover = 1,
  kDhcpOffer = 2,
  kDhcpRequest = 3,
  kDhcpAck = 4,
  kImageChunkRequest = 5,   // u32 offset
  kImageChunk = 6,          // u32 offset, u32 total, blob, server signature
  kConfigRequest = 7,       // hostname string
  kConfigResponse = 8,      // tar blob + HMAC under server key
  kError = 9,
};

// Lease/boot parameters a DHCP offer carries.
struct DhcpLease {
  NodeId client = 0;
  uint32_t address = 0;     // Assigned "IP" (index into the server's pool).
  NodeId boot_server = 0;   // Where to fetch the image and config.
  std::string hostname;     // Server-assigned name (by MAC/node mapping).

  void Serialize(ByteWriter* w) const;
  static Result<DhcpLease> Deserialize(ByteReader* r);
};

class DhcpServer {
 public:
  // `transport` must outlive the server.
  DhcpServer(Simulation* sim, Transport* transport, NodeId boot_server);

  // Static host mapping: node -> hostname (like /etc/dhcpd.conf).
  void AddHost(NodeId node, const std::string& hostname);

  uint64_t discovers_seen() const { return discovers_; }
  uint64_t leases_granted() const { return leases_; }

 private:
  void OnDatagram(const Datagram& datagram);

  Simulation* sim_;
  Transport* transport_;
  NodeId boot_server_;
  std::map<NodeId, std::string> hosts_;
  uint32_t next_address_ = 1;
  std::map<NodeId, uint32_t> assigned_;
  uint64_t discovers_ = 0;
  uint64_t leases_ = 0;
};

class BootServer {
 public:
  BootServer(Simulation* sim, Transport* transport, RamdiskImage image,
             Bytes server_key);

  // Per-machine configuration tars, by hostname.
  void SetConfigTar(const std::string& hostname, Bytes tar);

  uint64_t image_chunks_served() const { return image_chunks_served_; }
  uint64_t configs_served() const { return configs_served_; }

  static constexpr size_t kChunkSize = 32768;

 private:
  void OnDatagram(const Datagram& datagram);

  Simulation* sim_;
  Transport* transport_;
  Bytes image_wire_;
  Bytes server_key_;
  std::map<std::string, Bytes> config_tars_;
  uint64_t image_chunks_served_ = 0;
  uint64_t configs_served_ = 0;
};

// The ES boot ROM + early userland: runs the whole §2.4 sequence and hands
// the finished root filesystem to the completion callback.
class NetbootClient {
 public:
  struct BootResult {
    DhcpLease lease;
    RamdiskFs root_fs;  // Ramdisk with the config overlay applied.
    std::map<std::string, std::string> config;  // Parsed etc/espk.conf.
  };
  using DoneCallback = std::function<void(Result<BootResult>)>;

  NetbootClient(Simulation* sim, Transport* transport);

  // Starts the boot sequence; `done` fires exactly once. `timeout` guards
  // every phase (a dead server must not hang the speaker forever).
  void Boot(DoneCallback done, SimDuration timeout = Seconds(10));

  enum class Phase {
    kIdle,
    kDhcp,
    kFetchingImage,
    kFetchingConfig,
    kDone,
    kFailed,
  };
  Phase phase() const { return phase_; }

 private:
  void OnDatagram(const Datagram& datagram);
  void RequestNextChunk();
  void Fail(Status status);
  void Finish();
  void ArmTimeout(SimDuration timeout);

  Simulation* sim_;
  Transport* transport_;
  DoneCallback done_;
  Phase phase_ = Phase::kIdle;
  std::optional<DhcpLease> lease_;
  Bytes image_buffer_;
  uint32_t image_total_ = 0;
  std::optional<RamdiskFs> root_fs_;
  Bytes expected_server_key_fingerprint_;
  Simulation::EventHandle timeout_event_;
};

}  // namespace espk

#endif  // SRC_BOOT_NETBOOT_H_
