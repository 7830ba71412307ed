#include "src/boot/netboot.h"

#include <algorithm>

#include "src/base/logging.h"
#include "src/security/hmac.h"

namespace espk {

namespace {

Bytes Tagged(BootMsg tag) {
  ByteWriter w;
  w.WriteU8(static_cast<uint8_t>(tag));
  return w.TakeBytes();
}

}  // namespace

void DhcpLease::Serialize(ByteWriter* w) const {
  w->WriteU32(client);
  w->WriteU32(address);
  w->WriteU32(boot_server);
  w->WriteString(hostname);
}

Result<DhcpLease> DhcpLease::Deserialize(ByteReader* r) {
  Result<uint32_t> client = r->ReadU32();
  Result<uint32_t> address =
      client.ok() ? r->ReadU32() : Result<uint32_t>(client.status());
  Result<uint32_t> boot_server =
      address.ok() ? r->ReadU32() : Result<uint32_t>(address.status());
  Result<std::string> hostname =
      boot_server.ok() ? r->ReadString()
                       : Result<std::string>(boot_server.status());
  if (!hostname.ok()) {
    return hostname.status();
  }
  DhcpLease lease;
  lease.client = *client;
  lease.address = *address;
  lease.boot_server = *boot_server;
  lease.hostname = std::move(*hostname);
  return lease;
}

// ------------------------------------------------------------ DhcpServer --

DhcpServer::DhcpServer(Simulation* sim, Transport* transport,
                       NodeId boot_server)
    : sim_(sim), transport_(transport), boot_server_(boot_server) {
  transport_->SetReceiveHandler(
      [this](const Datagram& d) { OnDatagram(d); });
}

void DhcpServer::AddHost(NodeId node, const std::string& hostname) {
  hosts_[node] = hostname;
}

void DhcpServer::OnDatagram(const Datagram& datagram) {
  ByteReader r(datagram.payload.data(), datagram.payload.size());
  Result<uint8_t> tag = r.ReadU8();
  if (!tag.ok()) {
    return;
  }
  switch (static_cast<BootMsg>(*tag)) {
    case BootMsg::kDhcpDiscover: {
      ++discovers_;
      DhcpLease lease;
      lease.client = datagram.source;
      auto it = assigned_.find(datagram.source);
      lease.address =
          it != assigned_.end() ? it->second : next_address_++;
      assigned_[datagram.source] = lease.address;
      lease.boot_server = boot_server_;
      auto host = hosts_.find(datagram.source);
      lease.hostname = host != hosts_.end()
                           ? host->second
                           : "es-" + std::to_string(lease.address);
      ByteWriter w;
      w.WriteU8(static_cast<uint8_t>(BootMsg::kDhcpOffer));
      lease.Serialize(&w);
      (void)transport_->SendUnicast(datagram.source, w.TakeBytes());
      break;
    }
    case BootMsg::kDhcpRequest: {
      ByteWriter w;
      w.WriteU8(static_cast<uint8_t>(BootMsg::kDhcpAck));
      (void)transport_->SendUnicast(datagram.source, w.TakeBytes());
      break;
    }
    default:
      break;
  }
}

// ------------------------------------------------------------ BootServer --

BootServer::BootServer(Simulation* sim, Transport* transport,
                       RamdiskImage image, Bytes server_key)
    : sim_(sim),
      transport_(transport),
      image_wire_(image.Serialize()),
      server_key_(std::move(server_key)) {
  transport_->SetReceiveHandler(
      [this](const Datagram& d) { OnDatagram(d); });
}

void BootServer::SetConfigTar(const std::string& hostname, Bytes tar) {
  config_tars_[hostname] = std::move(tar);
}

void BootServer::OnDatagram(const Datagram& datagram) {
  ByteReader r(datagram.payload.data(), datagram.payload.size());
  Result<uint8_t> tag = r.ReadU8();
  if (!tag.ok()) {
    return;
  }
  switch (static_cast<BootMsg>(*tag)) {
    case BootMsg::kImageChunkRequest: {
      Result<uint32_t> offset = r.ReadU32();
      if (!offset.ok() || *offset >= image_wire_.size()) {
        (void)transport_->SendUnicast(datagram.source,
                                      Tagged(BootMsg::kError));
        return;
      }
      size_t len = std::min(kChunkSize, image_wire_.size() - *offset);
      ByteWriter w;
      w.WriteU8(static_cast<uint8_t>(BootMsg::kImageChunk));
      w.WriteU32(*offset);
      w.WriteU32(static_cast<uint32_t>(image_wire_.size()));
      w.WriteLengthPrefixed(Bytes(
          image_wire_.begin() + static_cast<long>(*offset),
          image_wire_.begin() + static_cast<long>(*offset + len)));
      ++image_chunks_served_;
      (void)transport_->SendUnicast(datagram.source, w.TakeBytes());
      break;
    }
    case BootMsg::kConfigRequest: {
      Result<std::string> hostname = r.ReadString();
      if (!hostname.ok()) {
        return;
      }
      auto it = config_tars_.find(*hostname);
      ByteWriter w;
      if (it == config_tars_.end()) {
        // No machine-specific config: serve an empty tar (skeleton only).
        Result<Bytes> empty = CreateTar({});
        w.WriteU8(static_cast<uint8_t>(BootMsg::kConfigResponse));
        w.WriteLengthPrefixed(server_key_);
        w.WriteLengthPrefixed(*empty);
        Digest mac = HmacSha256(server_key_, *empty);
        w.WriteBytes(mac.data(), mac.size());
      } else {
        w.WriteU8(static_cast<uint8_t>(BootMsg::kConfigResponse));
        w.WriteLengthPrefixed(server_key_);
        w.WriteLengthPrefixed(it->second);
        Digest mac = HmacSha256(server_key_, it->second);
        w.WriteBytes(mac.data(), mac.size());
      }
      ++configs_served_;
      (void)transport_->SendUnicast(datagram.source, w.TakeBytes());
      break;
    }
    default:
      break;
  }
}

// ---------------------------------------------------------- NetbootClient --

NetbootClient::NetbootClient(Simulation* sim, Transport* transport)
    : sim_(sim), transport_(transport) {
  transport_->SetReceiveHandler(
      [this](const Datagram& d) { OnDatagram(d); });
}

void NetbootClient::Boot(DoneCallback done, SimDuration timeout) {
  done_ = std::move(done);
  phase_ = Phase::kDhcp;
  ArmTimeout(timeout);
  (void)transport_->SendUnicast(kBroadcastNode,
                                Tagged(BootMsg::kDhcpDiscover));
}

void NetbootClient::ArmTimeout(SimDuration timeout) {
  sim_->Cancel(timeout_event_);
  timeout_event_ = sim_->ScheduleAfter(timeout, [this] {
    if (phase_ != Phase::kDone && phase_ != Phase::kFailed) {
      Fail(DeadlineExceededError("netboot timed out in phase " +
                                 std::to_string(static_cast<int>(phase_))));
    }
  });
}

void NetbootClient::Fail(Status status) {
  phase_ = Phase::kFailed;
  sim_->Cancel(timeout_event_);
  if (done_) {
    auto done = std::move(done_);
    done_ = nullptr;
    done(std::move(status));
  }
}

void NetbootClient::RequestNextChunk() {
  ByteWriter w;
  w.WriteU8(static_cast<uint8_t>(BootMsg::kImageChunkRequest));
  w.WriteU32(static_cast<uint32_t>(image_buffer_.size()));
  (void)transport_->SendUnicast(lease_->boot_server, w.TakeBytes());
}

void NetbootClient::OnDatagram(const Datagram& datagram) {
  if (phase_ == Phase::kDone || phase_ == Phase::kFailed) {
    return;
  }
  ByteReader r(datagram.payload.data(), datagram.payload.size());
  Result<uint8_t> tag = r.ReadU8();
  if (!tag.ok()) {
    return;
  }
  switch (static_cast<BootMsg>(*tag)) {
    case BootMsg::kDhcpOffer: {
      if (phase_ != Phase::kDhcp || lease_.has_value()) {
        return;
      }
      Result<DhcpLease> lease = DhcpLease::Deserialize(&r);
      if (!lease.ok()) {
        Fail(lease.status());
        return;
      }
      lease_ = *lease;
      (void)transport_->SendUnicast(datagram.source,
                                    Tagged(BootMsg::kDhcpRequest));
      break;
    }
    case BootMsg::kDhcpAck: {
      if (phase_ != Phase::kDhcp || !lease_.has_value()) {
        return;
      }
      phase_ = Phase::kFetchingImage;
      RequestNextChunk();
      break;
    }
    case BootMsg::kImageChunk: {
      if (phase_ != Phase::kFetchingImage) {
        return;
      }
      Result<uint32_t> offset = r.ReadU32();
      Result<uint32_t> total =
          offset.ok() ? r.ReadU32() : Result<uint32_t>(offset.status());
      Result<Bytes> blob =
          total.ok() ? r.ReadLengthPrefixed() : Result<Bytes>(total.status());
      if (!blob.ok()) {
        Fail(blob.status());
        return;
      }
      if (*offset != image_buffer_.size()) {
        return;  // Stale/duplicate chunk; ignore.
      }
      image_total_ = *total;
      image_buffer_.insert(image_buffer_.end(), blob->begin(), blob->end());
      if (image_buffer_.size() < image_total_) {
        RequestNextChunk();
        return;
      }
      // Whole image fetched: "mount" the ramdisk.
      Result<RamdiskImage> image = RamdiskImage::Deserialize(image_buffer_);
      if (!image.ok()) {
        Fail(image.status());
        return;
      }
      root_fs_ = RamdiskFs(std::move(image->root_fs));
      Result<Bytes> fingerprint =
          root_fs_->ReadFile("etc/ssh/boot_server_key.pub");
      if (!fingerprint.ok()) {
        Fail(FailedPreconditionError(
            "ramdisk image lacks the boot server key"));
        return;
      }
      expected_server_key_fingerprint_ = *fingerprint;
      phase_ = Phase::kFetchingConfig;
      ByteWriter w;
      w.WriteU8(static_cast<uint8_t>(BootMsg::kConfigRequest));
      w.WriteString(lease_->hostname);
      (void)transport_->SendUnicast(lease_->boot_server, w.TakeBytes());
      break;
    }
    case BootMsg::kConfigResponse: {
      if (phase_ != Phase::kFetchingConfig) {
        return;
      }
      Result<Bytes> server_key = r.ReadLengthPrefixed();
      Result<Bytes> tar = server_key.ok()
                              ? r.ReadLengthPrefixed()
                              : Result<Bytes>(server_key.status());
      Result<Bytes> mac =
          tar.ok() ? r.ReadBytes(32) : Result<Bytes>(tar.status());
      if (!mac.ok()) {
        Fail(mac.status());
        return;
      }
      // Host-key check, as ssh would do against the key in the ramdisk.
      Bytes fingerprint = DigestToBytes(Sha256::Hash(*server_key));
      if (fingerprint != expected_server_key_fingerprint_) {
        Fail(PermissionDeniedError(
            "boot server key does not match ramdisk fingerprint"));
        return;
      }
      Digest expected_mac = HmacSha256(*server_key, *tar);
      if (!ConstantTimeEqual(expected_mac.data(), mac->data(), 32)) {
        Fail(PermissionDeniedError("config tar failed integrity check"));
        return;
      }
      // Expand over the skeleton /etc: machine-specific wins (§2.4).
      Status overlay = root_fs_->OverlayTar(*tar);
      if (!overlay.ok()) {
        Fail(overlay);
        return;
      }
      Finish();
      break;
    }
    case BootMsg::kError:
      Fail(UnavailableError("boot server reported an error"));
      break;
    default:
      break;
  }
}

void NetbootClient::Finish() {
  phase_ = Phase::kDone;
  sim_->Cancel(timeout_event_);
  BootResult result;
  result.lease = *lease_;
  result.root_fs = std::move(*root_fs_);
  Result<std::string> conf = result.root_fs.ReadTextFile("etc/espk.conf");
  if (conf.ok()) {
    result.config = ParseConfigFile(*conf);
  }
  auto done = std::move(done_);
  done_ = nullptr;
  done(std::move(result));
}

}  // namespace espk
