#include "src/mgmt/scrape.h"

#include <algorithm>
#include <utility>

namespace espk {

Bytes ScrapeRequest::Serialize() const {
  ByteWriter w;
  w.WriteU8(static_cast<uint8_t>(MgmtOp::kScrape));
  w.WriteU32(request_id);
  w.WriteU32(target);
  return w.TakeBytes();
}

Result<ScrapeRequest> ScrapeRequest::Deserialize(const BufferSlice& wire) {
  ByteReader r(wire.data(), wire.size());
  Result<uint8_t> op = r.ReadU8();
  if (!op.ok() || *op != static_cast<uint8_t>(MgmtOp::kScrape)) {
    return DataLossError("not a scrape request");
  }
  Result<uint32_t> request_id = r.ReadU32();
  Result<uint32_t> target =
      request_id.ok() ? r.ReadU32() : Result<uint32_t>(request_id.status());
  if (!target.ok()) {
    return target.status();
  }
  ScrapeRequest request;
  request.request_id = *request_id;
  request.target = *target;
  return request;
}

Bytes ScrapeChunk::Serialize() const {
  ByteWriter w;
  w.WriteU8(static_cast<uint8_t>(MgmtOp::kScrapeChunk));
  w.WriteU32(request_id);
  w.WriteU32(responder);
  w.WriteU16(index);
  w.WriteU16(count);
  w.WriteLengthPrefixed(fragment);
  return w.TakeBytes();
}

Result<ScrapeChunk> ScrapeChunk::Deserialize(const BufferSlice& wire) {
  ByteReader r(wire.data(), wire.size());
  Result<uint8_t> op = r.ReadU8();
  if (!op.ok() || *op != static_cast<uint8_t>(MgmtOp::kScrapeChunk)) {
    return DataLossError("not a scrape chunk");
  }
  Result<uint32_t> request_id = r.ReadU32();
  Result<uint32_t> responder =
      request_id.ok() ? r.ReadU32() : Result<uint32_t>(request_id.status());
  Result<uint16_t> index =
      responder.ok() ? r.ReadU16() : Result<uint16_t>(responder.status());
  Result<uint16_t> count =
      index.ok() ? r.ReadU16() : Result<uint16_t>(index.status());
  if (!count.ok()) {
    return count.status();
  }
  if (*count == 0 || *index >= *count) {
    return DataLossError("scrape chunk index out of range");
  }
  Result<Bytes> fragment = r.ReadLengthPrefixed();
  if (!fragment.ok()) {
    return fragment.status();
  }
  ScrapeChunk chunk;
  chunk.request_id = *request_id;
  chunk.responder = *responder;
  chunk.index = *index;
  chunk.count = *count;
  chunk.fragment = std::move(*fragment);
  return chunk;
}

std::vector<ScrapeChunk> SplitIntoChunks(uint32_t request_id, NodeId responder,
                                         const Bytes& payload,
                                         size_t max_chunk_bytes) {
  max_chunk_bytes = std::max<size_t>(max_chunk_bytes, 1);
  const size_t count =
      std::max<size_t>(1, (payload.size() + max_chunk_bytes - 1) /
                              max_chunk_bytes);
  std::vector<ScrapeChunk> chunks;
  chunks.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    ScrapeChunk chunk;
    chunk.request_id = request_id;
    chunk.responder = responder;
    chunk.index = static_cast<uint16_t>(i);
    chunk.count = static_cast<uint16_t>(count);
    const size_t begin = i * max_chunk_bytes;
    const size_t end = std::min(payload.size(), begin + max_chunk_bytes);
    chunk.fragment.assign(payload.begin() + static_cast<ptrdiff_t>(begin),
                          payload.begin() + static_cast<ptrdiff_t>(end));
    chunks.push_back(std::move(chunk));
  }
  return chunks;
}

std::optional<Bytes> ChunkAssembler::Add(const ScrapeChunk& chunk) {
  if (!started_) {
    started_ = true;
    request_id_ = chunk.request_id;
    count_ = chunk.count;
    fragments_.assign(count_, Bytes{});
    have_.assign(count_, false);
  }
  if (chunk.request_id != request_id_ || chunk.count != count_ ||
      chunk.index >= count_ || have_[chunk.index]) {
    return std::nullopt;
  }
  fragments_[chunk.index] = chunk.fragment;
  have_[chunk.index] = true;
  ++received_;
  if (received_ < count_) {
    return std::nullopt;
  }
  Bytes payload;
  size_t total = 0;
  for (const Bytes& fragment : fragments_) {
    total += fragment.size();
  }
  payload.reserve(total);
  for (const Bytes& fragment : fragments_) {
    payload.insert(payload.end(), fragment.begin(), fragment.end());
  }
  return payload;
}

void ChunkAssembler::Reset() { *this = ChunkAssembler(); }

ScrapeAgent::ScrapeAgent(Transport* nic,
                         std::function<Bytes()> snapshot_source,
                         ScrapeAgentOptions options)
    : nic_(nic),
      snapshot_source_(std::move(snapshot_source)),
      options_(options) {
  (void)nic_->JoinGroup(kMgmtGroup);
  nic_->SetReceiveHandler([this](const Datagram& d) { OnDatagram(d); });
}

void ScrapeAgent::OnDatagram(const Datagram& datagram) {
  if (datagram.group != kMgmtGroup) {
    return;
  }
  Result<ScrapeRequest> request = ScrapeRequest::Deserialize(datagram.payload);
  if (!request.ok()) {
    return;  // Gets/sets/traps also ride the mgmt group; not for us.
  }
  if (request->target != nic_->node_id()) {
    return;
  }
  ++scrapes_served_;
  const Bytes snapshot = snapshot_source_ ? snapshot_source_() : Bytes{};
  for (ScrapeChunk& chunk : SplitIntoChunks(request->request_id,
                                            nic_->node_id(), snapshot,
                                            options_.max_chunk_bytes)) {
    (void)nic_->SendUnicast(datagram.source, chunk.Serialize());
    ++chunks_sent_;
  }
}

}  // namespace espk
