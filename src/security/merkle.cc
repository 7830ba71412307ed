#include "src/security/merkle.h"

#include <cassert>

#include "src/security/hmac.h"

namespace espk {

namespace {

// Domain separation: leaves and interior nodes must hash differently or a
// proof for an interior node could be passed off as a leaf.
Digest HashLeaf(const Bytes& payload) {
  Sha256 h;
  uint8_t tag = 0x00;
  h.Update(&tag, 1);
  h.Update(payload);
  return h.Finish();
}

Digest HashNode(const Digest& left, const Digest& right) {
  Sha256 h;
  uint8_t tag = 0x01;
  h.Update(&tag, 1);
  h.Update(left.data(), left.size());
  h.Update(right.data(), right.size());
  return h.Finish();
}

}  // namespace

Bytes MerkleProof::Serialize() const {
  ByteWriter w;
  w.WriteU32(leaf_index);
  w.WriteU16(static_cast<uint16_t>(siblings.size()));
  for (const Digest& d : siblings) {
    w.WriteBytes(d.data(), d.size());
  }
  return w.TakeBytes();
}

Result<MerkleProof> MerkleProof::Deserialize(const Bytes& wire) {
  ByteReader r(wire);
  Result<uint32_t> index = r.ReadU32();
  Result<uint16_t> count =
      index.ok() ? r.ReadU16() : Result<uint16_t>(index.status());
  if (!count.ok()) {
    return count.status();
  }
  if (*count > 40) {
    return DataLossError("implausible Merkle proof depth");
  }
  MerkleProof proof;
  proof.leaf_index = *index;
  for (uint16_t i = 0; i < *count; ++i) {
    Result<Bytes> raw = r.ReadBytes(32);
    if (!raw.ok()) {
      return raw.status();
    }
    Digest d;
    std::copy(raw->begin(), raw->end(), d.begin());
    proof.siblings.push_back(d);
  }
  return proof;
}

MerkleTree::MerkleTree(const std::vector<Bytes>& leaves) {
  assert(!leaves.empty() && "Merkle tree needs at least one leaf");
  std::vector<Digest> level;
  level.reserve(leaves.size());
  for (const Bytes& leaf : leaves) {
    level.push_back(HashLeaf(leaf));
  }
  // Pad to a power of two by repeating the final hash.
  while ((level.size() & (level.size() - 1)) != 0) {
    level.push_back(level.back());
  }
  levels_.push_back(level);
  while (levels_.back().size() > 1) {
    const std::vector<Digest>& prev = levels_.back();
    std::vector<Digest> next;
    next.reserve(prev.size() / 2);
    for (size_t i = 0; i < prev.size(); i += 2) {
      next.push_back(HashNode(prev[i], prev[i + 1]));
    }
    levels_.push_back(std::move(next));
  }
}

MerkleProof MerkleTree::ProveLeaf(uint32_t index) const {
  assert(index < levels_[0].size());
  MerkleProof proof;
  proof.leaf_index = index;
  size_t pos = index;
  for (size_t level = 0; level + 1 < levels_.size(); ++level) {
    size_t sibling = pos ^ 1;
    proof.siblings.push_back(levels_[level][sibling]);
    pos >>= 1;
  }
  return proof;
}

bool MerkleTree::VerifyLeaf(const Digest& root, const Bytes& leaf_payload,
                            const MerkleProof& proof) {
  Digest current = HashLeaf(leaf_payload);
  size_t pos = proof.leaf_index;
  for (const Digest& sibling : proof.siblings) {
    if ((pos & 1) != 0) {
      current = HashNode(sibling, current);
    } else {
      current = HashNode(current, sibling);
    }
    pos >>= 1;
  }
  return ConstantTimeEqual(current, root);
}

}  // namespace espk
