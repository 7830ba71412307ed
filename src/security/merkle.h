// Merkle hash trees, the classic answer to §5.1's observation that
// "digitally signing every audio packet is not feasible" (Wong & Lam,
// reference [15]): sign only the root of a tree over a batch of packets;
// each packet then carries a logarithmic inclusion proof that can be checked
// with hashing alone.
#ifndef SRC_SECURITY_MERKLE_H_
#define SRC_SECURITY_MERKLE_H_

#include <vector>

#include "src/base/status.h"
#include "src/security/sha256.h"

namespace espk {

struct MerkleProof {
  uint32_t leaf_index = 0;
  // Sibling hashes, leaf level upward.
  std::vector<Digest> siblings;

  Bytes Serialize() const;
  static Result<MerkleProof> Deserialize(const Bytes& wire);
};

class MerkleTree {
 public:
  // Builds the tree over leaf payloads (hashed internally with a leaf
  // domain separator). Leaves are padded to a power of two by repeating
  // the last leaf hash.
  explicit MerkleTree(const std::vector<Bytes>& leaves);

  const Digest& root() const { return levels_.back()[0]; }

  MerkleProof ProveLeaf(uint32_t index) const;

  // Verifies that `leaf_payload` is the `proof.leaf_index`-th leaf of the
  // tree with the given root.
  static bool VerifyLeaf(const Digest& root, const Bytes& leaf_payload,
                         const MerkleProof& proof);

 private:
  std::vector<std::vector<Digest>> levels_;  // levels_[0] = leaf hashes.
};

}  // namespace espk

#endif  // SRC_SECURITY_MERKLE_H_
