#include "src/security/tesla.h"

#include <cassert>

#include "src/base/prng.h"
#include "src/security/hmac.h"

namespace espk {

namespace {

// Chain keys are 32 bytes; the MAC key for an interval is derived from the
// chain key so the chain value itself is never used as a MAC key directly.
Bytes DeriveMacKey(const Bytes& chain_key) {
  Bytes input = chain_key;
  const char* tag = "tesla-mac";
  input.insert(input.end(), tag, tag + 9);
  return DigestToBytes(Sha256::Hash(input));
}

Digest HashKey(const Bytes& key) { return Sha256::Hash(key); }

}  // namespace

Bytes TeslaTag::Serialize() const {
  ByteWriter w;
  w.WriteU32(interval);
  w.WriteBytes(mac.data(), mac.size());
  w.WriteU32(disclosed_interval);
  w.WriteLengthPrefixed(disclosed_key);
  return w.TakeBytes();
}

Result<TeslaTag> TeslaTag::Deserialize(const Bytes& wire) {
  ByteReader r(wire);
  Result<uint32_t> interval = r.ReadU32();
  if (!interval.ok()) {
    return interval.status();
  }
  Result<Bytes> mac = r.ReadBytes(32);
  if (!mac.ok()) {
    return mac.status();
  }
  Result<uint32_t> disclosed_interval = r.ReadU32();
  Result<Bytes> disclosed_key =
      disclosed_interval.ok()
          ? r.ReadLengthPrefixed()
          : Result<Bytes>(disclosed_interval.status());
  if (!disclosed_key.ok()) {
    return disclosed_key.status();
  }
  if (disclosed_key->size() > 64) {
    return DataLossError("implausible TESLA key length");
  }
  TeslaTag tag;
  tag.interval = *interval;
  std::copy(mac->begin(), mac->end(), tag.mac.begin());
  tag.disclosed_interval = *disclosed_interval;
  tag.disclosed_key = std::move(*disclosed_key);
  return tag;
}

TeslaSigner::TeslaSigner(uint32_t chain_length, SimDuration interval_duration,
                         uint32_t disclosure_delay, uint64_t seed)
    : interval_duration_(interval_duration),
      disclosure_delay_(disclosure_delay) {
  assert(chain_length >= 2 && disclosure_delay >= 1);
  Prng prng(seed);
  // Generate K_{n-1} randomly, then hash backwards: K_i = H(K_{i+1}).
  chain_.resize(chain_length);
  Bytes seed_key(32);
  for (auto& b : seed_key) {
    b = static_cast<uint8_t>(prng.NextU64());
  }
  chain_[chain_length - 1] = seed_key;
  for (uint32_t i = chain_length - 1; i > 0; --i) {
    chain_[i - 1] = DigestToBytes(HashKey(chain_[i]));
  }
  commitment_ = HashKey(chain_[0]);
}

Bytes TeslaSigner::KeyFor(uint32_t interval) const { return chain_[interval]; }

Result<TeslaTag> TeslaSigner::Tag(SimTime now, const Bytes& message) {
  auto interval = static_cast<uint32_t>(now / interval_duration_);
  if (interval >= chain_.size()) {
    return ResourceExhaustedError("TESLA key chain exhausted");
  }
  TeslaTag tag;
  tag.interval = interval;
  tag.mac = HmacSha256(DeriveMacKey(KeyFor(interval)), message);
  if (interval >= disclosure_delay_) {
    tag.disclosed_interval = interval - disclosure_delay_;
    tag.disclosed_key = KeyFor(tag.disclosed_interval);
  }
  return tag;
}

TeslaVerifier::TeslaVerifier(const Digest& commitment,
                             SimDuration interval_duration,
                             uint32_t disclosure_delay,
                             ReleaseCallback released)
    : commitment_(commitment),
      interval_duration_(interval_duration),
      disclosure_delay_(disclosure_delay),
      released_(std::move(released)),
      newest_verified_key_hash_(commitment) {}

bool TeslaVerifier::AcceptKey(uint32_t interval, const Bytes& key) {
  // Verify H^(i-a)(K_i) == K_a against the newest verified key K_a, or
  // H^(i+1)(K_i) == commitment when nothing has been verified yet. The
  // one-way chain means a forged key cannot hash down to a genuine anchor.
  if (!verified_keys_.empty()) {
    auto newest = verified_keys_.rbegin();
    if (interval <= newest->first) {
      // Old or duplicate disclosure; accept only if it matches what we
      // already verified.
      auto it = verified_keys_.find(interval);
      return it != verified_keys_.end() && it->second == key;
    }
    Bytes cursor = key;
    for (uint32_t s = interval; s > newest->first; --s) {
      cursor = DigestToBytes(HashKey(cursor));
    }
    if (cursor != newest->second) {
      return false;
    }
  } else {
    Bytes cursor = key;
    for (uint32_t s = interval; s > 0; --s) {
      cursor = DigestToBytes(HashKey(cursor));
    }
    if (!ConstantTimeEqual(HashKey(cursor), commitment_)) {
      return false;
    }
  }
  verified_keys_[interval] = key;
  return true;
}

void TeslaVerifier::ReleaseInterval(uint32_t interval, const Bytes& key) {
  auto it = pending_.find(interval);
  if (it == pending_.end()) {
    return;
  }
  Bytes mac_key = DeriveMacKey(key);
  for (const Pending& p : it->second) {
    Digest expected = HmacSha256(mac_key, p.message);
    bool authentic = ConstantTimeEqual(expected, p.mac);
    if (released_) {
      released_(p.message, authentic);
    }
  }
  buffered_count_ -= it->second.size();
  pending_.erase(it);
}

void TeslaVerifier::Ingest(const Bytes& message, const TeslaTag& tag) {
  // Safety condition: a packet whose interval key has already been
  // disclosed could have been forged by anyone who saw the key. Reject.
  bool key_already_public =
      !verified_keys_.empty() &&
      tag.interval <= verified_keys_.rbegin()->first;
  if (key_already_public) {
    if (released_) {
      released_(message, false);
    }
  } else {
    pending_[tag.interval].push_back(Pending{message, tag.mac});
    ++buffered_count_;
  }

  if (!tag.disclosed_key.empty() &&
      AcceptKey(tag.disclosed_interval, tag.disclosed_key)) {
    // All pending intervals <= the disclosed one are now verifiable: their
    // keys derive from the disclosed key by repeated hashing.
    Bytes cursor = tag.disclosed_key;
    uint32_t cursor_interval = tag.disclosed_interval;
    for (;;) {
      ReleaseInterval(cursor_interval, cursor);
      bool more_below = !pending_.empty() &&
                        pending_.begin()->first < cursor_interval;
      if (cursor_interval == 0 || !more_below) {
        break;
      }
      cursor = DigestToBytes(HashKey(cursor));
      --cursor_interval;
    }
  }
}

}  // namespace espk
