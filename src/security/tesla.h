// TESLA-style delayed-key-disclosure stream authentication — the class of
// "fast signing and verification" broadcast schemes §5.1 surveys (Perrig et
// al.; the distillation-codes work it cites builds on the same primitive).
//
// The producer owns a one-way key chain K_0 <- H(K_1) <- ... <- K_n and
// MACs every packet of time interval i with K_i. K_i itself is disclosed
// `disclosure_delay` intervals later, so by the time a receiver can check a
// MAC, forging it is too late to be useful. Receivers bootstrap from the
// chain commitment K_0 (obtained out of band — e.g. baked into the ramdisk
// image like the boot server's ssh keys, §2.4) and verify each disclosed
// key by hashing it back to the newest verified link.
//
// Verification is necessarily delayed; the verifier buffers packets per
// interval and releases them once the interval's key arrives.
#ifndef SRC_SECURITY_TESLA_H_
#define SRC_SECURITY_TESLA_H_

#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "src/base/status.h"
#include "src/base/time_types.h"
#include "src/security/sha256.h"

namespace espk {

// The per-packet trailer: interval index, MAC over the payload with that
// interval's (still secret) key, and the key disclosed for an older
// interval.
struct TeslaTag {
  uint32_t interval = 0;
  Digest mac{};
  uint32_t disclosed_interval = 0;
  Bytes disclosed_key;  // Empty in the first `delay` intervals.

  Bytes Serialize() const;
  static Result<TeslaTag> Deserialize(const Bytes& wire);
};

class TeslaSigner {
 public:
  // `chain_length` intervals of `interval_duration`, disclosing keys
  // `disclosure_delay` intervals late.
  TeslaSigner(uint32_t chain_length, SimDuration interval_duration,
              uint32_t disclosure_delay, uint64_t seed);

  // K_0, the commitment receivers must know a priori.
  const Digest& commitment() const { return commitment_; }
  SimDuration interval_duration() const { return interval_duration_; }
  uint32_t disclosure_delay() const { return disclosure_delay_; }

  // Tags `message` for the interval containing `now` (time measured from
  // the signer's epoch, i.e. now=0 is interval 0). Fails once the chain is
  // exhausted.
  Result<TeslaTag> Tag(SimTime now, const Bytes& message);

 private:
  Bytes KeyFor(uint32_t interval) const;

  SimDuration interval_duration_;
  uint32_t disclosure_delay_;
  std::vector<Bytes> chain_;  // chain_[i] = K_i.
  Digest commitment_;
};

class TeslaVerifier {
 public:
  // `released(message, authentic)` fires for each buffered message once its
  // interval key arrives: authentic=true if the MAC checked out.
  using ReleaseCallback =
      std::function<void(const Bytes& message, bool authentic)>;

  TeslaVerifier(const Digest& commitment, SimDuration interval_duration,
                uint32_t disclosure_delay, ReleaseCallback released);

  // Feed every received (message, tag) pair. Messages are buffered until
  // their interval's key is disclosed by a later packet.
  void Ingest(const Bytes& message, const TeslaTag& tag);

  size_t buffered() const { return buffered_count_; }

 private:
  // Verifies a disclosed key against the newest verified chain link.
  bool AcceptKey(uint32_t interval, const Bytes& key);
  void ReleaseInterval(uint32_t interval, const Bytes& key);

  Digest commitment_;
  SimDuration interval_duration_;
  uint32_t disclosure_delay_;
  ReleaseCallback released_;

  uint32_t newest_verified_interval_ = 0;  // 0 = the commitment itself.
  Digest newest_verified_key_hash_;        // Hash chain anchor.
  std::map<uint32_t, Bytes> verified_keys_;
  struct Pending {
    Bytes message;
    Digest mac;
  };
  std::map<uint32_t, std::vector<Pending>> pending_;
  size_t buffered_count_ = 0;
};

}  // namespace espk

#endif  // SRC_SECURITY_TESLA_H_
