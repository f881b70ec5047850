// The verify-side twin of SignatureCache: an exact memo of successful RRSIG
// verifications, shared by every copy of a TrustAnchors set.
//
// A PKCS#1 v1.5 verification is a pure function of (public key, algorithm,
// H(signed payload), signature bytes). An entry records exactly that tuple
// for a signature that verified, so a later lookup of the same tuple returns
// the verdict the RSA operation would. The whole tuple is compared byte for
// byte, never through a fingerprint: a flipped bit anywhere in the RRset
// (it changes the digest) or in the signature misses. Validity-window checks
// against the validator's clock are not part of the tuple; validate_zone
// runs them on every call before it consults the memo. Failures are not
// stored, so a bogus signature pays the RSA operation every time and can
// never be turned into a cached "valid".
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "crypto/rsa.h"
#include "dns/rdata.h"
#include "dnssec/signer.h"

namespace rootsim::dnssec {

/// Per-call tally of memo outcomes; validate_zone reports its own as the
/// `dnssec.verify_memo.{hits,misses,resets}` counters.
struct VerifyMemoStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t resets = 0;
};

/// Thread-safe. The lock is held only to probe and to insert; RSA runs
/// outside it. Entries are fixed-size records in one contiguous vector, with
/// the digest and signature bytes in a chunked byte arena, under an
/// open-addressed index — no per-entry heap node.
///
/// Counting is schedule-independent: a miss is counted only by the insert
/// that adds an entry, and every other successful verification of the same
/// tuple — including a concurrent one that lost the insert race — counts as
/// a hit. So while `resets` is 0, misses equal the number of distinct valid
/// tuples and hits the remaining valid lookups, at any worker count. At
/// kMemoEntries entries the memo clears wholesale and counts a reset; past a
/// reset, which tuples are re-verified depends on lookup order.
class VerifyMemo {
 public:
  /// A trust-anchor key as the memo knows it: `id` names the key in entries
  /// and `ctx` is its RSA verify context, built once per distinct key. Both
  /// stay valid for the memo's lifetime, across resets.
  struct Key {
    uint32_t id = 0;
    const crypto::RsaVerifyContext* ctx = nullptr;
  };
  /// Interns `key` by its full DNSKEY content.
  Key intern(const dns::DnskeyData& key);

  /// One verification: the key, the RRSIG algorithm, the digest of the
  /// signed payload under that algorithm's hash, and the signature bytes.
  struct Verification {
    uint32_t key_id = 0;
    uint8_t algorithm = 0;
    std::span<const uint8_t> digest;
    std::span<const uint8_t> signature;
  };

  /// True if this exact verification succeeded before; counts a hit.
  bool contains(const Verification& v, VerifyMemoStats* stats = nullptr);
  /// Records a verification that succeeded. Counts a miss if this call adds
  /// the entry, a hit if another caller added it first.
  void insert(const Verification& v, VerifyMemoStats* stats = nullptr);

  uint64_t hits() const;
  uint64_t misses() const;
  uint64_t resets() const;
  size_t size() const;

 private:
  struct Entry {
    uint64_t hash;
    uint32_t key_id;
    uint32_t bytes_at;  // arena offset: digest, then signature
    uint16_t digest_len;
    uint16_t signature_len;
    uint8_t algorithm;
  };
  struct InternedKey {
    dns::DnskeyData key;
    crypto::RsaVerifyContext ctx;
  };
  static constexpr size_t kChunkBytes = 64 * 1024;

  /// Slot of the entry matching `v`, or of the empty slot ending its probe.
  size_t probe(const Verification& v, uint64_t hash) const;
  bool matches(const Entry& e, const Verification& v, uint64_t hash) const;
  const uint8_t* bytes(uint32_t at) const;
  uint32_t store(std::span<const uint8_t> digest, std::span<const uint8_t> signature);
  void grow_index();

  mutable std::mutex mu_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t resets_ = 0;
  std::vector<Entry> entries_;
  std::vector<uint32_t> slots_;  // entry index + 1; 0 = empty; size a power of 2
  std::vector<std::unique_ptr<uint8_t[]>> chunks_;
  size_t arena_used_ = 0;
  std::deque<InternedKey> keys_;  // deque: interned contexts never move
};

}  // namespace rootsim::dnssec
