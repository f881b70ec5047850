// Zone signing (RFC 4035 §2): builds NSEC chains, signs every authoritative
// RRset with the ZSK, signs the DNSKEY RRset with the KSK, and computes
// ZONEMD placement per RFC 8976 §3 (digest computed over the zone with the
// ZONEMD digest field zeroed/placeholder, then patched in, then signed).
//
// This is the machinery the simulated root zone maintainer runs on each new
// serial; it mirrors what Verisign does for '.' twice a day.
#pragma once

#include <cstdint>
#include <future>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "crypto/rsa.h"
#include "dns/zone.h"
#include "util/timeutil.h"

namespace rootsim::dnssec {

/// A DNSSEC signing key: RSA pair + its DNSKEY record fields.
struct SigningKey {
  crypto::RsaPrivateKey rsa;
  uint16_t flags = 256;    // 256 = ZSK, 257 = KSK
  uint8_t algorithm = 8;   // RSASHA256

  dns::DnskeyData to_dnskey() const;
  uint16_t key_tag() const { return to_dnskey().key_tag(); }
};

/// Generates a ZSK/KSK pair deterministically from `rng`.
SigningKey make_zsk(util::Rng& rng, size_t modulus_bits = 1024);
SigningKey make_ksk(util::Rng& rng, size_t modulus_bits = 1024);

struct SigningPolicy {
  util::UnixTime inception;    // signature inception
  util::UnixTime expiration;   // signature expiration (~2 weeks for the root)
  bool add_nsec = true;
  /// ZONEMD behaviour, mirroring the roll-out stages of Fig. 2:
  /// None — pre-2023-09-13; Private — placeholder with private hash algorithm
  /// (not verifiable); Sha384 — verifiable, post-2023-12-06.
  enum class ZonemdMode { None, PrivateAlgorithm, Sha384 } zonemd = ZonemdMode::Sha384;
  /// Extra DNSKEYs published in the apex RRset without signing anything —
  /// pre-published (or not-yet-withdrawn) keys during a KSK rollover.
  std::vector<dns::DnskeyData> extra_dnskeys;
};

/// Per-call hit/miss tally: sign_zone adds the lookups it made to `stats`,
/// so a caller can attribute counters to its own call while other threads
/// share the cache.
struct SignStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t resets = 0;  ///< wholesale clears this call's misses triggered
};

/// Memoizes RRSIG signature bytes across sign_zone calls.
///
/// The root zone re-signs ~every 12 hours, but most RRsets (delegations,
/// glue, NSEC chain) are unchanged between serials and — because inception
/// is pinned to the day edit — so are their RRSIG timestamps within a day.
/// The cache is content-addressed: the lookup key is SHA-256 over the
/// signing key's DNSKEY RDATA wire followed by the RRSIG signing payload,
/// which embeds the full RRSIG template (type covered, key tag, signer,
/// inception/expiration) and the canonical RRset wire form. Any change to
/// the RRset, the validity window, or the key therefore produces a
/// different lookup key: serial bumps (SOA/ZONEMD RRsets) and key rolls
/// invalidate by construction, and a hit can only ever return bytes a
/// cold sign of the identical payload would produce.
///
/// Thread-safe, with in-flight cells: the first lookup of a payload claims
/// its entry under the lock (a pending future) and signs outside it; a
/// concurrent lookup of the same payload counts as a hit and waits on that
/// future instead of signing again. So `misses` equals the number of
/// distinct payloads and `hits` the remaining lookups in any schedule —
/// exact totals, the same at every worker count — while `resets` is 0.
/// At `max_entries` the cache clears wholesale and counts a reset; past a
/// reset, which payloads are re-signed depends on lookup order, so the
/// totals are exact only while resets == 0.
class SignatureCache {
 public:
  explicit SignatureCache(size_t max_entries = 1 << 16);

  /// Returns the cached signature for (key identity, payload), or signs via
  /// `ctx` and caches. `key_id` must uniquely identify the signing key (the
  /// DNSKEY RDATA wire form). `stats` (optional) tallies this lookup.
  std::vector<uint8_t> sign(const crypto::RsaSignContext& ctx,
                            std::span<const uint8_t> key_id,
                            crypto::RsaHash hash,
                            std::span<const uint8_t> payload,
                            SignStats* stats = nullptr);

  uint64_t hits() const;
  uint64_t misses() const;
  uint64_t resets() const;
  size_t size() const;
  size_t max_entries() const { return max_entries_; }
  void clear();

 private:
  using Signature = std::shared_future<std::vector<uint8_t>>;

  mutable std::mutex mu_;
  size_t max_entries_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t resets_ = 0;
  std::unordered_map<std::string, Signature> entries_;
};

/// Signs `zone` in place: strips old NSEC/RRSIG/ZONEMD/DNSKEY, installs the
/// DNSKEY RRset, NSEC chain and ZONEMD, and signs all authoritative RRsets.
/// Delegation NS RRsets and glue are not signed (RFC 4035 §2.2) — exactly the
/// gap ZONEMD closes and the reason the paper calls it valuable.
/// With `cache` non-null, unchanged RRsets reuse previously computed
/// signature bytes instead of re-running the RSA kernel, and `stats`
/// (optional) receives this call's cache hits, misses and resets.
void sign_zone(dns::Zone& zone, const SigningKey& ksk, const SigningKey& zsk,
               const SigningPolicy& policy, SignatureCache* cache = nullptr,
               SignStats* stats = nullptr);

/// Computes the RFC 8976 SIMPLE/SHA-384 digest over the zone (ignoring the
/// apex ZONEMD RRset's RRSIG and zeroing nothing: the caller must pass a zone
/// whose ZONEMD digest field is already a placeholder, per §3.3.1).
std::vector<uint8_t> compute_zonemd_digest(const dns::Zone& zone,
                                           uint8_t hash_algorithm);

/// True if `name` is a delegation point in `zone` (has NS but no SOA at it).
bool is_delegation(const dns::Zone& zone, const dns::Name& name);

}  // namespace rootsim::dnssec
