#include "dnssec/signer.h"

#include <algorithm>
#include <cstring>
#include <optional>

#include "crypto/sha2.h"
#include "dnssec/canonical.h"

namespace rootsim::dnssec {

namespace {

crypto::RsaHash hash_for_algorithm(uint8_t algorithm) {
  return algorithm == 10 ? crypto::RsaHash::Sha512 : crypto::RsaHash::Sha256;
}

// Clamps a UnixTime into the 32-bit RRSIG timestamp space.
uint32_t rrsig_time(util::UnixTime t) {
  if (t < 0) return 0;
  if (t > 0xFFFFFFFFLL) return 0xFFFFFFFFu;
  return static_cast<uint32_t>(t);
}

}  // namespace

dns::DnskeyData SigningKey::to_dnskey() const {
  dns::DnskeyData key;
  key.flags = flags;
  key.protocol = 3;
  key.algorithm = algorithm;
  key.public_key = rsa.public_key.to_dnskey_wire();
  return key;
}

SigningKey make_zsk(util::Rng& rng, size_t modulus_bits) {
  SigningKey key;
  key.rsa = crypto::generate_rsa_key(rng, modulus_bits);
  key.flags = 256;
  return key;
}

SigningKey make_ksk(util::Rng& rng, size_t modulus_bits) {
  SigningKey key;
  key.rsa = crypto::generate_rsa_key(rng, modulus_bits);
  key.flags = 257;
  return key;
}

bool is_delegation(const dns::Zone& zone, const dns::Name& name) {
  if (name == zone.origin()) return false;
  return zone.find(name, dns::RRType::NS) != nullptr;
}

SignatureCache::SignatureCache(size_t max_entries)
    : max_entries_(max_entries ? max_entries : 1) {}

size_t SignatureCache::DigestHash::operator()(const Digest& d) const noexcept {
  size_t h;  // SHA-256 output is uniform: its first word is a good hash
  std::memcpy(&h, d.data(), sizeof h);
  return h;
}

std::vector<uint8_t> SignatureCache::sign(const crypto::RsaSignContext& ctx,
                                          std::span<const uint8_t> key_id,
                                          crypto::RsaHash hash,
                                          std::span<const uint8_t> payload,
                                          SignStats* stats) {
  crypto::Sha256 h;
  h.update(key_id);
  h.update(payload);
  const Digest lookup = h.finish();
  std::optional<std::promise<std::vector<uint8_t>>> claim;
  std::shared_future<std::vector<uint8_t>> pending;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (auto it = signed_.find(lookup); it != signed_.end()) {
      ++hits_;
      if (stats) ++stats->hits;
      return it->second;
    }
    if (auto it = in_flight_.find(lookup); it != in_flight_.end()) {
      ++hits_;
      if (stats) ++stats->hits;
      pending = it->second;
    } else {
      ++misses_;
      if (stats) ++stats->misses;
      if (signed_.size() + in_flight_.size() >= max_entries_) {
        signed_.clear();
        in_flight_.clear();
        ++resets_;
        if (stats) ++stats->resets;
      }
      in_flight_.emplace(lookup, claim.emplace().get_future().share());
    }
  }
  // A hit may find the payload still in flight; it waits for that signer.
  if (pending.valid()) return pending.get();
  // This lookup claimed the payload: sign outside the lock, then publish.
  try {
    std::vector<uint8_t> signature = ctx.sign(hash, payload);
    {
      std::lock_guard<std::mutex> lock(mu_);
      // A reset since the claim dropped it; the bytes are not kept then.
      if (in_flight_.erase(lookup)) signed_.emplace(lookup, signature);
    }
    claim->set_value(signature);
    return signature;
  } catch (...) {
    // Waiters rethrow; dropping the claim lets a later lookup sign afresh.
    claim->set_exception(std::current_exception());
    std::lock_guard<std::mutex> lock(mu_);
    in_flight_.erase(lookup);
    throw;
  }
}

uint64_t SignatureCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

uint64_t SignatureCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

uint64_t SignatureCache::resets() const {
  std::lock_guard<std::mutex> lock(mu_);
  return resets_;
}

size_t SignatureCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return signed_.size() + in_flight_.size();
}

void SignatureCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  signed_.clear();
  in_flight_.clear();
}

namespace {

// Everything sign_zone needs per key, derived once per call: the RSA CRT
// precomputation, the key tag (otherwise re-derived from the DNSKEY wire on
// every RRset), and the cache identity bytes (DNSKEY RDATA wire form).
struct ZoneSigner {
  explicit ZoneSigner(const SigningKey& k)
      : key(&k),
        ctx(k.rsa),
        tag(k.key_tag()),
        hash(hash_for_algorithm(k.algorithm)) {
    identity.push_back(static_cast<uint8_t>(k.flags >> 8));
    identity.push_back(static_cast<uint8_t>(k.flags));
    identity.push_back(3);  // protocol
    identity.push_back(k.algorithm);
    auto pk = k.rsa.public_key.to_dnskey_wire();
    identity.insert(identity.end(), pk.begin(), pk.end());
  }

  const SigningKey* key;
  crypto::RsaSignContext ctx;
  uint16_t tag;
  crypto::RsaHash hash;
  std::vector<uint8_t> identity;
};

dns::RrsigData sign_rrset(const dns::RRset& rrset, const ZoneSigner& signer,
                          const SigningPolicy& policy, const dns::Name& apex,
                          SignatureCache* cache, SignStats* stats,
                          CanonicalEncoder& encoder) {
  dns::RrsigData sig;
  sig.type_covered = rrset.type;
  sig.algorithm = signer.key->algorithm;
  sig.labels = static_cast<uint8_t>(rrset.name.label_count());
  sig.original_ttl = rrset.ttl;
  sig.expiration = rrsig_time(policy.expiration);
  sig.inception = rrsig_time(policy.inception);
  sig.key_tag = signer.tag;
  sig.signer = apex;
  const std::span<const uint8_t> payload = encoder.signing_payload(sig, rrset);
  sig.signature = cache ? cache->sign(signer.ctx, signer.identity, signer.hash,
                                      payload, stats)
                        : signer.ctx.sign(signer.hash, payload);
  return sig;
}

}  // namespace

std::vector<uint8_t> compute_zonemd_digest(const dns::Zone& zone,
                                           uint8_t hash_algorithm) {
  // RFC 8976 §3.3.1 SIMPLE scheme inclusion rules: hash the canonical wire
  // form of all records in canonical order, excluding (rule 4) the apex
  // ZONEMD RRset itself and (rule 6) the RRSIG covering the apex ZONEMD.
  const bool sha512 = hash_algorithm == dns::ZonemdData::kHashSha512;
  crypto::Sha384 h384;
  crypto::Sha512 h512;
  CanonicalEncoder encoder;
  dns::WireWriter records;
  const dns::Name& apex = zone.origin();
  for (const dns::RRset* set : zone.rrsets()) {
    const bool at_apex = set->name == apex;
    if (at_apex && set->type == dns::RRType::ZONEMD) continue;
    const bool drop_zonemd_sigs = at_apex && set->type == dns::RRType::RRSIG;
    for (const auto& rdata : set->rdatas) {
      if (drop_zonemd_sigs) {
        const auto* sig = std::get_if<dns::RrsigData>(&rdata);
        if (sig && sig->type_covered == dns::RRType::ZONEMD) continue;
      }
      encoder.add_rdata(rdata);
    }
    encoder.flush_records(records, set->name, set->type, set->rclass, set->ttl);
    if (sha512)
      h512.update(records.data());
    else
      h384.update(records.data());
    records.clear();
  }
  if (sha512) {
    auto digest = h512.finish();
    return {digest.begin(), digest.end()};
  }
  auto digest = h384.finish();
  return {digest.begin(), digest.end()};
}

void sign_zone(dns::Zone& zone, const SigningKey& ksk, const SigningKey& zsk,
               const SigningPolicy& policy, SignatureCache* cache,
               SignStats* stats) {
  const dns::Name& apex = zone.origin();
  const ZoneSigner ksk_signer(ksk);
  const ZoneSigner zsk_signer(zsk);
  CanonicalEncoder encoder;  // reused across every RRset signed below

  // Strip any previous DNSSEC material and ZONEMD.
  std::vector<std::pair<dns::Name, dns::RRType>> to_remove;
  for (const dns::RRset* set : zone.rrsets()) {
    if (set->type == dns::RRType::RRSIG || set->type == dns::RRType::NSEC ||
        set->type == dns::RRType::ZONEMD || set->type == dns::RRType::DNSKEY)
      to_remove.emplace_back(set->name, set->type);
  }
  for (const auto& [name, type] : to_remove) zone.remove_rrset(name, type);

  auto soa = zone.soa();
  const uint32_t soa_minimum = soa ? soa->minimum : 86400;
  const uint32_t serial = soa ? soa->serial : 0;

  // Install the DNSKEY RRset at the apex.
  for (const auto& key : {ksk, zsk}) {
    dns::ResourceRecord rr;
    rr.name = apex;
    rr.type = dns::RRType::DNSKEY;
    rr.ttl = 172800;
    rr.rdata = key.to_dnskey();
    zone.add(std::move(rr));
  }
  for (const auto& dnskey : policy.extra_dnskeys) {
    dns::ResourceRecord rr;
    rr.name = apex;
    rr.type = dns::RRType::DNSKEY;
    rr.ttl = 172800;
    rr.rdata = dnskey;
    zone.add(std::move(rr));
  }

  // Install the ZONEMD placeholder (RFC 8976 §3.3.1: digest field must be
  // present with placeholder content while hashing).
  if (policy.zonemd != SigningPolicy::ZonemdMode::None) {
    dns::ZonemdData zonemd;
    zonemd.serial = serial;
    zonemd.scheme = dns::ZonemdData::kSchemeSimple;
    zonemd.hash_algorithm = policy.zonemd == SigningPolicy::ZonemdMode::Sha384
                                ? dns::ZonemdData::kHashSha384
                                : dns::ZonemdData::kPrivateHashAlgorithm;
    zonemd.digest.assign(48, 0);  // placeholder
    dns::ResourceRecord rr;
    rr.name = apex;
    rr.type = dns::RRType::ZONEMD;
    rr.ttl = 86400;
    rr.rdata = zonemd;
    zone.add(std::move(rr));
  }

  // Build the NSEC chain over authoritative names (delegation points appear
  // as owners but their NS bit set comes from the delegation NS RRset).
  if (policy.add_nsec) {
    std::vector<dns::Name> names = zone.authoritative_names();
    for (size_t i = 0; i < names.size(); ++i) {
      const dns::Name& owner = names[i];
      const dns::Name& next = names[(i + 1) % names.size()];
      dns::NsecData nsec;
      nsec.next = next;
      for (const dns::RRset* set : zone.rrsets_at(owner))
        nsec.types.push_back(set->type);
      nsec.types.push_back(dns::RRType::NSEC);
      nsec.types.push_back(dns::RRType::RRSIG);
      std::sort(nsec.types.begin(), nsec.types.end());
      nsec.types.erase(std::unique(nsec.types.begin(), nsec.types.end()),
                       nsec.types.end());
      dns::ResourceRecord rr;
      rr.name = owner;
      rr.type = dns::RRType::NSEC;
      rr.ttl = soa_minimum;
      rr.rdata = nsec;
      zone.add(std::move(rr));
    }
  }

  // Sign every authoritative RRset (including the ZONEMD placeholder, whose
  // signature is recalculated below once the digest is patched in).
  // Delegation NS and glue are not signed.
  std::vector<const dns::RRset*> sets = zone.rrsets();
  for (const dns::RRset* set : sets) {
    if (set->type == dns::RRType::RRSIG) continue;
    bool at_apex = set->name == apex;
    if (!at_apex) {
      // Below the apex: delegation NS RRsets and glue A/AAAA are not
      // authoritative; only DS and NSEC RRsets are signed there.
      if (set->type != dns::RRType::DS && set->type != dns::RRType::NSEC)
        continue;
    }
    const ZoneSigner& signer =  // KSK signs DNSKEY only
        (set->type == dns::RRType::DNSKEY) ? ksk_signer : zsk_signer;
    dns::RrsigData sig =
        sign_rrset(*set, signer, policy, apex, cache, stats, encoder);
    dns::ResourceRecord rr;
    rr.name = set->name;
    rr.type = dns::RRType::RRSIG;
    rr.ttl = set->ttl;
    rr.rdata = sig;
    zone.add(std::move(rr));
  }

  // RFC 8976 §4.1: with the zone now signed, compute the digest (the apex
  // ZONEMD RRset and its covering RRSIG are excluded by the inclusion rules),
  // patch the real digest in, and recalculate only the ZONEMD RRSIG.
  if (policy.zonemd == SigningPolicy::ZonemdMode::Sha384) {
    auto digest = compute_zonemd_digest(zone, dns::ZonemdData::kHashSha384);
    zone.remove_rrset(apex, dns::RRType::ZONEMD);
    dns::ZonemdData zonemd;
    zonemd.serial = serial;
    zonemd.scheme = dns::ZonemdData::kSchemeSimple;
    zonemd.hash_algorithm = dns::ZonemdData::kHashSha384;
    zonemd.digest = std::move(digest);
    dns::ResourceRecord zonemd_rr;
    zonemd_rr.name = apex;
    zonemd_rr.type = dns::RRType::ZONEMD;
    zonemd_rr.ttl = 86400;
    zonemd_rr.rdata = zonemd;
    zone.add(std::move(zonemd_rr));

    const dns::RRset* apex_sigs = zone.find(apex, dns::RRType::RRSIG);
    if (apex_sigs) {
      std::vector<dns::Rdata> kept;
      uint32_t sig_ttl = apex_sigs->ttl;
      for (const auto& rdata : apex_sigs->rdatas) {
        const auto* sig = std::get_if<dns::RrsigData>(&rdata);
        if (sig && sig->type_covered == dns::RRType::ZONEMD) continue;
        kept.push_back(rdata);
      }
      zone.remove_rrset(apex, dns::RRType::RRSIG);
      for (auto& rdata : kept)
        zone.add(dns::ResourceRecord{apex, dns::RRType::RRSIG, dns::RRClass::IN,
                                     sig_ttl, std::move(rdata)});
      const dns::RRset* zonemd_set = zone.find(apex, dns::RRType::ZONEMD);
      dns::RrsigData sig = sign_rrset(*zonemd_set, zsk_signer, policy, apex, cache,
                                       stats, encoder);
      zone.add(dns::ResourceRecord{apex, dns::RRType::RRSIG, dns::RRClass::IN,
                                   zonemd_set->ttl, sig});
    }
  }
}

}  // namespace rootsim::dnssec
