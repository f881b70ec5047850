#include "dnssec/validator.h"

#include <algorithm>
#include <array>

#include "crypto/rsa.h"
#include "crypto/sha2.h"
#include "dnssec/canonical.h"
#include "util/strings.h"

namespace rootsim::dnssec {

std::string to_string(ValidationStatus status) {
  switch (status) {
    case ValidationStatus::Valid: return "valid";
    case ValidationStatus::SignatureNotIncepted: return "sig-not-incepted";
    case ValidationStatus::SignatureExpired: return "sig-expired";
    case ValidationStatus::BogusSignature: return "bogus-signature";
    case ValidationStatus::MissingSignature: return "missing-signature";
    case ValidationStatus::UnknownKey: return "unknown-key";
  }
  return "?";
}

std::string to_string(ZonemdStatus status) {
  switch (status) {
    case ZonemdStatus::Verified: return "zonemd-verified";
    case ZonemdStatus::Mismatch: return "zonemd-mismatch";
    case ZonemdStatus::NoZonemd: return "no-zonemd";
    case ZonemdStatus::UnsupportedScheme: return "zonemd-unsupported";
    case ZonemdStatus::SerialMismatch: return "zonemd-serial-mismatch";
  }
  return "?";
}

ValidationStatus ZoneValidationResult::dominant_failure() const {
  // Bucket priority mirrors the paper's Table 2 categories: a cryptographic
  // mismatch outranks timing issues (it implies corruption, not clock skew).
  bool not_incepted = false, expired = false, missing = false, unknown = false;
  for (const auto& finding : signature_failures) {
    switch (finding.status) {
      case ValidationStatus::BogusSignature: return ValidationStatus::BogusSignature;
      case ValidationStatus::SignatureNotIncepted: not_incepted = true; break;
      case ValidationStatus::SignatureExpired: expired = true; break;
      case ValidationStatus::MissingSignature: missing = true; break;
      case ValidationStatus::UnknownKey: unknown = true; break;
      case ValidationStatus::Valid: break;
    }
  }
  if (expired) return ValidationStatus::SignatureExpired;
  if (not_incepted) return ValidationStatus::SignatureNotIncepted;
  if (unknown) return ValidationStatus::UnknownKey;
  if (missing) return ValidationStatus::MissingSignature;
  return ValidationStatus::Valid;
}

TrustAnchors TrustAnchors::from_zone_apex(const dns::Zone& zone) {
  TrustAnchors anchors;
  const dns::RRset* set = zone.find(zone.origin(), dns::RRType::DNSKEY);
  if (set)
    for (const auto& rdata : set->rdatas)
      if (const auto* key = std::get_if<dns::DnskeyData>(&rdata))
        anchors.keys.push_back(*key);
  return anchors;
}

dns::DsData make_ds(const dns::Name& owner, const dns::DnskeyData& key,
                    uint8_t digest_type) {
  // RFC 4034 §5.1.4: digest(canonical owner name | DNSKEY RDATA).
  dns::WireWriter writer;
  writer.put_name_canonical(owner);
  writer.put_u16(key.flags);
  writer.put_u8(key.protocol);
  writer.put_u8(key.algorithm);
  writer.put_bytes(key.public_key);
  dns::DsData ds;
  ds.key_tag = key.key_tag();
  ds.algorithm = key.algorithm;
  ds.digest_type = digest_type;
  ds.digest = digest_type == 4 ? crypto::sha384(writer.data())
                               : crypto::sha256(writer.data());
  return ds;
}

bool ds_matches(const dns::Name& owner, const dns::DsData& ds,
                const dns::DnskeyData& key) {
  if (ds.digest_type != 2 && ds.digest_type != 4) return false;
  if (ds.key_tag != key.key_tag() || ds.algorithm != key.algorithm)
    return false;
  return make_ds(owner, key, ds.digest_type).digest == ds.digest;
}

TrustAnchors TrustAnchors::from_ds_anchor(const dns::DsData& anchor,
                                          const dns::Zone& zone,
                                          util::UnixTime now) {
  TrustAnchors anchors;
  const dns::RRset* dnskey_set = zone.find(zone.origin(), dns::RRType::DNSKEY);
  if (!dnskey_set) return anchors;
  // Find the KSK matching the configured DS.
  const dns::DnskeyData* ksk = nullptr;
  for (const auto& rdata : dnskey_set->rdatas) {
    const auto* key = std::get_if<dns::DnskeyData>(&rdata);
    if (key && ds_matches(zone.origin(), anchor, *key)) {
      ksk = key;
      break;
    }
  }
  if (!ksk) return anchors;
  // The matched KSK must have a valid RRSIG over the DNSKEY RRset.
  const dns::RRset* sigs = zone.find(zone.origin(), dns::RRType::RRSIG);
  bool dnskey_rrset_verified = false;
  if (sigs) {
    for (const auto& rdata : sigs->rdatas) {
      const auto* sig = std::get_if<dns::RrsigData>(&rdata);
      if (!sig || sig->type_covered != dns::RRType::DNSKEY) continue;
      if (sig->key_tag != ksk->key_tag()) continue;
      if (verify_rrsig(*dnskey_set, *sig, *ksk, now) ==
          ValidationStatus::Valid) {
        dnskey_rrset_verified = true;
        break;
      }
    }
  }
  if (!dnskey_rrset_verified) return anchors;
  // The whole apex key set is now trusted (KSK vouches for the ZSKs).
  for (const auto& rdata : dnskey_set->rdatas)
    if (const auto* key = std::get_if<dns::DnskeyData>(&rdata))
      anchors.keys.push_back(*key);
  return anchors;
}

namespace {

crypto::RsaHash hash_for(const dns::RrsigData& sig) {
  return sig.algorithm == 10 ? crypto::RsaHash::Sha512 : crypto::RsaHash::Sha256;
}

// H(payload) under the RRSIG's hash, written into `out`.
std::span<const uint8_t> payload_digest(
    crypto::RsaHash hash, std::span<const uint8_t> payload,
    std::array<uint8_t, crypto::Sha512::kDigestSize>& out) {
  if (hash == crypto::RsaHash::Sha512) {
    crypto::Sha512 h;
    h.update(payload);
    out = h.finish();
    return out;
  }
  crypto::Sha256 h;
  h.update(payload);
  const auto digest = h.finish();
  std::copy(digest.begin(), digest.end(), out.begin());
  return std::span<const uint8_t>(out).first(digest.size());
}

// The one verify core. The validity window is checked against `now` first,
// on every call; then the signing payload is encoded and hashed once, and
// that digest serves both the memo lookup and, on a miss, the RSA
// operation. Only a signature that verifies is memoized.
ValidationStatus verify_signature(const dns::RRset& rrset,
                                  const dns::RrsigData& sig,
                                  const VerifyMemo::Key& key, VerifyMemo* memo,
                                  util::UnixTime now, CanonicalEncoder& encoder,
                                  VerifyMemoStats* stats) {
  // RFC 4034 §3.1.5: serial-number-style comparison is unnecessary here; the
  // campaign lives comfortably inside 32-bit time.
  if (now < static_cast<util::UnixTime>(sig.inception))
    return ValidationStatus::SignatureNotIncepted;
  if (now > static_cast<util::UnixTime>(sig.expiration))
    return ValidationStatus::SignatureExpired;
  const crypto::RsaHash hash = hash_for(sig);
  std::array<uint8_t, crypto::Sha512::kDigestSize> digest_bytes;
  const std::span<const uint8_t> digest =
      payload_digest(hash, encoder.signing_payload(sig, rrset), digest_bytes);
  const VerifyMemo::Verification verification{key.id, sig.algorithm, digest,
                                              sig.signature};
  if (memo && memo->contains(verification, stats)) return ValidationStatus::Valid;
  if (!key.ctx->verify_digest(hash, digest, sig.signature))
    return ValidationStatus::BogusSignature;
  if (memo) memo->insert(verification, stats);
  return ValidationStatus::Valid;
}

}  // namespace

ValidationStatus verify_rrsig(const dns::RRset& rrset, const dns::RrsigData& sig,
                              const dns::DnskeyData& key, util::UnixTime now) {
  crypto::RsaVerifyContext ctx(
      crypto::RsaPublicKey::from_dnskey_wire(key.public_key));
  CanonicalEncoder encoder;
  return verify_signature(rrset, sig, VerifyMemo::Key{0, &ctx}, nullptr, now,
                          encoder, nullptr);
}

std::string to_string(DenialStatus status) {
  switch (status) {
    case DenialStatus::Proven: return "denial-proven";
    case DenialStatus::NoProof: return "no-proof";
    case DenialStatus::DoesNotCover: return "nsec-does-not-cover";
    case DenialStatus::BadSignature: return "nsec-bad-signature";
  }
  return "?";
}

DenialStatus verify_nxdomain_proof(const dns::Message& response,
                                   const dns::Name& qname,
                                   const TrustAnchors& anchors,
                                   util::UnixTime now) {
  // Collect NSEC records and their covering RRSIGs from the authority
  // section.
  struct Candidate {
    dns::RRset nsec_set;
    std::vector<dns::RrsigData> sigs;
  };
  std::vector<Candidate> candidates;
  for (const auto& rr : response.authority) {
    if (rr.type != dns::RRType::NSEC) continue;
    Candidate c;
    c.nsec_set.name = rr.name;
    c.nsec_set.type = dns::RRType::NSEC;
    c.nsec_set.rclass = rr.rclass;
    c.nsec_set.ttl = rr.ttl;
    c.nsec_set.rdatas.push_back(rr.rdata);
    for (const auto& other : response.authority) {
      const auto* sig = std::get_if<dns::RrsigData>(&other.rdata);
      if (sig && sig->type_covered == dns::RRType::NSEC && other.name == rr.name)
        c.sigs.push_back(*sig);
    }
    candidates.push_back(std::move(c));
  }
  if (candidates.empty()) return DenialStatus::NoProof;

  for (const Candidate& candidate : candidates) {
    const auto* nsec =
        std::get_if<dns::NsecData>(&candidate.nsec_set.rdatas.front());
    if (!nsec) continue;
    bool after_owner = candidate.nsec_set.name.canonical_compare(qname) < 0;
    bool before_next =
        qname.canonical_compare(nsec->next) < 0 || nsec->next.is_root();
    if (!(after_owner && before_next)) continue;  // try another NSEC
    // Covering NSEC found: it must verify.
    VerifyMemo& memo = *anchors.memo;
    CanonicalEncoder encoder;
    for (const dns::RrsigData& sig : candidate.sigs) {
      for (const auto& key : anchors.keys) {
        if (key.key_tag() != sig.key_tag || key.algorithm != sig.algorithm)
          continue;
        if (verify_signature(candidate.nsec_set, sig, memo.intern(key), &memo,
                             now, encoder, nullptr) == ValidationStatus::Valid)
          return DenialStatus::Proven;
      }
    }
    return DenialStatus::BadSignature;
  }
  return DenialStatus::DoesNotCover;
}

namespace {

ZonemdStatus check_zonemd(const dns::Zone& zone) {
  const dns::RRset* set = zone.find(zone.origin(), dns::RRType::ZONEMD);
  if (!set || set->rdatas.empty()) return ZonemdStatus::NoZonemd;
  // Per RFC 8976 §4: a verifier succeeds if any supported ZONEMD record
  // verifies; unsupported schemes/algorithms alone mean "cannot verify".
  bool any_supported = false;
  for (const auto& rdata : set->rdatas) {
    const auto* zonemd = std::get_if<dns::ZonemdData>(&rdata);
    if (!zonemd) continue;
    if (zonemd->scheme != dns::ZonemdData::kSchemeSimple) continue;
    if (zonemd->hash_algorithm != dns::ZonemdData::kHashSha384 &&
        zonemd->hash_algorithm != dns::ZonemdData::kHashSha512)
      continue;
    any_supported = true;
    if (zonemd->serial != zone.serial()) return ZonemdStatus::SerialMismatch;
    auto digest = compute_zonemd_digest(zone, zonemd->hash_algorithm);
    if (digest == zonemd->digest) return ZonemdStatus::Verified;
  }
  return any_supported ? ZonemdStatus::Mismatch : ZonemdStatus::UnsupportedScheme;
}

}  // namespace

ZoneValidationResult validate_zone(const dns::Zone& zone,
                                   const TrustAnchors& anchors,
                                   util::UnixTime now, obs::Obs obs) {
  ZoneValidationResult result;
  result.zonemd = check_zonemd(zone);

  // Per-anchor precomputation: the key tag (a wire-form checksum) once per
  // call, and the RSA Montgomery context once per memo — a full-zone pass
  // verifies hundreds of RRSIGs against the same two keys.
  struct AnchorKey {
    const dns::DnskeyData* key;
    uint16_t tag;
    VerifyMemo::Key handle;
  };
  VerifyMemo& memo = *anchors.memo;
  std::vector<AnchorKey> anchor_keys;
  anchor_keys.reserve(anchors.keys.size());
  for (const auto& key : anchors.keys)
    anchor_keys.push_back(AnchorKey{&key, key.key_tag(), memo.intern(key)});
  CanonicalEncoder encoder;  // reused across every signature checked below
  VerifyMemoStats memo_stats;

  const dns::Name& apex = zone.origin();
  for (const dns::RRset* set : zone.rrsets()) {
    if (set->type == dns::RRType::RRSIG) continue;
    bool at_apex = set->name == apex;
    bool signable =
        at_apex || set->type == dns::RRType::DS || set->type == dns::RRType::NSEC;
    if (!signable) continue;  // delegations and glue are unsigned by design
    ++result.rrsets_checked;

    // Find RRSIG(s) covering this set.
    const dns::RRset* sig_set = zone.find(set->name, dns::RRType::RRSIG);
    std::vector<const dns::RrsigData*> covering;
    if (sig_set)
      for (const auto& rdata : sig_set->rdatas)
        if (const auto* sig = std::get_if<dns::RrsigData>(&rdata))
          if (sig->type_covered == set->type) covering.push_back(sig);
    if (covering.empty()) {
      result.signature_failures.push_back(
          {ValidationStatus::MissingSignature, set->name, set->type, "no RRSIG"});
      continue;
    }

    for (const dns::RrsigData* sig : covering) {
      ++result.signatures_checked;
      // Match the key by tag and algorithm among the trust anchors.
      const AnchorKey* matching_key = nullptr;
      for (const auto& anchor_key : anchor_keys)
        if (anchor_key.tag == sig->key_tag &&
            anchor_key.key->algorithm == sig->algorithm) {
          matching_key = &anchor_key;
          break;
        }
      if (!matching_key) {
        result.signature_failures.push_back(
            {ValidationStatus::UnknownKey, set->name, set->type,
             util::format("key tag %u not in trust anchors", sig->key_tag)});
        continue;
      }
      ValidationStatus status = verify_signature(
          *set, *sig, matching_key->handle, &memo, now, encoder, &memo_stats);
      if (status != ValidationStatus::Valid) {
        result.signature_failures.push_back(
            {status, set->name, set->type,
             util::format("RRSIG(%s) over %s",
                          rrtype_to_string(set->type).c_str(),
                          set->name.to_string().c_str())});
      }
    }
  }
  if (obs.metrics) {
    obs.count("dnssec.validations",
              {{"status", to_string(result.dominant_failure())}});
    obs.count("dnssec.zonemd", {{"status", to_string(result.zonemd)}});
    obs.count("dnssec.rrsets_checked", result.rrsets_checked);
    obs.count("dnssec.signatures_checked", result.signatures_checked);
    obs.count("dnssec.verify_memo.hits", memo_stats.hits);
    obs.count("dnssec.verify_memo.misses", memo_stats.misses);
    obs.count("dnssec.verify_memo.resets", memo_stats.resets);
  }
  return result;
}

}  // namespace rootsim::dnssec
