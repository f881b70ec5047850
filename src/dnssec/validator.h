// Full-zone validation from a consumer's perspective, mirroring the paper's
// §7 methodology ("we use ldnsutils to fully validate obtained zones, i.e.,
// checking ZONEMD and all RRSIG records against the root DNSKEYs").
//
// The validator reports the same failure taxonomy as the paper's Table 2:
// signature-not-yet-incepted (bad VP clocks), bogus signature (bitflips),
// signature expired (stale zone files) — plus the ZONEMD-specific verdicts
// that classify the roll-out stages.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "dns/message.h"
#include "dns/zone.h"
#include "dnssec/signer.h"
#include "dnssec/verify_memo.h"
#include "obs/obs.h"
#include "util/timeutil.h"

namespace rootsim::dnssec {

enum class ValidationStatus {
  Valid,
  SignatureNotIncepted,  ///< validation time before RRSIG inception
  SignatureExpired,      ///< validation time after RRSIG expiration
  BogusSignature,        ///< cryptographic mismatch (e.g. a bitflip)
  MissingSignature,      ///< an authoritative RRset lacks an RRSIG
  UnknownKey,            ///< RRSIG key tag matches no trust-anchor DNSKEY
};

std::string to_string(ValidationStatus status);

enum class ZonemdStatus {
  Verified,           ///< digest present and matches
  Mismatch,           ///< digest present but wrong (corruption!)
  NoZonemd,           ///< record absent (pre-2023-09-13 stage)
  UnsupportedScheme,  ///< unknown scheme or hash algorithm (private-use stage)
  SerialMismatch,     ///< ZONEMD serial != SOA serial
};

std::string to_string(ZonemdStatus status);

/// One RRSIG failure, attributable to an RRset.
struct SignatureFinding {
  ValidationStatus status = ValidationStatus::Valid;
  dns::Name owner;
  dns::RRType type_covered = dns::RRType::A;
  std::string detail;
};

/// Combined verdict for one obtained zone copy.
struct ZoneValidationResult {
  ZonemdStatus zonemd = ZonemdStatus::NoZonemd;
  std::vector<SignatureFinding> signature_failures;
  size_t rrsets_checked = 0;
  size_t signatures_checked = 0;

  bool fully_valid() const {
    return signature_failures.empty() &&
           (zonemd == ZonemdStatus::Verified || zonemd == ZonemdStatus::NoZonemd ||
            zonemd == ZonemdStatus::UnsupportedScheme);
  }
  /// The dominant failure for Table 2 bucketing; Valid if none.
  ValidationStatus dominant_failure() const;
};

/// Trust anchor set: the DNSKEYs (or just the KSK) the validator trusts.
struct TrustAnchors {
  std::vector<dns::DnskeyData> keys;
  /// Verdicts of earlier successful verifications and the per-key RSA
  /// contexts (see verify_memo.h). Every copy of an anchor set shares one
  /// memo, so a caller that keeps a set across validate_zone calls skips
  /// the RSA operation for every signature it has already verified. The
  /// memo is keyed on key content, not on `keys`, so copies may edit their
  /// key lists freely. Never null.
  std::shared_ptr<VerifyMemo> memo = std::make_shared<VerifyMemo>();

  static TrustAnchors from_zone_apex(const dns::Zone& zone);

  /// The real-world bootstrap path: the operator configures the published
  /// DS digest of the root KSK (IANA's trust anchor file), then accepts the
  /// apex DNSKEY RRset iff (a) some KSK matches the DS and (b) that KSK's
  /// RRSIG over the DNSKEY RRset verifies. Returns an empty anchor set when
  /// either check fails.
  static TrustAnchors from_ds_anchor(const dns::DsData& anchor,
                                     const dns::Zone& zone, util::UnixTime now);
};

/// Computes the DS record for a DNSKEY (RFC 4034 §5.1.4 / RFC 4509):
/// digest over canonical(owner) | DNSKEY RDATA. digest_type 2 = SHA-256,
/// 4 = SHA-384 (SHA-1 is obsolete and unsupported here).
dns::DsData make_ds(const dns::Name& owner, const dns::DnskeyData& key,
                    uint8_t digest_type = 2);

/// True if `ds` is the digest of `key` at `owner`.
bool ds_matches(const dns::Name& owner, const dns::DsData& ds,
                const dns::DnskeyData& key);

/// Validates all RRSIGs in `zone` against `anchors` at time `now`, plus the
/// ZONEMD digest. `now` is the *validator's* clock — the paper found six
/// time-related errors caused purely by skewed VP clocks. Signatures that
/// verified before under the same anchor set (any copy of it) are answered
/// from its memo; the validity window is checked against `now` every time.
/// `obs` (optional) counts outcomes: `dnssec.validations{status=...}` by
/// the Table-2 dominant verdict, `dnssec.zonemd{status=...}`, rrset/signature
/// work counters, and this call's `dnssec.verify_memo.{hits,misses,resets}`.
ZoneValidationResult validate_zone(const dns::Zone& zone,
                                   const TrustAnchors& anchors,
                                   util::UnixTime now, obs::Obs obs = {});

/// Verifies one RRSIG over one RRset against a specific key.
ValidationStatus verify_rrsig(const dns::RRset& rrset, const dns::RrsigData& sig,
                              const dns::DnskeyData& key, util::UnixTime now);

/// Resolver-side validation of a negative answer (RFC 4035 §5.4): checks
/// that an NXDOMAIN response carries an NSEC record that (a) covers the
/// queried name in canonical order and (b) verifies against the trust
/// anchors. This is what a validating resolver runs on the responses our
/// simulated roots produce.
enum class DenialStatus {
  Proven,          ///< covering NSEC present and cryptographically valid
  NoProof,         ///< no NSEC covers the name (unsigned or stripped)
  DoesNotCover,    ///< NSEC present but the name is outside its span
  BadSignature,    ///< covering NSEC's RRSIG fails
};

std::string to_string(DenialStatus status);

DenialStatus verify_nxdomain_proof(const dns::Message& response,
                                   const dns::Name& qname,
                                   const TrustAnchors& anchors,
                                   util::UnixTime now);

}  // namespace rootsim::dnssec
