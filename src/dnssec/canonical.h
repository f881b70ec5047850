// DNSSEC canonical form and ordering (RFC 4034 §6).
//
// Signatures (RFC 4034 §3.1.8.1) and ZONEMD digests (RFC 8976 §3.3) are both
// computed over RRsets serialized in canonical form: owner names lower-cased
// and uncompressed, RDATA in canonical form, and the RRs of an RRset sorted
// by their canonical RDATA byte strings.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "dns/rdata.h"
#include "dns/wire.h"
#include "dns/zone.h"

namespace rootsim::dnssec {

/// Encodes RRsets in canonical form in one pass: each RDATA is encoded once
/// into a reused scratch buffer and the canonical sort permutes spans of
/// that buffer, so neither the Rdata values nor their encodings are copied.
/// Holding one encoder across many RRsets (a whole-zone validation, a
/// ZONEMD digest, a zone signing) makes the encoding allocation-free once
/// the buffers have grown. Not thread-safe; use one per thread.
class CanonicalEncoder {
 public:
  /// Encodes one RDATA of the RRset being assembled.
  void add_rdata(const dns::Rdata& rdata);

  /// Appends every added RDATA to `out` as a full RR (owner | type | class
  /// | `ttl` | RDLENGTH | RDATA), in canonical RDATA order, and starts the
  /// next RRset.
  void flush_records(dns::WireWriter& out, const dns::Name& owner,
                     dns::RRType type, dns::RRClass rclass, uint32_t ttl);

  /// The bytes signing_payload() returns, in a buffer the encoder reuses:
  /// valid until the next call on this encoder.
  std::span<const uint8_t> signing_payload(const dns::RrsigData& rrsig_template,
                                           const dns::RRset& rrset);

 private:
  dns::WireWriter rdata_;
  std::vector<std::pair<uint32_t, uint32_t>> spans_;  // (offset, length) in rdata_
  dns::WireWriter payload_;
};

/// The exact byte string RRSIG(RRset) signatures cover:
///   RRSIG_RDATA (minus signature) || canonical RRs, sorted.
/// The caller provides the RRSIG fields already filled in (except signature).
std::vector<uint8_t> signing_payload(const dns::RrsigData& rrsig_template,
                                     const dns::RRset& rrset);

/// Full canonical wire form of one RR (owner/type/class/ttl/rdlength/rdata),
/// used by ZONEMD hashing.
std::vector<uint8_t> canonical_record(const dns::ResourceRecord& rr);

}  // namespace rootsim::dnssec
