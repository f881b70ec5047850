// Encoding/decoding of full resource records (owner, type, class, TTL,
// RDLENGTH, RDATA) to and from wire format (RFC 1035 §4.1.3).
//
// `canonical` mode implements RFC 4034 §6.2/6.3: owner and embedded names
// lower-cased and uncompressed — the form DNSSEC signatures and ZONEMD
// digests are computed over.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "dns/rdata.h"
#include "dns/wire.h"

namespace rootsim::dns {

/// Appends one record. `compress` enables name compression in owner and
/// compressible RDATA names (NS/SOA/CNAME/MX/PTR per RFC 3597 §4).
void encode_record(WireWriter& writer, const ResourceRecord& rr,
                   bool compress = true);

/// Appends a record in DNSSEC canonical form (lower-case, no compression).
void encode_record_canonical(WireWriter& writer, const ResourceRecord& rr);

/// Encodes only the RDATA (no owner/type/class/ttl/rdlength); used for key
/// tags and digest computations. Canonical form when `canonical` is set.
std::vector<uint8_t> encode_rdata(const Rdata& rdata, bool canonical);

/// Appends the RDATA (uncompressed) to `writer`: the allocation-free form
/// for callers that encode many RDATAs into one reused buffer.
void encode_rdata(WireWriter& writer, const Rdata& rdata, bool canonical);

/// Reads one record at the reader's position. Returns nullopt on malformed
/// data (reader will be !ok()).
std::optional<ResourceRecord> decode_record(WireReader& reader);

/// Decodes RDATA of the given type from a span (no compression context, so
/// compressed pointers inside are rejected). Used for detached RDATA blobs.
std::optional<Rdata> decode_rdata(RRType type, std::span<const uint8_t> data);

}  // namespace rootsim::dns
