// Resource record types and typed RDATA (RFC 1035, 4034, 8976).
//
// Covers exactly the types the root zone and the paper's measurement use:
// SOA/NS/A/AAAA/TXT for queries and delegations, DS/DNSKEY/RRSIG/NSEC for
// DNSSEC, ZONEMD (type 63) for the RFC 8976 roll-out under study, OPT for
// EDNS, plus a raw fallback so unknown types round-trip unharmed (RFC 3597).
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "dns/name.h"
#include "util/ip.h"

namespace rootsim::dns {

/// Record type (subset + RFC 3597 fallback for the rest).
enum class RRType : uint16_t {
  A = 1,
  NS = 2,
  CNAME = 5,
  SOA = 6,
  PTR = 12,
  MX = 15,
  TXT = 16,
  AAAA = 28,
  OPT = 41,
  DS = 43,
  RRSIG = 46,
  NSEC = 47,
  DNSKEY = 48,
  ZONEMD = 63,
  AXFR = 252,
  ANY = 255,
};

/// Class: IN for everything except the CHAOS-class identity queries
/// (hostname.bind / id.server / version.bind / version.server) the
/// measurement script sends to identify anycast instances.
enum class RRClass : uint16_t {
  IN = 1,
  CH = 3,
  ANY = 255,
};

std::string rrtype_to_string(RRType type);
/// Case-insensitive; returns ANY on unknown. Does not allocate.
RRType rrtype_from_string(std::string_view text);
std::string rrclass_to_string(RRClass rclass);

struct SoaData {
  Name mname;
  Name rname;
  uint32_t serial = 0;
  uint32_t refresh = 0;
  uint32_t retry = 0;
  uint32_t expire = 0;
  uint32_t minimum = 0;
  bool operator==(const SoaData&) const = default;
};

struct NsData {
  Name nsdname;
  bool operator==(const NsData&) const = default;
};

struct CnameData {
  Name target;
  bool operator==(const CnameData&) const = default;
};

struct AData {
  util::IpAddress address;  // must be IPv4
  bool operator==(const AData&) const = default;
};

struct AaaaData {
  util::IpAddress address;  // must be IPv6
  bool operator==(const AaaaData&) const = default;
};

struct TxtData {
  std::vector<std::string> strings;  // each <= 255 octets
  bool operator==(const TxtData&) const = default;
};

struct MxData {
  uint16_t preference = 0;
  Name exchange;
  bool operator==(const MxData&) const = default;
};

struct DsData {
  uint16_t key_tag = 0;
  uint8_t algorithm = 0;
  uint8_t digest_type = 0;
  std::vector<uint8_t> digest;
  bool operator==(const DsData&) const = default;
};

struct DnskeyData {
  uint16_t flags = 0;  // 256 = ZSK, 257 = KSK (SEP bit)
  uint8_t protocol = 3;
  uint8_t algorithm = 0;  // 8 = RSASHA256, 10 = RSASHA512
  std::vector<uint8_t> public_key;

  /// RFC 4034 Appendix B key tag over the wire-format RDATA.
  uint16_t key_tag() const;
  bool is_ksk() const { return flags & 0x0001; }  // SEP bit
  bool operator==(const DnskeyData&) const = default;
};

struct RrsigData {
  RRType type_covered = RRType::A;
  uint8_t algorithm = 0;
  uint8_t labels = 0;
  uint32_t original_ttl = 0;
  uint32_t expiration = 0;  // 32-bit POSIX time (RFC 4034 §3.1.5)
  uint32_t inception = 0;
  uint16_t key_tag = 0;
  Name signer;
  std::vector<uint8_t> signature;
  bool operator==(const RrsigData&) const = default;
};

struct NsecData {
  Name next;
  std::vector<RRType> types;  // sorted ascending, deduplicated
  bool operator==(const NsecData&) const = default;
};

/// RFC 8976. scheme 1 = SIMPLE; hash 1 = SHA-384, 2 = SHA-512. The paper also
/// observes the roll-out's first phase using a private-use hash algorithm
/// (240..255 range), which we model as `kPrivateHashAlgorithm`.
struct ZonemdData {
  uint32_t serial = 0;
  uint8_t scheme = 1;
  uint8_t hash_algorithm = 1;
  std::vector<uint8_t> digest;

  static constexpr uint8_t kSchemeSimple = 1;
  static constexpr uint8_t kHashSha384 = 1;
  static constexpr uint8_t kHashSha512 = 2;
  static constexpr uint8_t kPrivateHashAlgorithm = 240;
  bool operator==(const ZonemdData&) const = default;
};

struct OptData {
  uint16_t udp_payload_size = 1232;
  uint8_t extended_rcode = 0;
  uint8_t version = 0;
  bool dnssec_ok = false;
  bool operator==(const OptData&) const = default;
};

/// RFC 3597 opaque RDATA for types we do not model.
struct GenericData {
  uint16_t type_code = 0;
  std::vector<uint8_t> bytes;
  bool operator==(const GenericData&) const = default;
};

using Rdata = std::variant<SoaData, NsData, CnameData, AData, AaaaData, TxtData,
                           MxData, DsData, DnskeyData, RrsigData, NsecData,
                           ZonemdData, OptData, GenericData>;

/// The RRType a given Rdata value encodes as.
RRType rdata_type(const Rdata& rdata);

/// A full resource record.
struct ResourceRecord {
  Name name;
  RRType type = RRType::A;
  RRClass rclass = RRClass::IN;
  uint32_t ttl = 0;
  Rdata rdata;

  bool operator==(const ResourceRecord&) const = default;
};

/// Presentation format of the RDATA portion (zone-file right-hand side).
std::string rdata_to_string(const Rdata& rdata);

/// Full presentation line: "name ttl class type rdata".
std::string record_to_string(const ResourceRecord& rr);

/// The appenders behind the two functions above, for printers that write
/// many records into one buffer. A line is the prefix "name ttl class type "
/// (shared by every record of an RRset) followed by the RDATA.
void append_record_prefix(std::string& out, const Name& name, uint32_t ttl,
                          RRClass rclass, RRType type);
void append_rdata(std::string& out, const Rdata& rdata);

}  // namespace rootsim::dns
