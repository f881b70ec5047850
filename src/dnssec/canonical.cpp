#include "dnssec/canonical.h"

#include <algorithm>
#include <cstring>

#include "dns/codec.h"

namespace rootsim::dnssec {

void CanonicalEncoder::add_rdata(const dns::Rdata& rdata) {
  const size_t start = rdata_.size();
  dns::encode_rdata(rdata_, rdata, /*canonical=*/true);
  spans_.emplace_back(static_cast<uint32_t>(start),
                      static_cast<uint32_t>(rdata_.size() - start));
}

void CanonicalEncoder::flush_records(dns::WireWriter& out, const dns::Name& owner,
                                     dns::RRType type, dns::RRClass rclass,
                                     uint32_t ttl) {
  const uint8_t* base = rdata_.data().data();
  // RFC 4034 §6.3: RDATA compared as left-justified unsigned octet strings,
  // a missing octet sorting first — std::vector's operator< on the bytes.
  // Equal spans are equal bytes, so the unstable sort's output is unique.
  if (spans_.size() > 1)
    std::sort(spans_.begin(), spans_.end(), [base](const auto& a, const auto& b) {
      const size_t common = std::min(a.second, b.second);
      const int c = common ? std::memcmp(base + a.first, base + b.first, common) : 0;
      return c != 0 ? c < 0 : a.second < b.second;
    });
  for (const auto& [offset, length] : spans_) {
    out.put_name_canonical(owner);
    out.put_u16(static_cast<uint16_t>(type));
    out.put_u16(static_cast<uint16_t>(rclass));
    out.put_u32(ttl);
    out.put_u16(static_cast<uint16_t>(length));
    out.put_bytes({base + offset, length});
  }
  rdata_.clear();
  spans_.clear();
}

std::span<const uint8_t> CanonicalEncoder::signing_payload(
    const dns::RrsigData& rrsig_template, const dns::RRset& rrset) {
  dns::WireWriter& out = payload_;
  out.clear();
  // RRSIG RDATA with the Signature field omitted (RFC 4034 §3.1.8.1).
  out.put_u16(static_cast<uint16_t>(rrsig_template.type_covered));
  out.put_u8(rrsig_template.algorithm);
  out.put_u8(rrsig_template.labels);
  out.put_u32(rrsig_template.original_ttl);
  out.put_u32(rrsig_template.expiration);
  out.put_u32(rrsig_template.inception);
  out.put_u16(rrsig_template.key_tag);
  out.put_name_canonical(rrsig_template.signer);
  // Each RR of the set: name | type | class | OrigTTL | RDATA length | RDATA,
  // in canonical RDATA order.
  for (const auto& rdata : rrset.rdatas) add_rdata(rdata);
  flush_records(out, rrset.name, rrset.type, rrset.rclass,
                rrsig_template.original_ttl);
  return out.data();
}

std::vector<uint8_t> signing_payload(const dns::RrsigData& rrsig_template,
                                     const dns::RRset& rrset) {
  CanonicalEncoder encoder;
  const auto payload = encoder.signing_payload(rrsig_template, rrset);
  return {payload.begin(), payload.end()};
}

std::vector<uint8_t> canonical_record(const dns::ResourceRecord& rr) {
  dns::WireWriter writer;
  dns::encode_record_canonical(writer, rr);
  return writer.take();
}

}  // namespace rootsim::dnssec
