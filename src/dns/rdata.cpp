#include "dns/rdata.h"

#include <algorithm>
#include <charconv>
#include <initializer_list>

#include "crypto/encoding.h"

namespace rootsim::dns {

namespace {

// The types rrtype_from_string recognises ("ANY" maps to ANY as any unknown
// text does).
constexpr RRType kNamedTypes[] = {
    RRType::A,  RRType::NS,    RRType::CNAME, RRType::SOA,    RRType::PTR,
    RRType::MX, RRType::TXT,   RRType::AAAA,  RRType::OPT,    RRType::DS,
    RRType::RRSIG, RRType::NSEC, RRType::DNSKEY, RRType::ZONEMD, RRType::AXFR};

std::string_view type_mnemonic(RRType type) {
  switch (type) {
    case RRType::A: return "A";
    case RRType::NS: return "NS";
    case RRType::CNAME: return "CNAME";
    case RRType::SOA: return "SOA";
    case RRType::PTR: return "PTR";
    case RRType::MX: return "MX";
    case RRType::TXT: return "TXT";
    case RRType::AAAA: return "AAAA";
    case RRType::OPT: return "OPT";
    case RRType::DS: return "DS";
    case RRType::RRSIG: return "RRSIG";
    case RRType::NSEC: return "NSEC";
    case RRType::DNSKEY: return "DNSKEY";
    case RRType::ZONEMD: return "ZONEMD";
    case RRType::AXFR: return "AXFR";
    case RRType::ANY: return "ANY";
  }
  return {};
}

void append_uint(std::string& out, uint64_t value) {
  char digits[20];
  const auto result = std::to_chars(digits, digits + sizeof digits, value);
  out.append(digits, result.ptr);
}

void append_rrclass(std::string& out, RRClass rclass) {
  switch (rclass) {
    case RRClass::IN: out += "IN"; return;
    case RRClass::CH: out += "CH"; return;
    case RRClass::ANY: out += "ANY"; return;
  }
  out += "CLASS";
  append_uint(out, static_cast<uint16_t>(rclass));
}

// Space-separated decimal fields.
void append_uints(std::string& out, std::initializer_list<uint64_t> values) {
  bool first = true;
  for (uint64_t value : values) {
    if (!first) out += ' ';
    first = false;
    append_uint(out, value);
  }
}

void append_rrtype(std::string& out, RRType type) {
  if (const std::string_view mnemonic = type_mnemonic(type); !mnemonic.empty()) {
    out += mnemonic;
    return;
  }
  out += "TYPE";
  append_uint(out, static_cast<uint16_t>(type));
}

}  // namespace

std::string rrtype_to_string(RRType type) {
  std::string out;
  append_rrtype(out, type);
  return out;
}

RRType rrtype_from_string(std::string_view text) {
  auto upper = [](char c) {
    return (c >= 'a' && c <= 'z') ? static_cast<char>(c - 'a' + 'A') : c;
  };
  for (RRType type : kNamedTypes) {
    const std::string_view mnemonic = type_mnemonic(type);
    if (mnemonic.size() == text.size() &&
        std::equal(mnemonic.begin(), mnemonic.end(), text.begin(),
                   [&](char m, char c) { return m == upper(c); }))
      return type;
  }
  return RRType::ANY;
}

std::string rrclass_to_string(RRClass rclass) {
  std::string out;
  append_rrclass(out, rclass);
  return out;
}

uint16_t DnskeyData::key_tag() const {
  // RFC 4034 Appendix B: ones-complement-style sum over the RDATA.
  std::vector<uint8_t> rdata;
  rdata.push_back(static_cast<uint8_t>(flags >> 8));
  rdata.push_back(static_cast<uint8_t>(flags));
  rdata.push_back(protocol);
  rdata.push_back(algorithm);
  rdata.insert(rdata.end(), public_key.begin(), public_key.end());
  uint32_t acc = 0;
  for (size_t i = 0; i < rdata.size(); ++i)
    acc += (i & 1) ? rdata[i] : static_cast<uint32_t>(rdata[i]) << 8;
  acc += (acc >> 16) & 0xFFFF;
  return static_cast<uint16_t>(acc & 0xFFFF);
}

RRType rdata_type(const Rdata& rdata) {
  struct Visitor {
    RRType operator()(const SoaData&) const { return RRType::SOA; }
    RRType operator()(const NsData&) const { return RRType::NS; }
    RRType operator()(const CnameData&) const { return RRType::CNAME; }
    RRType operator()(const AData&) const { return RRType::A; }
    RRType operator()(const AaaaData&) const { return RRType::AAAA; }
    RRType operator()(const TxtData&) const { return RRType::TXT; }
    RRType operator()(const MxData&) const { return RRType::MX; }
    RRType operator()(const DsData&) const { return RRType::DS; }
    RRType operator()(const DnskeyData&) const { return RRType::DNSKEY; }
    RRType operator()(const RrsigData&) const { return RRType::RRSIG; }
    RRType operator()(const NsecData&) const { return RRType::NSEC; }
    RRType operator()(const ZonemdData&) const { return RRType::ZONEMD; }
    RRType operator()(const OptData&) const { return RRType::OPT; }
    RRType operator()(const GenericData& g) const {
      return static_cast<RRType>(g.type_code);
    }
  };
  return std::visit(Visitor{}, rdata);
}

void append_record_prefix(std::string& out, const Name& name, uint32_t ttl,
                          RRClass rclass, RRType type) {
  name.append_to(out);
  out += ' ';
  append_uint(out, ttl);
  out += ' ';
  append_rrclass(out, rclass);
  out += ' ';
  append_rrtype(out, type);
  out += ' ';
}

void append_rdata(std::string& out, const Rdata& rdata) {
  struct Visitor {
    std::string& out;
    void operator()(const SoaData& soa) const {
      soa.mname.append_to(out);
      out += ' ';
      soa.rname.append_to(out);
      out += ' ';
      append_uints(out, {soa.serial, soa.refresh, soa.retry, soa.expire, soa.minimum});
    }
    void operator()(const NsData& ns) const { ns.nsdname.append_to(out); }
    void operator()(const CnameData& c) const { c.target.append_to(out); }
    void operator()(const AData& a) const { out += a.address.to_string(); }
    void operator()(const AaaaData& a) const { out += a.address.to_string(); }
    void operator()(const TxtData& txt) const {
      for (size_t i = 0; i < txt.strings.size(); ++i) {
        if (i > 0) out += ' ';
        out += '"';
        for (char c : txt.strings[i]) {
          if (c == '"' || c == '\\') out += '\\';
          out += c;
        }
        out += '"';
      }
    }
    void operator()(const MxData& mx) const {
      append_uint(out, mx.preference);
      out += ' ';
      mx.exchange.append_to(out);
    }
    void operator()(const DsData& ds) const {
      append_uints(out, {ds.key_tag, ds.algorithm, ds.digest_type});
      out += ' ';
      crypto::append_hex(out, ds.digest);
    }
    void operator()(const DnskeyData& key) const {
      append_uints(out, {key.flags, key.protocol, key.algorithm});
      out += ' ';
      crypto::append_base64(out, key.public_key);
    }
    void operator()(const RrsigData& sig) const {
      append_rrtype(out, sig.type_covered);
      out += ' ';
      append_uints(out, {sig.algorithm, sig.labels, sig.original_ttl, sig.expiration,
                         sig.inception, sig.key_tag});
      out += ' ';
      sig.signer.append_to(out);
      out += ' ';
      crypto::append_base64(out, sig.signature);
    }
    void operator()(const NsecData& nsec) const {
      nsec.next.append_to(out);
      for (RRType t : nsec.types) {
        out += ' ';
        append_rrtype(out, t);
      }
    }
    void operator()(const ZonemdData& z) const {
      append_uints(out, {z.serial, z.scheme, z.hash_algorithm});
      out += ' ';
      crypto::append_hex(out, z.digest);
    }
    void operator()(const OptData& opt) const {
      out += "; udp=";
      append_uint(out, opt.udp_payload_size);
      out += opt.dnssec_ok ? " do=1" : " do=0";
    }
    void operator()(const GenericData& g) const {
      out += "\\# ";
      append_uint(out, g.bytes.size());
      out += ' ';
      crypto::append_hex(out, g.bytes);
    }
  };
  std::visit(Visitor{out}, rdata);
}

std::string rdata_to_string(const Rdata& rdata) {
  std::string out;
  append_rdata(out, rdata);
  return out;
}

std::string record_to_string(const ResourceRecord& rr) {
  std::string out;
  append_record_prefix(out, rr.name, rr.ttl, rr.rclass, rr.type);
  append_rdata(out, rr.rdata);
  return out;
}

}  // namespace rootsim::dns
