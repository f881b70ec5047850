#include "dns/zone.h"

#include <algorithm>
#include <charconv>
#include <span>

#include "crypto/encoding.h"
#include "util/strings.h"

namespace rootsim::dns {

bool RRset::operator==(const RRset& other) const {
  if (!(name == other.name) || type != other.type || rclass != other.rclass ||
      ttl != other.ttl || rdatas.size() != other.rdatas.size())
    return false;
  auto multiplicity = [](const std::vector<Rdata>& haystack, const Rdata& x) {
    return std::count(haystack.begin(), haystack.end(), x);
  };
  for (const auto& rdata : rdatas)
    if (multiplicity(rdatas, rdata) != multiplicity(other.rdatas, rdata))
      return false;
  return true;
}

std::vector<ResourceRecord> RRset::to_records() const {
  std::vector<ResourceRecord> out;
  out.reserve(rdatas.size());
  for (const auto& rdata : rdatas)
    out.push_back(ResourceRecord{name, type, rclass, ttl, rdata});
  return out;
}

void Zone::add(ResourceRecord rr) {
  // In canonical order a record either joins the last RRset or starts a new
  // one after it, so only out-of-order records pay for a tree search.
  auto pos = sets_.end();
  bool found = false;
  if (!sets_.empty()) {
    const auto last = std::prev(pos);
    const int order = Key::compare(rr.name, rr.type, last->first);
    if (order == 0) {
      pos = last;
      found = true;
    } else if (order < 0) {
      pos = sets_.lower_bound(Key{rr.name, rr.type});
      found = Key::compare(rr.name, rr.type, pos->first) == 0;
    }
  }
  if (!found) {
    Key key{rr.name, rr.type};  // copied before the RRset takes the name
    pos = sets_.emplace_hint(pos, std::move(key),
                             RRset{std::move(rr.name), rr.type, rr.rclass, rr.ttl, {}});
  }
  auto& rdatas = pos->second.rdatas;
  if (std::find(rdatas.begin(), rdatas.end(), rr.rdata) == rdatas.end())
    rdatas.push_back(std::move(rr.rdata));
}

bool Zone::remove_rrset(const Name& name, RRType type) {
  return sets_.erase(Key{name, type}) > 0;
}

bool Zone::remove(const ResourceRecord& rr) {
  auto it = sets_.find(Key{rr.name, rr.type});
  if (it == sets_.end()) return false;
  auto& rdatas = it->second.rdatas;
  auto pos = std::find(rdatas.begin(), rdatas.end(), rr.rdata);
  if (pos == rdatas.end()) return false;
  rdatas.erase(pos);
  if (rdatas.empty()) sets_.erase(it);
  return true;
}

const RRset* Zone::find(const Name& name, RRType type) const {
  auto it = sets_.find(Key{name, type});
  return it == sets_.end() ? nullptr : &it->second;
}

std::vector<const RRset*> Zone::rrsets() const {
  std::vector<const RRset*> out;
  out.reserve(sets_.size());
  for (const auto& [key, set] : sets_) out.push_back(&set);
  return out;
}

std::vector<const RRset*> Zone::rrsets_at(const Name& name) const {
  std::vector<const RRset*> out;
  for (const auto& [key, set] : sets_)
    if (key.name == name) out.push_back(&set);
  return out;
}

std::optional<SoaData> Zone::soa() const {
  const RRset* set = find(origin_, RRType::SOA);
  if (!set || set->rdatas.empty()) return std::nullopt;
  if (const auto* soa = std::get_if<SoaData>(&set->rdatas.front())) return *soa;
  return std::nullopt;
}

uint32_t Zone::serial() const {
  auto s = soa();
  return s ? s->serial : 0;
}

size_t Zone::record_count() const {
  size_t count = 0;
  for (const auto& [key, set] : sets_) count += set.rdatas.size();
  return count;
}

bool Zone::contains_name(const Name& name) const {
  for (const auto& [key, set] : sets_)
    if (key.name == name) return true;
  return false;
}

std::vector<Name> Zone::authoritative_names() const {
  std::vector<Name> out;
  for (const auto& [key, set] : sets_) {
    if (out.empty() || !(out.back() == key.name)) out.push_back(key.name);
  }
  return out;
}

std::vector<ResourceRecord> Zone::axfr_records() const {
  std::vector<ResourceRecord> out;
  const RRset* soa_set = find(origin_, RRType::SOA);
  if (!soa_set || soa_set->rdatas.empty()) return out;
  ResourceRecord soa_rr{soa_set->name, RRType::SOA, soa_set->rclass, soa_set->ttl,
                        soa_set->rdatas.front()};
  out.push_back(soa_rr);
  for (const auto& [key, set] : sets_) {
    if (key.name == origin_ && key.type == RRType::SOA) continue;
    for (const auto& record : set.to_records()) out.push_back(record);
  }
  out.push_back(soa_rr);
  return out;
}

std::optional<Zone> Zone::from_axfr(const std::vector<ResourceRecord>& records,
                                    const Name& origin) {
  if (records.size() < 2) return std::nullopt;
  const ResourceRecord& first = records.front();
  const ResourceRecord& last = records.back();
  if (first.type != RRType::SOA || last.type != RRType::SOA) return std::nullopt;
  if (!(first.name == origin) || !(first == last)) return std::nullopt;
  Zone zone(origin);
  for (size_t i = 0; i + 1 < records.size(); ++i) zone.add(records[i]);
  return zone;
}

std::string Zone::to_master_file() const {
  std::string out;
  // The root zone prints about 90 octets a record; a zone of longer lines
  // grows the buffer once or twice.
  out.reserve(96 * record_count() + 64);
  out += "$ORIGIN ";
  origin_.append_to(out);
  out += '\n';
  std::string prefix;  // "owner ttl class type ", shared by the RRset
  for (const auto& [key, set] : sets_) {
    prefix.clear();
    append_record_prefix(prefix, set.name, set.ttl, set.rclass, set.type);
    for (const auto& rdata : set.rdatas) {
      out += prefix;
      append_rdata(out, rdata);
      out += '\n';
    }
  }
  return out;
}

namespace {

bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r';
}

// Splits a zone-file line into tokens, honoring "quoted strings" and
// ;comments. Tokens are views into `line`. A quoted token keeps its opening
// quote as a marker (so TXT keeps empty strings); one holding escapes is
// unescaped into `scratch`, which is reserved to the line's length so the
// views into it stay valid. Returns false on an unterminated string.
bool tokenize_zone_line(std::string_view line, std::vector<std::string_view>& tokens,
                        std::string& scratch) {
  tokens.clear();
  scratch.clear();
  size_t i = 0;
  while (i < line.size()) {
    const char c = line[i];
    if (c == ';') break;
    if (is_space(c)) {
      ++i;
      continue;
    }
    const size_t start = i;
    if (c != '"') {
      while (i < line.size() && !is_space(line[i]) && line[i] != ';') ++i;
      tokens.push_back(line.substr(start, i - start));
      continue;
    }
    const size_t close = line.find_first_of("\"\\", start + 1);
    if (close != std::string_view::npos && line[close] == '"') {
      tokens.push_back(line.substr(start, close - start));
      i = close + 1;
      continue;
    }
    if (scratch.empty()) scratch.reserve(line.size());
    const size_t token_start = scratch.size();
    scratch += '"';
    bool closed = false;
    for (++i; i < line.size();) {
      if (line[i] == '\\' && i + 1 < line.size()) {
        scratch += line[i + 1];
        i += 2;
        continue;
      }
      if (line[i] == '"') {
        ++i;
        closed = true;
        break;
      }
      scratch += line[i++];
    }
    if (!closed) return false;
    tokens.push_back(std::string_view(scratch).substr(token_start));
  }
  return true;
}

std::optional<uint32_t> parse_u32(std::string_view s) {
  uint32_t value = 0;
  const char* end = s.data() + s.size();
  const auto result = std::from_chars(s.data(), end, value);
  if (result.ec != std::errc() || result.ptr != end) return std::nullopt;
  return value;
}

std::optional<Name> parse_relative_name(std::string_view token, const Name& origin) {
  if (token == "@") return origin;
  auto parsed = Name::parse(token);
  if (!parsed || token.back() == '.') return parsed;
  // Relative: append origin.
  std::vector<std::string> labels = parsed->labels();
  labels.insert(labels.end(), origin.labels().begin(), origin.labels().end());
  return Name::from_labels(std::move(labels));
}

// The base64 field of DNSKEY and RRSIG, which may span several tokens.
std::optional<std::vector<uint8_t>> parse_base64_field(
    std::span<const std::string_view> parts, std::string& joined) {
  if (parts.size() == 1) return crypto::from_base64(parts[0]);
  joined.clear();
  for (std::string_view part : parts) joined += part;
  return crypto::from_base64(joined);
}

}  // namespace

std::optional<Zone> Zone::parse_master_file(std::string_view text,
                                            std::string* error) {
  size_t line_number = 0;
  auto fail = [&](std::string_view message) -> std::optional<Zone> {
    if (error)
      *error = util::format("line %zu: %.*s", line_number,
                            static_cast<int>(message.size()), message.data());
    return std::nullopt;
  };
  auto quoted = [](const char* what, std::string_view token) {
    return util::format("%s '%.*s'", what, static_cast<int>(token.size()), token.data());
  };
  Name origin;  // default: root
  uint32_t default_ttl = 86400;
  Zone zone;
  std::optional<Name> soa_owner;
  Name owner;
  bool have_owner = false;
  // The owner token `owner` was parsed from, when it is a view into `text`:
  // a line repeating it reuses `owner` instead of parsing it again.
  std::string_view owner_token;
  std::vector<std::string_view> tokens;
  std::string scratch, joined;

  for (size_t pos = 0; pos <= text.size();) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    const std::string_view raw_line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_number;
    if (!tokenize_zone_line(raw_line, tokens, scratch)) return fail("unterminated string");
    if (tokens.empty()) continue;
    if (tokens[0] == "$ORIGIN") {
      if (tokens.size() < 2) return fail("$ORIGIN missing argument");
      auto parsed = Name::parse(tokens[1]);
      if (!parsed) return fail("$ORIGIN bad name");
      origin = std::move(*parsed);
      owner_token = {};  // relative owners now resolve differently
      continue;
    }
    if (tokens[0] == "$TTL") {
      if (tokens.size() < 2) return fail("$TTL missing argument");
      auto ttl = parse_u32(tokens[1]);
      if (!ttl) return fail("$TTL bad value");
      default_ttl = *ttl;
      continue;
    }

    size_t cursor = 0;
    if (is_space(raw_line[0])) {
      if (!have_owner) return fail("no previous owner");
    } else {
      const std::string_view token = tokens[cursor++];
      if (token != owner_token) {
        auto parsed = parse_relative_name(token, origin);
        if (!parsed) return fail("bad owner name");
        owner = std::move(*parsed);
        have_owner = true;
        owner_token = token[0] == '"' ? std::string_view() : token;
      }
    }

    // [TTL] [class] type — TTL and class may appear in either order.
    uint32_t ttl = default_ttl;
    RRClass rclass = RRClass::IN;
    for (int pass = 0; pass < 2 && cursor < tokens.size(); ++pass) {
      if (auto maybe_ttl = parse_u32(tokens[cursor])) {
        ttl = *maybe_ttl;
        ++cursor;
      } else if (tokens[cursor] == "IN" || tokens[cursor] == "CH") {
        rclass = tokens[cursor] == "IN" ? RRClass::IN : RRClass::CH;
        ++cursor;
      }
    }
    if (cursor >= tokens.size()) return fail("missing type");
    const std::string_view type_token = tokens[cursor++];
    RRType type = rrtype_from_string(type_token);
    if (type == RRType::ANY)
      return fail(quoted("unsupported type", type_token));
    const std::span<const std::string_view> args(tokens.data() + cursor,
                                                 tokens.size() - cursor);
    auto need = [&](size_t count) { return args.size() >= count; };
    Rdata rdata;
    switch (type) {
      case RRType::SOA: {
        if (!need(7)) return fail("SOA needs 7 fields");
        auto mname = parse_relative_name(args[0], origin);
        auto rname = parse_relative_name(args[1], origin);
        auto serial = parse_u32(args[2]);
        auto refresh = parse_u32(args[3]);
        auto retry = parse_u32(args[4]);
        auto expire = parse_u32(args[5]);
        auto minimum = parse_u32(args[6]);
        if (!mname || !rname || !serial || !refresh || !retry || !expire || !minimum)
          return fail("bad SOA");
        rdata = SoaData{std::move(*mname), std::move(*rname), *serial, *refresh,
                        *retry, *expire, *minimum};
        if (!soa_owner) soa_owner = owner;
        break;
      }
      case RRType::NS: {
        if (!need(1)) return fail("NS needs a name");
        auto target = parse_relative_name(args[0], origin);
        if (!target) return fail("bad NS target");
        rdata = NsData{std::move(*target)};
        break;
      }
      case RRType::CNAME: {
        if (!need(1)) return fail("CNAME needs a name");
        auto target = parse_relative_name(args[0], origin);
        if (!target) return fail("bad CNAME target");
        rdata = CnameData{std::move(*target)};
        break;
      }
      case RRType::A: {
        if (!need(1)) return fail("A needs an address");
        auto addr = util::IpAddress::parse(args[0]);
        if (!addr || !addr->is_v4()) return fail("bad A address");
        rdata = AData{*addr};
        break;
      }
      case RRType::AAAA: {
        if (!need(1)) return fail("AAAA needs an address");
        auto addr = util::IpAddress::parse(args[0]);
        if (!addr || !addr->is_v6()) return fail("bad AAAA address");
        rdata = AaaaData{*addr};
        break;
      }
      case RRType::TXT: {
        TxtData txt;
        txt.strings.reserve(args.size());
        for (std::string_view arg : args)
          txt.strings.emplace_back(arg[0] == '"' ? arg.substr(1) : arg);
        rdata = std::move(txt);
        break;
      }
      case RRType::MX: {
        if (!need(2)) return fail("MX needs 2 fields");
        auto pref = parse_u32(args[0]);
        auto target = parse_relative_name(args[1], origin);
        if (!pref || *pref > 0xFFFF || !target) return fail("bad MX");
        rdata = MxData{static_cast<uint16_t>(*pref), std::move(*target)};
        break;
      }
      case RRType::DS: {
        if (!need(4)) return fail("DS needs 4 fields");
        auto tag = parse_u32(args[0]);
        auto alg = parse_u32(args[1]);
        auto dt = parse_u32(args[2]);
        auto digest = crypto::from_hex(args[3]);
        if (!tag || *tag > 0xFFFF || !alg || *alg > 255 || !dt || *dt > 255 || !digest)
          return fail("bad DS");
        rdata = DsData{static_cast<uint16_t>(*tag), static_cast<uint8_t>(*alg),
                       static_cast<uint8_t>(*dt), std::move(*digest)};
        break;
      }
      case RRType::DNSKEY: {
        if (!need(4)) return fail("DNSKEY needs 4 fields");
        auto flags = parse_u32(args[0]);
        auto proto = parse_u32(args[1]);
        auto alg = parse_u32(args[2]);
        auto key_bytes = parse_base64_field(args.subspan(3), joined);
        if (!flags || *flags > 0xFFFF || !proto || *proto > 255 || !alg ||
            *alg > 255 || !key_bytes)
          return fail("bad DNSKEY");
        rdata = DnskeyData{static_cast<uint16_t>(*flags), static_cast<uint8_t>(*proto),
                           static_cast<uint8_t>(*alg), std::move(*key_bytes)};
        break;
      }
      case RRType::RRSIG: {
        if (!need(9)) return fail("RRSIG needs 9 fields");
        const RRType covered = rrtype_from_string(args[0]);
        if (covered == RRType::ANY)
          return fail(quoted("bad RRSIG type covered", args[0]));
        auto alg = parse_u32(args[1]);
        auto labels = parse_u32(args[2]);
        auto ottl = parse_u32(args[3]);
        auto exp = parse_u32(args[4]);
        auto inc = parse_u32(args[5]);
        auto tag = parse_u32(args[6]);
        auto signer = parse_relative_name(args[7], origin);
        auto sig_bytes = parse_base64_field(args.subspan(8), joined);
        if (!alg || *alg > 255 || !labels || *labels > 255 || !ottl || !exp || !inc ||
            !tag || *tag > 0xFFFF || !signer || !sig_bytes)
          return fail("bad RRSIG");
        rdata = RrsigData{covered, static_cast<uint8_t>(*alg),
                          static_cast<uint8_t>(*labels), *ottl, *exp, *inc,
                          static_cast<uint16_t>(*tag), std::move(*signer),
                          std::move(*sig_bytes)};
        break;
      }
      case RRType::NSEC: {
        if (!need(1)) return fail("NSEC needs a next name");
        NsecData nsec;
        auto next = parse_relative_name(args[0], origin);
        if (!next) return fail("bad NSEC next");
        nsec.next = std::move(*next);
        nsec.types.reserve(args.size() - 1);
        for (std::string_view arg : args.subspan(1)) {
          RRType t = rrtype_from_string(arg);
          if (t == RRType::ANY)
            return fail(quoted("bad NSEC type", arg));
          nsec.types.push_back(t);
        }
        rdata = std::move(nsec);
        break;
      }
      case RRType::ZONEMD: {
        if (!need(4)) return fail("ZONEMD needs 4 fields");
        auto serial = parse_u32(args[0]);
        auto scheme = parse_u32(args[1]);
        auto alg = parse_u32(args[2]);
        auto digest = crypto::from_hex(args[3]);
        if (!serial || !scheme || *scheme > 255 || !alg || *alg > 255 || !digest)
          return fail("bad ZONEMD");
        rdata = ZonemdData{*serial, static_cast<uint8_t>(*scheme),
                           static_cast<uint8_t>(*alg), std::move(*digest)};
        break;
      }
      default:
        return fail("type " + rrtype_to_string(type) + " not supported in zone files");
    }
    zone.add(ResourceRecord{owner, type, rclass, ttl, std::move(rdata)});
  }

  // The zone origin is the SOA owner.
  zone.origin_ = soa_owner ? std::move(*soa_owner) : std::move(origin);
  if (!zone.soa()) {
    if (error) *error = "zone has no SOA";
    return std::nullopt;
  }
  return zone;
}

}  // namespace rootsim::dns
