#include "rss/zone_authority.h"

#include <algorithm>

#include "dns/axfr.h"
#include "util/strings.h"

namespace rootsim::rss {

namespace {

// A deterministic synthetic TLD list: a handful of real, structurally
// important labels (including "ruhr", the TLD whose bitflipped RRSIG the
// paper shows), padded with generated ccTLD/gTLD-like labels.
std::vector<std::string> make_tlds(size_t count, util::Rng& rng) {
  std::vector<std::string> tlds = {
      "com",  "net",  "org",  "de",   "jp",   "br",   "uk",  "fr",  "nl",
      "ruhr", "info", "biz",  "io",   "dev",  "app",  "xyz", "za",  "au",
      "nz",   "cn",   "in",   "mx",   "ar",   "cl",   "ke",  "ng",  "se",
      "no",   "fi",   "pl",   "it",   "es",   "pt",   "ch",  "at",  "be",
  };
  const char* consonants = "bcdfghjklmnpqrstvwz";
  const char* vowels = "aeiou";
  while (tlds.size() < count) {
    // Generated labels: CVCVC / CVC patterns, 3-5 chars, no collisions.
    std::string label;
    size_t len = 3 + rng.uniform(3);
    for (size_t i = 0; i < len; ++i)
      label += (i % 2 == 0) ? consonants[rng.uniform(19)] : vowels[rng.uniform(5)];
    if (std::find(tlds.begin(), tlds.end(), label) == tlds.end())
      tlds.push_back(label);
  }
  tlds.resize(count);
  std::sort(tlds.begin(), tlds.end());
  return tlds;
}

}  // namespace

ZoneAuthority::ZoneAuthority(const RootCatalog& catalog, ZoneAuthorityConfig config,
                             obs::Obs obs)
    : catalog_(&catalog), config_(config) {
  if (obs.metrics) {
    zones_built_ = obs.counter_handle("rss.zones_built");
    sig_cache_hits_ = obs.counter_handle("rss.sig_cache.hits");
    sig_cache_misses_ = obs.counter_handle("rss.sig_cache.misses");
    sig_cache_resets_ = obs.counter_handle("rss.sig_cache.resets");
    zone_serial_ = &obs.metrics->gauge("rss.zone_serial");
  }
  if (config_.signature_cache_entries > 0)
    signature_cache_ = std::make_unique<dnssec::SignatureCache>(
        config_.signature_cache_entries);
  util::Rng rng(config_.seed);
  util::Rng tld_rng = rng.fork("tlds");
  tlds_ = make_tlds(config_.tld_count, tld_rng);
  util::Rng ksk_rng = rng.fork("ksk");
  util::Rng zsk_rng = rng.fork("zsk");
  ksk_ = dnssec::make_ksk(ksk_rng, config_.rsa_modulus_bits);
  zsk_ = dnssec::make_zsk(zsk_rng, config_.rsa_modulus_bits);
  if (config_.ksk_roll_at > 0) {
    util::Rng next_rng = rng.fork("ksk-next");
    ksk_next_ = dnssec::make_ksk(next_rng, config_.rsa_modulus_bits);
    has_ksk_next_ = true;
  }
}

uint32_t ZoneAuthority::serial_at(util::UnixTime t) const {
  util::CivilTime c = util::civil_from_unix(t);
  // Real root zone serials are YYYYMMDDNN with NN incrementing per edit;
  // we model two edits per day (NN = 00 before 12:00 UTC, 01 after).
  uint32_t date_part = static_cast<uint32_t>(c.year) * 10000u +
                       static_cast<uint32_t>(c.month) * 100u +
                       static_cast<uint32_t>(c.day);
  uint32_t edit = c.hour >= 12 ? 1 : 0;
  return date_part * 100u + edit;
}

dnssec::SigningPolicy::ZonemdMode ZoneAuthority::zonemd_mode_at(
    util::UnixTime t) const {
  if (config_.zonemd_sha384_start > 0 && t >= config_.zonemd_sha384_start)
    return dnssec::SigningPolicy::ZonemdMode::Sha384;
  if (config_.zonemd_private_start > 0 && t >= config_.zonemd_private_start)
    return dnssec::SigningPolicy::ZonemdMode::PrivateAlgorithm;
  return dnssec::SigningPolicy::ZonemdMode::None;
}

dns::Zone ZoneAuthority::build_unsigned_zone(util::UnixTime t) const {
  dns::Zone zone{dns::Name{}};
  const dns::Name root;

  dns::SoaData soa;
  soa.mname = *dns::Name::parse("a.root-servers.net.");
  soa.rname = *dns::Name::parse("nstld.verisign-grs.com.");
  soa.serial = serial_at(t);
  soa.refresh = 1800;
  soa.retry = 900;
  soa.expire = 604800;
  soa.minimum = 86400;
  zone.add({root, dns::RRType::SOA, dns::RRClass::IN, 86400, soa});

  const bool after_change =
      config_.broot_change == 0 || t >= config_.broot_change;
  const auto& renumbering = catalog_->renumbering();
  for (const auto& server : catalog_->servers()) {
    dns::Name name = *dns::Name::parse(server.name);
    zone.add({root, dns::RRType::NS, dns::RRClass::IN, 518400, dns::NsData{name}});
    util::IpAddress v4 = server.ipv4;
    util::IpAddress v6 = server.ipv6;
    if (server.letter == 'b' && !after_change) {
      v4 = renumbering.old_ipv4;
      v6 = renumbering.old_ipv6;
    }
    zone.add({name, dns::RRType::A, dns::RRClass::IN, 518400, dns::AData{v4}});
    zone.add({name, dns::RRType::AAAA, dns::RRClass::IN, 518400, dns::AaaaData{v6}});
  }

  // TLD delegations: 2 NS + DS + glue each.
  util::Rng zone_rng = util::Rng(config_.seed).fork("delegations");
  for (size_t i = 0; i < tlds_.size(); ++i) {
    const std::string& tld = tlds_[i];
    dns::Name owner = *dns::Name::parse(tld + ".");
    for (int ns = 1; ns <= 2; ++ns) {
      dns::Name ns_name =
          *dns::Name::parse(util::format("ns%d.%s.", ns, tld.c_str()));
      zone.add({owner, dns::RRType::NS, dns::RRClass::IN, 172800,
                dns::NsData{ns_name}});
      // Glue (deterministic per TLD, stable across serials).
      uint32_t v4_host = 0x0A000000u + static_cast<uint32_t>(i) * 256u +
                         static_cast<uint32_t>(ns);
      zone.add({ns_name, dns::RRType::A, dns::RRClass::IN, 172800,
                dns::AData{util::IpAddress::v4(v4_host)}});
      std::array<uint16_t, 8> hextets = {
          0x2001, 0x0db8, static_cast<uint16_t>(i), static_cast<uint16_t>(ns),
          0,      0,      0,                        0x0001};
      zone.add({ns_name, dns::RRType::AAAA, dns::RRClass::IN, 172800,
                dns::AaaaData{util::IpAddress::v6(hextets)}});
    }
    dns::DsData ds;
    ds.key_tag = static_cast<uint16_t>(zone_rng.uniform(65536));
    ds.algorithm = 8;
    ds.digest_type = 2;
    ds.digest.resize(32);
    for (auto& byte : ds.digest) byte = static_cast<uint8_t>(zone_rng.next());
    zone.add({owner, dns::RRType::DS, dns::RRClass::IN, 86400, ds});
  }
  return zone;
}

ZoneAuthority::Cell& ZoneAuthority::cell(uint32_t serial) const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return cells_[serial];
}

dns::Zone ZoneAuthority::build_signed_zone(util::UnixTime t,
                                           dnssec::SignStats* stats) const {
  dns::Zone zone = build_unsigned_zone(t);
  dnssec::SigningPolicy policy;
  // Inception at the zone edit, expiration ~2 weeks later — like the root.
  policy.inception = util::day_start(t);
  policy.expiration =
      policy.inception + config_.rrsig_validity_days * util::kSecondsPerDay;
  policy.zonemd = zonemd_mode_at(t);

  // KSK rollover: keyed on the *serial edit* instant (00:00/12:00 UTC), not
  // the raw query time — the zone cache is keyed by serial, so two probes of
  // the same serial must always see the same signer no matter which probe
  // builds the cache entry first.
  const dnssec::SigningKey* active_ksk = &ksk_;
  if (has_ksk_next_) {
    const util::UnixTime edit_t = t - (t % (12 * 3600));
    const int64_t publish_overlap = 30 * util::kSecondsPerDay;
    if (edit_t >= config_.ksk_roll_at) {
      active_ksk = &ksk_next_;
      if (edit_t < config_.ksk_roll_at + publish_overlap)
        policy.extra_dnskeys.push_back(ksk_.to_dnskey());
    } else if (edit_t + publish_overlap >= config_.ksk_roll_at) {
      policy.extra_dnskeys.push_back(ksk_next_.to_dnskey());
    }
  }
  dnssec::sign_zone(zone, *active_ksk, zsk_, policy, signature_cache_.get(),
                    stats);
  return zone;
}

const dns::Zone& ZoneAuthority::zone_at(util::UnixTime t) const {
  const uint32_t serial = serial_at(t);
  Cell& slot = cell(serial);
  std::call_once(slot.zone_once, [&] {
    dnssec::SignStats stats;
    slot.zone.emplace(build_signed_zone(t, &stats));
    obs::inc(sig_cache_hits_, stats.hits);
    obs::inc(sig_cache_misses_, stats.misses);
    obs::inc(sig_cache_resets_, stats.resets);
    obs::inc(zones_built_);
    if (zone_serial_) zone_serial_->set_max(serial);
  });
  return *slot.zone;
}

const std::vector<uint8_t>& ZoneAuthority::axfr_stream_at(util::UnixTime t) const {
  const dns::Zone& zone = zone_at(t);
  Cell& slot = cell(serial_at(t));
  std::call_once(slot.axfr_once, [&] {
    dns::Question question{dns::Name(), dns::RRType::AXFR, dns::RRClass::IN};
    slot.axfr = dns::encode_axfr_stream(zone.axfr_records(), question);
  });
  return slot.axfr;
}

dnssec::TrustAnchors ZoneAuthority::trust_anchors() const {
  dnssec::TrustAnchors anchors;
  anchors.keys = {ksk_.to_dnskey(), zsk_.to_dnskey()};
  if (has_ksk_next_) anchors.keys.push_back(ksk_next_.to_dnskey());
  return anchors;
}

}  // namespace rootsim::rss
