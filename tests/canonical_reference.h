// The two-pass RFC 4034 §6.3 canonical RDATA sort that dnssec::CanonicalEncoder
// replaced: encode every RDATA, then sort copies of the Rdata values by those
// bytes. Tests check the one-pass encoder, the signer and the ZONEMD digest
// against it.
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "dns/codec.h"
#include "dns/rdata.h"

namespace rootsim::reference {

/// Canonical RDATA encoding of one record (lower-cased embedded names, no
/// compression).
inline std::vector<uint8_t> canonical_rdata(const dns::Rdata& rdata) {
  return dns::encode_rdata(rdata, /*canonical=*/true);
}

/// Copies of `rdatas` sorted by canonical RDATA byte order.
inline std::vector<dns::Rdata> sort_rdatas_canonically(
    const std::vector<dns::Rdata>& rdatas) {
  std::vector<std::pair<std::vector<uint8_t>, const dns::Rdata*>> keyed;
  keyed.reserve(rdatas.size());
  for (const auto& rdata : rdatas) keyed.emplace_back(canonical_rdata(rdata), &rdata);
  std::sort(keyed.begin(), keyed.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<dns::Rdata> out;
  out.reserve(rdatas.size());
  for (const auto& [key, ptr] : keyed) out.push_back(*ptr);
  return out;
}

}  // namespace rootsim::reference
