// Binary-to-text encodings used by DNS presentation formats: hex for ZONEMD
// digests and DS records (RFC 8976 / RFC 4034), base64 for DNSKEY public keys
// and RRSIG signatures, base32hex (RFC 4648 §7) for NSEC3 owner names.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace rootsim::crypto {

/// Appends the encoding to `out`; to_hex/to_base64 return it in a new string.
void append_hex(std::string& out, std::span<const uint8_t> data);
void append_base64(std::string& out, std::span<const uint8_t> data);

std::string to_hex(std::span<const uint8_t> data);
std::optional<std::vector<uint8_t>> from_hex(std::string_view text);

std::string to_base64(std::span<const uint8_t> data);
std::optional<std::vector<uint8_t>> from_base64(std::string_view text);

std::string to_base32hex(std::span<const uint8_t> data);
std::optional<std::vector<uint8_t>> from_base32hex(std::string_view text);

}  // namespace rootsim::crypto
