#include "crypto/encoding.h"

namespace rootsim::crypto {

namespace {
constexpr char kHexDigits[] = "0123456789abcdef";
constexpr char kBase64Alphabet[] =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
constexpr char kBase32HexAlphabet[] = "0123456789ABCDEFGHIJKLMNOPQRSTUV";

int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

int base64_value(char c) {
  if (c >= 'A' && c <= 'Z') return c - 'A';
  if (c >= 'a' && c <= 'z') return c - 'a' + 26;
  if (c >= '0' && c <= '9') return c - '0' + 52;
  if (c == '+') return 62;
  if (c == '/') return 63;
  return -1;
}

int base32hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'A' && c <= 'V') return c - 'A' + 10;
  if (c >= 'a' && c <= 'v') return c - 'a' + 10;
  return -1;
}
}  // namespace

void append_hex(std::string& out, std::span<const uint8_t> data) {
  const size_t start = out.size();
  out.resize(start + data.size() * 2);
  char* p = out.data() + start;
  for (uint8_t b : data) {
    *p++ = kHexDigits[b >> 4];
    *p++ = kHexDigits[b & 0xF];
  }
}

std::string to_hex(std::span<const uint8_t> data) {
  std::string out;
  append_hex(out, data);
  return out;
}

std::optional<std::vector<uint8_t>> from_hex(std::string_view text) {
  if (text.size() % 2 != 0) return std::nullopt;
  std::vector<uint8_t> out;
  out.reserve(text.size() / 2);
  for (size_t i = 0; i < text.size(); i += 2) {
    int hi = hex_value(text[i]);
    int lo = hex_value(text[i + 1]);
    if (hi < 0 || lo < 0) return std::nullopt;
    out.push_back(static_cast<uint8_t>(hi << 4 | lo));
  }
  return out;
}

void append_base64(std::string& out, std::span<const uint8_t> data) {
  const size_t start = out.size();
  out.resize(start + (data.size() + 2) / 3 * 4);
  char* p = out.data() + start;
  size_t i = 0;
  for (; i + 3 <= data.size(); i += 3) {
    uint32_t triple = static_cast<uint32_t>(data[i]) << 16 |
                      static_cast<uint32_t>(data[i + 1]) << 8 | data[i + 2];
    *p++ = kBase64Alphabet[triple >> 18 & 0x3F];
    *p++ = kBase64Alphabet[triple >> 12 & 0x3F];
    *p++ = kBase64Alphabet[triple >> 6 & 0x3F];
    *p++ = kBase64Alphabet[triple & 0x3F];
  }
  size_t rem = data.size() - i;
  if (rem == 1) {
    uint32_t v = static_cast<uint32_t>(data[i]) << 16;
    *p++ = kBase64Alphabet[v >> 18 & 0x3F];
    *p++ = kBase64Alphabet[v >> 12 & 0x3F];
    *p++ = '=';
    *p++ = '=';
  } else if (rem == 2) {
    uint32_t v = static_cast<uint32_t>(data[i]) << 16 |
                 static_cast<uint32_t>(data[i + 1]) << 8;
    *p++ = kBase64Alphabet[v >> 18 & 0x3F];
    *p++ = kBase64Alphabet[v >> 12 & 0x3F];
    *p++ = kBase64Alphabet[v >> 6 & 0x3F];
    *p++ = '=';
  }
}

std::string to_base64(std::span<const uint8_t> data) {
  std::string out;
  append_base64(out, data);
  return out;
}

std::optional<std::vector<uint8_t>> from_base64(std::string_view text) {
  std::vector<uint8_t> out;
  out.reserve(text.size() / 4 * 3 + 2);
  uint32_t acc = 0;
  int bits = 0;
  size_t pad = 0;
  for (char c : text) {
    if (c == '\n' || c == '\r' || c == ' ' || c == '\t') continue;
    if (c == '=') {
      ++pad;
      continue;
    }
    if (pad > 0) return std::nullopt;  // data after padding
    int v = base64_value(c);
    if (v < 0) return std::nullopt;
    acc = acc << 6 | static_cast<uint32_t>(v);
    bits += 6;
    if (bits >= 8) {
      bits -= 8;
      out.push_back(static_cast<uint8_t>(acc >> bits));
    }
  }
  if (pad > 2) return std::nullopt;
  return out;
}

std::string to_base32hex(std::span<const uint8_t> data) {
  std::string out;
  uint64_t acc = 0;
  int bits = 0;
  for (uint8_t b : data) {
    acc = acc << 8 | b;
    bits += 8;
    while (bits >= 5) {
      bits -= 5;
      out += kBase32HexAlphabet[acc >> bits & 0x1F];
    }
  }
  if (bits > 0) out += kBase32HexAlphabet[(acc << (5 - bits)) & 0x1F];
  return out;
}

std::optional<std::vector<uint8_t>> from_base32hex(std::string_view text) {
  std::vector<uint8_t> out;
  uint64_t acc = 0;
  int bits = 0;
  for (char c : text) {
    if (c == '=') continue;
    int v = base32hex_value(c);
    if (v < 0) return std::nullopt;
    acc = acc << 5 | static_cast<uint64_t>(v);
    bits += 5;
    if (bits >= 8) {
      bits -= 8;
      out.push_back(static_cast<uint8_t>(acc >> bits));
    }
  }
  return out;
}

}  // namespace rootsim::crypto
