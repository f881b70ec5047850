#include "crypto/rsa.h"

#include <algorithm>

#include "crypto/sha2.h"

namespace rootsim::crypto {

namespace {

// Small primes for fast trial division before Miller–Rabin.
constexpr uint32_t kSmallPrimes[] = {
    3,   5,   7,   11,  13,  17,  19,  23,  29,  31,  37,  41,  43,  47,  53,
    59,  61,  67,  71,  73,  79,  83,  89,  97,  101, 103, 107, 109, 113, 127,
    131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
    211, 223, 227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283};

BigNum random_bits(util::Rng& rng, size_t bits) {
  size_t nbytes = (bits + 7) / 8;
  std::vector<uint8_t> bytes(nbytes);
  for (auto& b : bytes) b = static_cast<uint8_t>(rng.next());
  // Clear excess high bits, then force the top bit so the value has exactly
  // `bits` bits.
  size_t excess = nbytes * 8 - bits;
  bytes[0] &= static_cast<uint8_t>(0xFF >> excess);
  bytes[0] |= static_cast<uint8_t>(0x80 >> excess);
  return BigNum::from_bytes(bytes);
}

BigNum random_below(util::Rng& rng, const BigNum& bound) {
  size_t bits = bound.bit_length();
  while (true) {
    size_t nbytes = (bits + 7) / 8;
    std::vector<uint8_t> bytes(nbytes);
    for (auto& b : bytes) b = static_cast<uint8_t>(rng.next());
    size_t excess = nbytes * 8 - bits;
    bytes[0] &= static_cast<uint8_t>(0xFF >> excess);
    BigNum v = BigNum::from_bytes(bytes);
    if (v < bound) return v;
  }
}

BigNum generate_prime(util::Rng& rng, size_t bits) {
  while (true) {
    BigNum candidate = random_bits(rng, bits);
    // Force odd.
    if (!candidate.is_odd()) candidate = candidate + BigNum(1);
    bool divisible = false;
    for (uint32_t p : kSmallPrimes) {
      if ((candidate % BigNum(p)).is_zero()) {
        divisible = true;
        break;
      }
    }
    if (divisible) continue;
    if (is_probable_prime(candidate, rng)) return candidate;
  }
}

// DER-encoded DigestInfo prefixes for PKCS#1 v1.5 (RFC 8017 §9.2 notes).
const std::vector<uint8_t>& digest_info_prefix(RsaHash hash) {
  static const std::vector<uint8_t> sha256_prefix = {
      0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01,
      0x65, 0x03, 0x04, 0x02, 0x01, 0x05, 0x00, 0x04, 0x20};
  static const std::vector<uint8_t> sha512_prefix = {
      0x30, 0x51, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01,
      0x65, 0x03, 0x04, 0x02, 0x03, 0x05, 0x00, 0x04, 0x40};
  return hash == RsaHash::Sha256 ? sha256_prefix : sha512_prefix;
}

std::vector<uint8_t> hash_message(RsaHash hash, std::span<const uint8_t> message) {
  return hash == RsaHash::Sha256 ? sha256(message) : sha512(message);
}

size_t digest_size(RsaHash hash) { return hash == RsaHash::Sha256 ? 32 : 64; }

// EMSA-PKCS1-v1_5 encoding of an already computed message digest:
// 0x00 0x01 FF..FF 0x00 DigestInfo.
std::vector<uint8_t> emsa_encode_digest(RsaHash hash,
                                        std::span<const uint8_t> digest,
                                        size_t em_len) {
  const auto& prefix = digest_info_prefix(hash);
  size_t t_len = prefix.size() + digest.size();
  if (digest.size() != digest_size(hash) || em_len < t_len + 11) return {};
  std::vector<uint8_t> em(em_len, 0xFF);
  em[0] = 0x00;
  em[1] = 0x01;
  em[em_len - t_len - 1] = 0x00;
  std::copy(prefix.begin(), prefix.end(), em.end() - static_cast<long>(t_len));
  std::copy(digest.begin(), digest.end(), em.end() - static_cast<long>(digest.size()));
  return em;
}

std::vector<uint8_t> emsa_encode(RsaHash hash, std::span<const uint8_t> message,
                                 size_t em_len) {
  return emsa_encode_digest(hash, hash_message(hash, message), em_len);
}

}  // namespace

bool is_probable_prime(const BigNum& candidate, util::Rng& rng, int rounds) {
  if (candidate < BigNum(2)) return false;
  if (candidate == BigNum(2) || candidate == BigNum(3)) return true;
  if (!candidate.is_odd()) return false;
  // candidate - 1 = d * 2^r with d odd.
  BigNum n_minus_1 = candidate - BigNum(1);
  BigNum d = n_minus_1;
  size_t r = 0;
  while (!d.is_odd()) {
    d = d >> 1;
    ++r;
  }
  for (int round = 0; round < rounds; ++round) {
    BigNum a = random_below(rng, candidate - BigNum(3)) + BigNum(2);
    BigNum x = a.mod_pow(d, candidate);
    if (x == BigNum(1) || x == n_minus_1) continue;
    bool witness = true;
    for (size_t i = 1; i < r; ++i) {
      x = (x * x) % candidate;
      if (x == n_minus_1) {
        witness = false;
        break;
      }
    }
    if (witness) return false;
  }
  return true;
}

RsaPrivateKey generate_rsa_key(util::Rng& rng, size_t modulus_bits) {
  const BigNum e(65537);
  while (true) {
    BigNum p = generate_prime(rng, modulus_bits / 2);
    BigNum q = generate_prime(rng, modulus_bits - modulus_bits / 2);
    if (p == q) continue;
    BigNum n = p * q;
    if (n.bit_length() != modulus_bits) continue;
    BigNum phi = (p - BigNum(1)) * (q - BigNum(1));
    if (!(BigNum::gcd(e, phi) == BigNum(1))) continue;
    BigNum d = e.mod_inverse(phi);
    if (d.is_zero()) continue;
    RsaPrivateKey key;
    key.public_key.n = std::move(n);
    key.public_key.e = e;
    key.dp = d % (p - BigNum(1));
    key.dq = d % (q - BigNum(1));
    key.qinv = q.mod_inverse(p);
    key.d = std::move(d);
    key.p = std::move(p);
    key.q = std::move(q);
    return key;
  }
}

std::vector<uint8_t> RsaPublicKey::to_dnskey_wire() const {
  // RFC 3110: one-byte exponent length (exponents < 256 bytes), exponent,
  // modulus.
  std::vector<uint8_t> exp_bytes = e.to_bytes();
  std::vector<uint8_t> mod_bytes = n.to_bytes();
  std::vector<uint8_t> out;
  out.reserve(1 + exp_bytes.size() + mod_bytes.size());
  out.push_back(static_cast<uint8_t>(exp_bytes.size()));
  out.insert(out.end(), exp_bytes.begin(), exp_bytes.end());
  out.insert(out.end(), mod_bytes.begin(), mod_bytes.end());
  return out;
}

RsaPublicKey RsaPublicKey::from_dnskey_wire(std::span<const uint8_t> wire) {
  RsaPublicKey key;
  if (wire.empty()) return key;
  size_t exp_len = wire[0];
  size_t offset = 1;
  if (exp_len == 0 && wire.size() >= 3) {
    // RFC 3110 long form: 0 followed by a two-byte length.
    exp_len = static_cast<size_t>(wire[1]) << 8 | wire[2];
    offset = 3;
  }
  if (offset + exp_len > wire.size()) return key;
  key.e = BigNum::from_bytes(wire.subspan(offset, exp_len));
  key.n = BigNum::from_bytes(wire.subspan(offset + exp_len));
  return key;
}

RsaSignContext::RsaSignContext(const RsaPrivateKey& key)
    : key_(key),
      ctx_p_(key.p),
      ctx_q_(key.q),
      ctx_n_(key.public_key.n) {
  // RSADP via CRT (RFC 8017 §5.1.2): two half-size exponentiations plus the
  // Garner recombination. A hand-built key may omit the factorization or the
  // CRT coefficients; derive what's missing, and fall back to the full-size
  // exponent if the pieces don't cohere.
  if (!key_.p.is_zero() && !key_.q.is_zero() &&
      key_.p * key_.q == key_.public_key.n && ctx_p_.valid() &&
      ctx_q_.valid()) {
    dp_ = key_.dp.is_zero() ? key_.d % (key_.p - BigNum(1)) : key_.dp;
    dq_ = key_.dq.is_zero() ? key_.d % (key_.q - BigNum(1)) : key_.dq;
    qinv_ = key_.qinv.is_zero() ? key_.q.mod_inverse(key_.p) : key_.qinv;
    if (!qinv_.is_zero()) {
      dp_schedule_ = FixedWindowSchedule::from_exponent(dp_);
      dq_schedule_ = FixedWindowSchedule::from_exponent(dq_);
      crt_ok_ = true;
    }
  }
  if (!crt_ok_ && ctx_n_.valid())
    d_schedule_ = FixedWindowSchedule::from_exponent(key_.d);
}

BigNum RsaSignContext::private_op(const BigNum& m) const {
  if (crt_ok_) {
    BigNum m1 = ctx_p_.exp(m, dp_schedule_);
    BigNum m2 = ctx_q_.exp(m, dq_schedule_);
    // h = qinv * (m1 - m2) mod p, keeping the subtraction non-negative.
    BigNum m2_mod_p = m2 % key_.p;
    BigNum diff = m1 >= m2_mod_p ? m1 - m2_mod_p : m1 + key_.p - m2_mod_p;
    BigNum h = ctx_p_.mul_mod(qinv_, diff);
    return m2 + h * key_.q;
  }
  if (ctx_n_.valid()) return ctx_n_.exp(m, d_schedule_);
  return m.mod_pow(key_.d, key_.public_key.n);
}

std::vector<uint8_t> RsaSignContext::sign(
    RsaHash hash, std::span<const uint8_t> message) const {
  size_t k = key_.public_key.modulus_bytes();
  std::vector<uint8_t> em = emsa_encode(hash, message, k);
  if (em.empty()) return {};
  BigNum m = BigNum::from_bytes(em);
  BigNum s = private_op(m);
  return s.to_bytes_padded(k);
}

RsaVerifyContext::RsaVerifyContext(const RsaPublicKey& key)
    : key_(key), modulus_bytes_(key.modulus_bytes()), ctx_(key.n) {}

bool RsaVerifyContext::verify(RsaHash hash, std::span<const uint8_t> message,
                              std::span<const uint8_t> signature) const {
  return verify_digest(hash, hash_message(hash, message), signature);
}

bool RsaVerifyContext::verify_digest(RsaHash hash,
                                     std::span<const uint8_t> digest,
                                     std::span<const uint8_t> signature) const {
  if (signature.size() != modulus_bytes_ || key_.n.is_zero()) return false;
  std::vector<uint8_t> expected = emsa_encode_digest(hash, digest, modulus_bytes_);
  if (expected.empty()) return false;
  BigNum s = BigNum::from_bytes(signature);
  if (s >= key_.n) return false;
  BigNum m = ctx_.valid() ? ctx_.exp(s, key_.e) : s.mod_pow(key_.e, key_.n);
  return m.to_bytes_padded(modulus_bytes_) == expected;
}

std::vector<uint8_t> rsa_sign(const RsaPrivateKey& key, RsaHash hash,
                              std::span<const uint8_t> message) {
  return RsaSignContext(key).sign(hash, message);
}

bool rsa_verify(const RsaPublicKey& key, RsaHash hash,
                std::span<const uint8_t> message,
                std::span<const uint8_t> signature) {
  return RsaVerifyContext(key).verify(hash, message, signature);
}

}  // namespace rootsim::crypto
