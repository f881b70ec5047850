#include "crypto/rsa.h"

#include <gtest/gtest.h>

#include "crypto/sha2.h"
#include "util/rng.h"

namespace rootsim::crypto {
namespace {

std::span<const uint8_t> bytes_of(const std::string& s) {
  return {reinterpret_cast<const uint8_t*>(s.data()), s.size()};
}

TEST(MillerRabin, KnownPrimesAndComposites) {
  util::Rng rng(1);
  EXPECT_TRUE(is_probable_prime(BigNum(2), rng));
  EXPECT_TRUE(is_probable_prime(BigNum(3), rng));
  EXPECT_TRUE(is_probable_prime(BigNum(65537), rng));
  EXPECT_TRUE(is_probable_prime(BigNum::from_hex("ffffffffffffffc5"), rng));
  EXPECT_FALSE(is_probable_prime(BigNum(1), rng));
  EXPECT_FALSE(is_probable_prime(BigNum(0), rng));
  EXPECT_FALSE(is_probable_prime(BigNum(4), rng));
  EXPECT_FALSE(is_probable_prime(BigNum(65536), rng));
  // Carmichael number 561 = 3*11*17 fools Fermat but not Miller–Rabin.
  EXPECT_FALSE(is_probable_prime(BigNum(561), rng));
  EXPECT_FALSE(is_probable_prime(BigNum(41041), rng));
}

class RsaKeySizes : public ::testing::TestWithParam<size_t> {};

TEST_P(RsaKeySizes, SignVerifyRoundTrip) {
  util::Rng rng(42);
  RsaPrivateKey key = generate_rsa_key(rng, GetParam());
  EXPECT_EQ(key.public_key.n.bit_length(), GetParam());
  std::string msg = "the root zone, serial 2023120600";
  auto sig = rsa_sign(key, RsaHash::Sha256, bytes_of(msg));
  EXPECT_EQ(sig.size(), key.public_key.modulus_bytes());
  EXPECT_TRUE(rsa_verify(key.public_key, RsaHash::Sha256, bytes_of(msg), sig));
}

INSTANTIATE_TEST_SUITE_P(Sizes, RsaKeySizes, ::testing::Values(512, 768, 1024));

TEST(Rsa, VerifyRejectsTamperedMessage) {
  util::Rng rng(7);
  RsaPrivateKey key = generate_rsa_key(rng, 512);
  std::string msg = "world. 86400 IN RRSIG NSEC 8 1 ...";
  auto sig = rsa_sign(key, RsaHash::Sha256, bytes_of(msg));
  std::string flipped = msg;
  flipped[3] ^= 0x20;  // single-bit flip, as in the paper's Fig. 10
  EXPECT_FALSE(rsa_verify(key.public_key, RsaHash::Sha256, bytes_of(flipped), sig));
}

TEST(Rsa, VerifyRejectsTamperedSignature) {
  util::Rng rng(8);
  RsaPrivateKey key = generate_rsa_key(rng, 512);
  std::string msg = "message";
  auto sig = rsa_sign(key, RsaHash::Sha256, bytes_of(msg));
  for (size_t i = 0; i < sig.size(); i += 13) {
    auto bad = sig;
    bad[i] ^= 0x01;
    EXPECT_FALSE(rsa_verify(key.public_key, RsaHash::Sha256, bytes_of(msg), bad));
  }
}

TEST(Rsa, VerifyRejectsWrongKey) {
  util::Rng rng(9);
  RsaPrivateKey key1 = generate_rsa_key(rng, 512);
  RsaPrivateKey key2 = generate_rsa_key(rng, 512);
  std::string msg = "message";
  auto sig = rsa_sign(key1, RsaHash::Sha256, bytes_of(msg));
  EXPECT_FALSE(rsa_verify(key2.public_key, RsaHash::Sha256, bytes_of(msg), sig));
}

TEST(Rsa, VerifyRejectsWrongHashAlgorithm) {
  util::Rng rng(10);
  RsaPrivateKey key = generate_rsa_key(rng, 768);
  std::string msg = "message";
  auto sig = rsa_sign(key, RsaHash::Sha256, bytes_of(msg));
  EXPECT_FALSE(rsa_verify(key.public_key, RsaHash::Sha512, bytes_of(msg), sig));
}

TEST(Rsa, VerifyRejectsWrongLengthSignature) {
  util::Rng rng(11);
  RsaPrivateKey key = generate_rsa_key(rng, 512);
  std::string msg = "message";
  auto sig = rsa_sign(key, RsaHash::Sha256, bytes_of(msg));
  auto short_sig = sig;
  short_sig.pop_back();
  EXPECT_FALSE(rsa_verify(key.public_key, RsaHash::Sha256, bytes_of(msg), short_sig));
  auto long_sig = sig;
  long_sig.push_back(0);
  EXPECT_FALSE(rsa_verify(key.public_key, RsaHash::Sha256, bytes_of(msg), long_sig));
}

TEST(Rsa, Sha512SignatureScheme) {
  util::Rng rng(12);
  RsaPrivateKey key = generate_rsa_key(rng, 1024);
  std::string msg = "RSASHA512 is DNSSEC algorithm 10";
  auto sig = rsa_sign(key, RsaHash::Sha512, bytes_of(msg));
  EXPECT_TRUE(rsa_verify(key.public_key, RsaHash::Sha512, bytes_of(msg), sig));
  EXPECT_FALSE(rsa_verify(key.public_key, RsaHash::Sha256, bytes_of(msg), sig));
}

TEST(Rsa, DnskeyWireRoundTrip) {
  util::Rng rng(13);
  RsaPrivateKey key = generate_rsa_key(rng, 512);
  auto wire = key.public_key.to_dnskey_wire();
  RsaPublicKey parsed = RsaPublicKey::from_dnskey_wire(wire);
  EXPECT_EQ(parsed.n, key.public_key.n);
  EXPECT_EQ(parsed.e, key.public_key.e);
  // RFC 3110 layout: exponent length 3 (65537 = 0x010001).
  ASSERT_GE(wire.size(), 4u);
  EXPECT_EQ(wire[0], 3);
  EXPECT_EQ(wire[1], 0x01);
  EXPECT_EQ(wire[2], 0x00);
  EXPECT_EQ(wire[3], 0x01);
}

TEST(Rsa, DeterministicKeygen) {
  util::Rng rng1(42), rng2(42);
  RsaPrivateKey a = generate_rsa_key(rng1, 512);
  RsaPrivateKey b = generate_rsa_key(rng2, 512);
  EXPECT_EQ(a.public_key.n, b.public_key.n);
  EXPECT_EQ(a.d, b.d);
}

TEST(Rsa, SignatureDeterministicPkcs1) {
  // PKCS#1 v1.5 is deterministic: same key + message -> same signature.
  util::Rng rng(14);
  RsaPrivateKey key = generate_rsa_key(rng, 512);
  std::string msg = "deterministic";
  EXPECT_EQ(rsa_sign(key, RsaHash::Sha256, bytes_of(msg)),
            rsa_sign(key, RsaHash::Sha256, bytes_of(msg)));
}

// verify_digest is verify() with the hashing done by the caller: the same
// verdict for the message's own digest, false for another digest or one of
// the wrong length for the hash.
TEST(Rsa, VerifyDigestMatchesVerify) {
  util::Rng rng(13);
  RsaPrivateKey key = generate_rsa_key(rng, 1024);
  RsaVerifyContext ctx(key.public_key);
  std::string msg = "verified once, answered from the digest";
  for (RsaHash hash : {RsaHash::Sha256, RsaHash::Sha512}) {
    auto sig = rsa_sign(key, hash, bytes_of(msg));
    auto digest = hash == RsaHash::Sha256 ? sha256(bytes_of(msg)) : sha512(bytes_of(msg));
    EXPECT_TRUE(ctx.verify(hash, bytes_of(msg), sig));
    EXPECT_TRUE(ctx.verify_digest(hash, digest, sig));
    auto other = digest;
    other[0] ^= 1;
    EXPECT_FALSE(ctx.verify_digest(hash, other, sig));
    auto bad_sig = sig;
    bad_sig.back() ^= 1;
    EXPECT_FALSE(ctx.verify_digest(hash, digest, bad_sig));
    EXPECT_FALSE(ctx.verify_digest(
        hash, std::span<const uint8_t>(digest).first(digest.size() - 1), sig));
  }
}

}  // namespace
}  // namespace rootsim::crypto
