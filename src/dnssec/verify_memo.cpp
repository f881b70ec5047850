#include "dnssec/verify_memo.h"

#include <algorithm>
#include <cstdint>
#include <cstring>

namespace rootsim::dnssec {

namespace {

uint64_t mix(uint64_t h, uint64_t word) {
  h = (h ^ word) * 0x9E3779B97F4A7C15ULL;
  return h ^ (h >> 29);
}

uint64_t fold(uint64_t h, std::span<const uint8_t> bytes) {
  size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    uint64_t word;
    std::memcpy(&word, bytes.data() + i, 8);
    h = mix(h, word);
  }
  uint64_t tail = bytes.size();
  for (; i < bytes.size(); ++i) tail = tail << 8 | bytes[i];
  return mix(h, tail);
}

uint64_t hash_of(const VerifyMemo::Verification& v) {
  uint64_t h = mix(0, static_cast<uint64_t>(v.key_id) << 8 | v.algorithm);
  return fold(fold(h, v.digest), v.signature);
}

bool same_bytes(const uint8_t* stored, std::span<const uint8_t> bytes) {
  return bytes.empty() || std::memcmp(stored, bytes.data(), bytes.size()) == 0;
}

}  // namespace

VerifyMemo::Key VerifyMemo::intern(const dns::DnskeyData& key) {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < keys_.size(); ++i)
    if (keys_[i].key == key) return {static_cast<uint32_t>(i), &keys_[i].ctx};
  keys_.push_back(InternedKey{
      key, crypto::RsaVerifyContext(
               crypto::RsaPublicKey::from_dnskey_wire(key.public_key))});
  return {static_cast<uint32_t>(keys_.size() - 1), &keys_.back().ctx};
}

const uint8_t* VerifyMemo::bytes(uint32_t at) const {
  return chunks_[at / kChunkBytes].get() + at % kChunkBytes;
}

bool VerifyMemo::matches(const Entry& e, const Verification& v,
                         uint64_t hash) const {
  if (e.hash != hash || e.key_id != v.key_id || e.algorithm != v.algorithm ||
      e.digest_len != v.digest.size() || e.signature_len != v.signature.size())
    return false;
  const uint8_t* stored = bytes(e.bytes_at);
  return same_bytes(stored, v.digest) &&
         same_bytes(stored + e.digest_len, v.signature);
}

size_t VerifyMemo::probe(const Verification& v, uint64_t hash) const {
  const size_t mask = slots_.size() - 1;
  size_t slot = hash & mask;
  while (slots_[slot] != 0 && !matches(entries_[slots_[slot] - 1], v, hash))
    slot = (slot + 1) & mask;
  return slot;
}

uint32_t VerifyMemo::store(std::span<const uint8_t> digest,
                           std::span<const uint8_t> signature) {
  const size_t need = digest.size() + signature.size();
  // An entry never straddles two chunks.
  if (arena_used_ % kChunkBytes + need > kChunkBytes)
    arena_used_ += kChunkBytes - arena_used_ % kChunkBytes;
  if (arena_used_ / kChunkBytes == chunks_.size())
    chunks_.push_back(std::make_unique_for_overwrite<uint8_t[]>(kChunkBytes));
  const auto at = static_cast<uint32_t>(arena_used_);
  uint8_t* out = chunks_[at / kChunkBytes].get() + at % kChunkBytes;
  if (!digest.empty()) std::memcpy(out, digest.data(), digest.size());
  if (!signature.empty())
    std::memcpy(out + digest.size(), signature.data(), signature.size());
  arena_used_ += need;
  return at;
}

void VerifyMemo::grow_index() {
  // Load factor stays at or below one half.
  size_t capacity = std::max<size_t>(slots_.size(), 1024);
  while (capacity < 2 * (entries_.size() + 1)) capacity *= 2;
  if (capacity == slots_.size()) return;
  slots_.assign(capacity, 0);
  const size_t mask = capacity - 1;
  for (size_t i = 0; i < entries_.size(); ++i) {
    size_t slot = entries_[i].hash & mask;
    while (slots_[slot] != 0) slot = (slot + 1) & mask;
    slots_[slot] = static_cast<uint32_t>(i + 1);
  }
}

bool VerifyMemo::contains(const Verification& v, VerifyMemoStats* stats) {
  const uint64_t hash = hash_of(v);
  std::lock_guard<std::mutex> lock(mu_);
  if (entries_.empty() || slots_[probe(v, hash)] == 0) return false;
  ++hits_;
  if (stats) ++stats->hits;
  return true;
}

void VerifyMemo::insert(const Verification& v, VerifyMemoStats* stats) {
  // A stored signature or digest longer than 64 KiB cannot fit a chunk; no
  // RSA modulus or DNSSEC hash comes near that, so such input is not kept.
  if (v.digest.size() + v.signature.size() > kChunkBytes) return;
  const uint64_t hash = hash_of(v);
  std::lock_guard<std::mutex> lock(mu_);
  if (!entries_.empty() && slots_[probe(v, hash)] != 0) {
    ++hits_;  // a concurrent caller inserted the same verification first
    if (stats) ++stats->hits;
    return;
  }
  if (entries_.size() >= kMemoEntries ||
      arena_used_ + 2 * kChunkBytes > UINT32_MAX) {
    entries_.clear();
    std::fill(slots_.begin(), slots_.end(), 0);
    arena_used_ = 0;
    ++resets_;
    if (stats) ++stats->resets;
  }
  grow_index();
  entries_.push_back(Entry{hash, v.key_id, store(v.digest, v.signature),
                           static_cast<uint16_t>(v.digest.size()),
                           static_cast<uint16_t>(v.signature.size()),
                           v.algorithm});
  slots_[probe(v, hash)] = static_cast<uint32_t>(entries_.size());
  ++misses_;
  if (stats) ++stats->misses;
}

uint64_t VerifyMemo::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

uint64_t VerifyMemo::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

uint64_t VerifyMemo::resets() const {
  std::lock_guard<std::mutex> lock(mu_);
  return resets_;
}

size_t VerifyMemo::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace rootsim::dnssec
