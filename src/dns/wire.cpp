#include "dns/wire.h"

#include "util/strings.h"

namespace rootsim::dns {

void WireWriter::put_u8(uint8_t value) { buffer_.push_back(value); }

void WireWriter::put_u16(uint16_t value) {
  buffer_.push_back(static_cast<uint8_t>(value >> 8));
  buffer_.push_back(static_cast<uint8_t>(value));
}

void WireWriter::put_u32(uint32_t value) {
  put_u16(static_cast<uint16_t>(value >> 16));
  put_u16(static_cast<uint16_t>(value));
}

void WireWriter::put_bytes(std::span<const uint8_t> bytes) {
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

namespace {

inline char ascii_lower(char c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c + 32) : c;
}

// FNV-1a over the case-folded suffix labels[first..], with the label length
// as a separator so ("ab","c") and ("a","bc") hash apart.
uint64_t suffix_hash(const std::vector<std::string>& labels, size_t first) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = first; i < labels.size(); ++i) {
    h = (h ^ labels[i].size()) * 0x100000001b3ULL;
    for (char c : labels[i])
      h = (h ^ static_cast<uint8_t>(ascii_lower(c))) * 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

bool WireWriter::name_at_equals(size_t offset,
                                const std::vector<std::string>& labels,
                                size_t first) const {
  size_t pos = offset;
  size_t jumps = 0;
  for (size_t i = first;; ++i) {
    // Chase pointers (always backwards in data we wrote ourselves).
    while (pos < buffer_.size() && (buffer_[pos] & 0xC0) == 0xC0) {
      if (pos + 1 >= buffer_.size() || ++jumps > 64) return false;
      pos = static_cast<size_t>(buffer_[pos] & 0x3F) << 8 | buffer_[pos + 1];
    }
    if (pos >= buffer_.size()) return false;
    uint8_t len = buffer_[pos];
    if (i == labels.size()) return len == 0;
    if (len != labels[i].size() || pos + 1 + len > buffer_.size()) return false;
    for (size_t k = 0; k < len; ++k)
      if (ascii_lower(static_cast<char>(buffer_[pos + 1 + k])) !=
          ascii_lower(labels[i][k]))
        return false;
    pos += 1 + static_cast<size_t>(len);
  }
}

void WireWriter::put_name(const Name& name, bool compress) {
  // Try to compress each suffix in turn: "f.root-servers.net." checks
  // "f.root-servers.net.", then "root-servers.net.", then "net.".
  const auto& labels = name.labels();
  for (size_t i = 0; i < labels.size(); ++i) {
    if (compress) {
      uint64_t h = suffix_hash(labels, i);
      size_t slot = h & (kTableSize - 1);
      bool compressed = false;
      while (offset_plus_1_[slot] != 0) {
        if (hashes_[slot] == h) {
          size_t offset = static_cast<size_t>(offset_plus_1_[slot]) - 1;
          if (name_at_equals(offset, labels, i)) {
            put_u16(static_cast<uint16_t>(0xC000 | offset));
            compressed = true;
            break;
          }
        }
        slot = (slot + 1) & (kTableSize - 1);
      }
      if (compressed) return;
      if (buffer_.size() < 0x4000 && entries_ < kMaxEntries &&
          offset_plus_1_[slot] == 0) {
        hashes_[slot] = h;
        offset_plus_1_[slot] = static_cast<uint16_t>(buffer_.size() + 1);
        ++entries_;
      }
    }
    put_u8(static_cast<uint8_t>(labels[i].size()));
    put_bytes({reinterpret_cast<const uint8_t*>(labels[i].data()), labels[i].size()});
  }
  put_u8(0);
}

void WireWriter::clear() {
  buffer_.clear();
  if (entries_ != 0) {
    offset_plus_1_.fill(0);
    entries_ = 0;
  }
}

void WireWriter::truncate(size_t size) {
  if (size < buffer_.size()) buffer_.resize(size);
}

void WireWriter::put_name_canonical(const Name& name) {
  // Same bytes as put_name(name.to_lower(), false), folded in place instead
  // of through a lower-cased copy of the name.
  for (const std::string& label : name.labels()) {
    put_u8(static_cast<uint8_t>(label.size()));
    for (char c : label) buffer_.push_back(static_cast<uint8_t>(ascii_lower(c)));
  }
  put_u8(0);
}

void WireWriter::patch_u16(size_t offset, uint16_t value) {
  buffer_[offset] = static_cast<uint8_t>(value >> 8);
  buffer_[offset + 1] = static_cast<uint8_t>(value);
}

uint8_t WireReader::get_u8() {
  if (!ok_ || offset_ + 1 > data_.size()) {
    ok_ = false;
    return 0;
  }
  return data_[offset_++];
}

uint16_t WireReader::get_u16() {
  uint16_t hi = get_u8();
  uint16_t lo = get_u8();
  return static_cast<uint16_t>(hi << 8 | lo);
}

uint32_t WireReader::get_u32() {
  uint32_t hi = get_u16();
  uint32_t lo = get_u16();
  return hi << 16 | lo;
}

std::vector<uint8_t> WireReader::get_bytes(size_t count) {
  // `count > size - offset` rather than `offset + count > size`: the latter
  // wraps when a caller derives `count` from untrusted arithmetic (e.g. an
  // RDATA length smaller than the fields already consumed) and would accept
  // a huge count whose sum happens to land back inside the buffer.
  if (!ok_ || count > data_.size() - offset_) {
    ok_ = false;
    return {};
  }
  std::vector<uint8_t> out(data_.begin() + static_cast<long>(offset_),
                           data_.begin() + static_cast<long>(offset_ + count));
  offset_ += count;
  return out;
}

Name WireReader::get_name() {
  std::vector<std::string> labels;
  size_t cursor = offset_;
  bool jumped = false;
  size_t jumps = 0;
  size_t wire_length = 1;  // terminal root octet
  size_t after_first_pointer = 0;
  while (true) {
    if (!ok_ || cursor >= data_.size()) {
      ok_ = false;
      return Name();
    }
    uint8_t len = data_[cursor];
    if ((len & 0xC0) == 0xC0) {
      if (cursor + 1 >= data_.size() || ++jumps > kMaxPointerHops) {
        ok_ = false;
        return Name();
      }
      size_t target = static_cast<size_t>(len & 0x3F) << 8 | data_[cursor + 1];
      if (target >= cursor) {  // forward/self pointers are malformed
        ok_ = false;
        return Name();
      }
      if (!jumped) after_first_pointer = cursor + 2;
      jumped = true;
      cursor = target;
      continue;
    }
    if ((len & 0xC0) != 0) {  // reserved label types
      ok_ = false;
      return Name();
    }
    if (len == 0) {
      ++cursor;
      break;
    }
    if (cursor + 1 + len > data_.size()) {
      ok_ = false;
      return Name();
    }
    // Enforce the 255-octet name limit as labels accumulate rather than after
    // the fact: a pointer-dense message can otherwise make us collect tens of
    // kilobytes of labels that Name::from_labels would reject anyway.
    wire_length += 1 + static_cast<size_t>(len);
    if (wire_length > 255) {
      ok_ = false;
      return Name();
    }
    labels.emplace_back(reinterpret_cast<const char*>(data_.data() + cursor + 1), len);
    cursor += 1 + static_cast<size_t>(len);
  }
  offset_ = jumped ? after_first_pointer : cursor;
  auto name = Name::from_labels(std::move(labels));
  if (!name) {
    ok_ = false;
    return Name();
  }
  return *name;
}

void WireReader::seek(size_t offset) {
  if (offset > data_.size()) {
    ok_ = false;
    return;
  }
  offset_ = offset;
}

void WireReader::skip(size_t count) {
  if (!ok_ || count > data_.size() - offset_) {  // overflow-safe, see get_bytes
    ok_ = false;
    return;
  }
  offset_ += count;
}

}  // namespace rootsim::dns
