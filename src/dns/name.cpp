#include "dns/name.h"

#include <algorithm>

#include "util/rng.h"

namespace rootsim::dns {

namespace {

constexpr size_t kMaxLabelLength = 63;
constexpr size_t kMaxNameWireLength = 255;

char fold(char c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
}

bool needs_escape(char c) {
  return c == '.' || c == '\\' || static_cast<uint8_t>(c) < 0x21 ||
         static_cast<uint8_t>(c) > 0x7e;
}

}  // namespace

std::optional<Name> Name::parse(std::string_view text) {
  if (text.empty()) return std::nullopt;
  if (text == ".") return Name();
  std::vector<std::string> labels;
  std::string current;
  size_t i = 0;
  while (i < text.size()) {
    char c = text[i];
    if (c == '\\') {
      if (i + 1 >= text.size()) return std::nullopt;
      char next = text[i + 1];
      if (next >= '0' && next <= '9') {
        if (i + 3 >= text.size()) return std::nullopt;
        int value = 0;
        for (int k = 1; k <= 3; ++k) {
          char d = text[i + static_cast<size_t>(k)];
          if (d < '0' || d > '9') return std::nullopt;
          value = value * 10 + (d - '0');
        }
        if (value > 255) return std::nullopt;
        current += static_cast<char>(value);
        i += 4;
      } else {
        current += next;
        i += 2;
      }
      continue;
    }
    if (c == '.') {
      if (current.empty()) return std::nullopt;  // empty label ("a..b")
      labels.push_back(std::move(current));
      current.clear();
      ++i;
      continue;
    }
    current += c;
    ++i;
  }
  if (!current.empty()) labels.push_back(std::move(current));
  return from_labels(std::move(labels));
}

std::optional<Name> Name::from_labels(std::vector<std::string> labels) {
  size_t wire = 1;
  for (const auto& label : labels) {
    if (label.empty() || label.size() > kMaxLabelLength) return std::nullopt;
    wire += 1 + label.size();
  }
  if (wire > kMaxNameWireLength) return std::nullopt;
  Name name;
  name.labels_ = std::move(labels);
  return name;
}

size_t Name::wire_length() const {
  size_t length = 1;
  for (const auto& label : labels_) length += 1 + label.size();
  return length;
}

std::string Name::to_string() const {
  std::string out;
  append_to(out);
  return out;
}

void Name::append_to(std::string& out) const {
  if (labels_.empty()) {
    out += '.';
    return;
  }
  for (const auto& label : labels_) {
    if (std::none_of(label.begin(), label.end(), needs_escape)) {
      out += label;
      out += '.';
      continue;
    }
    for (char c : label) {
      if (!needs_escape(c)) {
        out += c;
      } else if (c == '.' || c == '\\') {
        out += '\\';
        out += c;
      } else {
        const auto octet = static_cast<uint8_t>(c);
        const char escaped[] = {'\\', static_cast<char>('0' + octet / 100),
                                static_cast<char>('0' + octet / 10 % 10),
                                static_cast<char>('0' + octet % 10)};
        out.append(escaped, sizeof escaped);
      }
    }
    out += '.';
  }
}

Name Name::parent() const {
  Name out;
  if (labels_.size() > 1)
    out.labels_.assign(labels_.begin() + 1, labels_.end());
  return out;
}

std::optional<Name> Name::child(std::string_view label) const {
  std::vector<std::string> labels;
  labels.reserve(labels_.size() + 1);
  labels.emplace_back(label);
  labels.insert(labels.end(), labels_.begin(), labels_.end());
  return from_labels(std::move(labels));
}

bool Name::is_subdomain_of(const Name& ancestor) const {
  if (ancestor.labels_.size() > labels_.size()) return false;
  size_t offset = labels_.size() - ancestor.labels_.size();
  for (size_t i = 0; i < ancestor.labels_.size(); ++i) {
    const std::string& mine = labels_[offset + i];
    const std::string& theirs = ancestor.labels_[i];
    if (mine.size() != theirs.size()) return false;
    for (size_t k = 0; k < mine.size(); ++k)
      if (fold(mine[k]) != fold(theirs[k])) return false;
  }
  return true;
}

bool Name::operator==(const Name& other) const {
  return labels_.size() == other.labels_.size() && is_subdomain_of(other);
}

int Name::canonical_compare(const Name& other) const {
  size_t n = std::min(labels_.size(), other.labels_.size());
  for (size_t i = 1; i <= n; ++i) {
    const std::string& a = labels_[labels_.size() - i];
    const std::string& b = other.labels_[other.labels_.size() - i];
    size_t m = std::min(a.size(), b.size());
    for (size_t k = 0; k < m; ++k) {
      uint8_t ca = static_cast<uint8_t>(fold(a[k]));
      uint8_t cb = static_cast<uint8_t>(fold(b[k]));
      if (ca != cb) return ca < cb ? -1 : 1;
    }
    if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  }
  if (labels_.size() != other.labels_.size())
    return labels_.size() < other.labels_.size() ? -1 : 1;
  return 0;
}

Name Name::to_lower() const {
  Name out = *this;
  for (auto& label : out.labels_)
    for (auto& c : label) c = fold(c);
  return out;
}

uint64_t Name::hash() const {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& label : labels_) {
    for (char c : label) {
      h ^= static_cast<uint8_t>(fold(c));
      h *= 0x100000001b3ULL;
    }
    h ^= 0xff;  // label separator, distinguishes {"ab","c"} from {"a","bc"}
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace rootsim::dns
