// DNS domain names (RFC 1035 §3.1).
//
// A name is a sequence of labels, each 1..63 octets, total wire length <= 255.
// Comparison is case-insensitive (RFC 1035 §2.3.3) and the canonical ordering
// of RFC 4034 §6.1 — right-to-left by label, case-folded — is what DNSSEC
// signing, NSEC chains and ZONEMD all sort by, so it lives here.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace rootsim::dns {

/// An absolute DNS name. The root is the empty label sequence.
class Name {
 public:
  /// The root name ".".
  Name() = default;

  /// Parses presentation format ("b.root-servers.net.", trailing dot
  /// optional, "." is the root). Supports \DDD and \X escapes. Returns
  /// nullopt for malformed input (label > 63 octets, name > 255 octets, ...).
  static std::optional<Name> parse(std::string_view text);

  /// Builds from raw labels (already unescaped octet strings).
  static std::optional<Name> from_labels(std::vector<std::string> labels);

  bool is_root() const { return labels_.empty(); }
  size_t label_count() const { return labels_.size(); }
  const std::vector<std::string>& labels() const { return labels_; }

  /// Octets on the wire: sum of (1 + label length) + 1 for the root octet.
  size_t wire_length() const;

  /// Presentation format with a trailing dot; "." for the root. Special
  /// characters are escaped as \DDD.
  std::string to_string() const;
  /// Appends to_string() to `out`.
  void append_to(std::string& out) const;

  /// The name minus its leftmost label; the root if already root.
  Name parent() const;

  /// Prepends a label; returns nullopt if limits would be exceeded.
  std::optional<Name> child(std::string_view label) const;

  /// True if this name equals `ancestor` or is underneath it.
  bool is_subdomain_of(const Name& ancestor) const;

  /// Case-insensitive equality.
  bool operator==(const Name& other) const;
  bool operator!=(const Name& other) const { return !(*this == other); }

  /// RFC 4034 §6.1 canonical ordering: compare label sequences right to left,
  /// each label as case-folded octets. Returns <0, 0, >0.
  int canonical_compare(const Name& other) const;
  bool operator<(const Name& other) const { return canonical_compare(other) < 0; }

  /// Lower-cased copy (canonical form for signing).
  Name to_lower() const;

  /// Stable hash of the case-folded name (for unordered containers).
  uint64_t hash() const;

 private:
  std::vector<std::string> labels_;  // leftmost label first
};

struct NameHash {
  size_t operator()(const Name& name) const { return name.hash(); }
};

}  // namespace rootsim::dns
