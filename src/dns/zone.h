// A DNS zone: RRsets keyed by (owner, type), plus master-file I/O and AXFR
// framing (RFC 1035 §5, RFC 5936).
//
// The root zone we simulate carries the same structural elements as the real
// one: the apex SOA/NS/DNSKEY/NSEC/ZONEMD set, per-TLD NS delegations with
// glue, DS records, and RRSIGs over every authoritative RRset.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "dns/rdata.h"

namespace rootsim::dns {

/// An RRset: all records sharing owner, type and class.
struct RRset {
  Name name;
  RRType type = RRType::A;
  RRClass rclass = RRClass::IN;
  uint32_t ttl = 0;
  std::vector<Rdata> rdatas;

  bool empty() const { return rdatas.empty(); }
  std::vector<ResourceRecord> to_records() const;
  // Rdata order within an RRset carries no meaning (RFC 2181 §5), so two
  // RRsets are equal iff they hold the same rdatas as a multiset. A defaulted
  // (ordered) comparison would call zones rebuilt from a sorted diff unequal
  // to their originals.
  bool operator==(const RRset& other) const;
};

/// Zone container. Records are stored grouped into RRsets and iterated in
/// canonical (RFC 4034 §6.1) owner order, which is the order ZONEMD hashing
/// and NSEC chain construction require.
class Zone {
 public:
  explicit Zone(Name origin = Name()) : origin_(std::move(origin)) {}

  const Name& origin() const { return origin_; }

  /// Adds one record, merging into the existing RRset (TTL of the first
  /// record wins, duplicate rdata is dropped — RFC 2181 §5). Records that
  /// arrive in canonical order (a master file, an AXFR stream) join the last
  /// RRset or start one at the end in constant time; any order is accepted.
  void add(ResourceRecord rr);

  /// Removes the RRset with this owner and type. Returns true if removed.
  bool remove_rrset(const Name& name, RRType type);

  /// Removes one record (matching rdata) from its RRset, erasing the RRset
  /// when its last record goes. Returns false if the record was not present.
  bool remove(const ResourceRecord& rr);

  /// Looks up an RRset; nullptr if absent.
  const RRset* find(const Name& name, RRType type) const;

  /// All RRsets in canonical order.
  std::vector<const RRset*> rrsets() const;
  /// All RRsets with the given owner.
  std::vector<const RRset*> rrsets_at(const Name& name) const;

  /// The apex SOA, if present.
  std::optional<SoaData> soa() const;
  uint32_t serial() const;

  size_t rrset_count() const { return sets_.size(); }
  size_t record_count() const;

  /// True if the name exists in the zone or is a delegation owner.
  bool contains_name(const Name& name) const;

  /// Names that have authoritative data, in canonical order (for NSEC).
  std::vector<Name> authoritative_names() const;

  /// AXFR stream framing: SOA first, then all other records, SOA again.
  std::vector<ResourceRecord> axfr_records() const;

  /// Parses an AXFR stream back into a zone: first and last record must be
  /// the same SOA. Returns nullopt if framing is broken.
  static std::optional<Zone> from_axfr(const std::vector<ResourceRecord>& records,
                                       const Name& origin);

  /// Master-file rendering (one canonical-order record per line), written
  /// into one buffer.
  std::string to_master_file() const;

  /// Master-file parsing. Supports $ORIGIN/$TTL, relative names, comments,
  /// and the record types in rdata.h. Returns nullopt with a diagnostic in
  /// `error` (if non-null) on malformed input; errors in a line name it.
  static std::optional<Zone> parse_master_file(std::string_view text,
                                               std::string* error = nullptr);

  bool operator==(const Zone& other) const { return sets_ == other.sets_; }

 private:
  struct Key {
    Name name;
    RRType type;
    /// Canonical owner order, then type order: <0, 0, >0.
    static int compare(const Name& name, RRType type, const Key& other) {
      if (int c = name.canonical_compare(other.name); c != 0) return c;
      return static_cast<int>(type) - static_cast<int>(other.type);
    }
    bool operator<(const Key& other) const { return compare(name, type, other) < 0; }
    bool operator==(const Key& other) const {
      return name == other.name && type == other.type;
    }
  };
  Name origin_;
  std::map<Key, RRset> sets_;
};

}  // namespace rootsim::dns
