// Schema and Catalog: the common relational schema all TDSs conform to
// (§2.1: "local databases conform to a common schema which can be queried in
// SQL", e.g. the national distribution company defines the Power schema).
#ifndef TCELLS_STORAGE_SCHEMA_H_
#define TCELLS_STORAGE_SCHEMA_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/value.h"

namespace tcells::storage {

/// A named, typed column.
struct Column {
  std::string name;
  ValueType type = ValueType::kNull;
};

/// Ordered column list of one table.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Column> columns);

  size_t num_columns() const { return columns_.size(); }
  const Column& column(size_t i) const { return columns_[i]; }
  const std::vector<Column>& columns() const { return columns_; }

  /// Case-insensitive lookup; nullopt if absent.
  std::optional<size_t> FindColumn(std::string_view name) const;

  /// Concatenation (used for local internal joins).
  static Schema Concat(const Schema& a, const Schema& b);

  bool Equals(const Schema& other) const;

 private:
  std::vector<Column> columns_;
};

/// Named tables -> schemas. Every TDS holds a catalog instance (same shape
/// across the fleet); the analyzer binds queries against it.
class Catalog {
 public:
  /// Fails if the name is already taken (case-insensitive).
  Status AddTable(const std::string& name, Schema schema);

  Result<const Schema*> GetSchema(std::string_view name) const;
  bool HasTable(std::string_view name) const;
  std::vector<std::string> TableNames() const;

  /// Deterministic description of every table and column: two catalogs with
  /// equal fingerprints bind queries identically. The fleet-wide analysis
  /// memo (sql::AnalyzeSqlShared) keys on this, so TDSs sharing the common
  /// schema share one analysis per distinct query text. Rebuilt by AddTable,
  /// so reading it allocates nothing.
  const std::string& Fingerprint() const { return fingerprint_; }

 private:
  // Keyed by lower-cased name.
  std::map<std::string, std::pair<std::string, Schema>> tables_;
  std::string fingerprint_;
};

}  // namespace tcells::storage

#endif  // TCELLS_STORAGE_SCHEMA_H_
