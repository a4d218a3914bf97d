#include "storage/schema.h"

#include "common/strings.h"

namespace tcells::storage {

Schema::Schema(std::vector<Column> columns) : columns_(std::move(columns)) {}

std::optional<size_t> Schema::FindColumn(std::string_view name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (EqualsIgnoreCase(columns_[i].name, name)) return i;
  }
  return std::nullopt;
}

Schema Schema::Concat(const Schema& a, const Schema& b) {
  std::vector<Column> cols = a.columns();
  cols.insert(cols.end(), b.columns().begin(), b.columns().end());
  return Schema(std::move(cols));
}

bool Schema::Equals(const Schema& other) const {
  if (columns_.size() != other.columns_.size()) return false;
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (!EqualsIgnoreCase(columns_[i].name, other.columns_[i].name) ||
        columns_[i].type != other.columns_[i].type) {
      return false;
    }
  }
  return true;
}

Status Catalog::AddTable(const std::string& name, Schema schema) {
  std::string key = ToLower(name);
  if (tables_.count(key)) {
    return Status::InvalidArgument("table already exists: " + name);
  }
  tables_.emplace(key, std::make_pair(name, std::move(schema)));
  // tables_ is an ordered map keyed by lower-cased name, so iteration order
  // (and therefore the fingerprint) is deterministic. The separators cannot
  // appear in identifiers, so distinct catalogs cannot collide.
  fingerprint_.clear();
  for (const auto& [table, value] : tables_) {
    fingerprint_ += table;
    fingerprint_ += '(';
    for (const auto& col : value.second.columns()) {
      fingerprint_ += ToLower(col.name);
      fingerprint_ += ':';
      fingerprint_ += static_cast<char>('0' + static_cast<int>(col.type));
      fingerprint_ += ',';
    }
    fingerprint_ += ");";
  }
  return Status::OK();
}

Result<const Schema*> Catalog::GetSchema(std::string_view name) const {
  auto it = tables_.find(ToLower(name));
  if (it == tables_.end()) {
    return Status::NotFound("no such table: " + std::string(name));
  }
  return &it->second.second;
}

bool Catalog::HasTable(std::string_view name) const {
  return tables_.count(ToLower(name)) > 0;
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [key, value] : tables_) names.push_back(value.first);
  return names;
}

}  // namespace tcells::storage
