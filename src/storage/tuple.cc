#include "storage/tuple.h"

namespace tcells::storage {

Tuple Tuple::Concat(const Tuple& a, const Tuple& b) {
  std::vector<Value> values = a.values_;
  values.insert(values.end(), b.values_.begin(), b.values_.end());
  return Tuple(std::move(values));
}

void Tuple::EncodeTo(Bytes* out) const {
  ByteWriter w(out);
  w.PutU16(static_cast<uint16_t>(values_.size()));
  for (const auto& v : values_) v.EncodeTo(out);
}

Bytes Tuple::Encode() const {
  Bytes out;
  EncodeTo(&out);
  return out;
}

Status Tuple::ReadValues(ByteReader* reader) {
  // Every encoded Value is at least 1 byte (its type tag), so an arity larger
  // than the bytes left is rejected before the reserve below can amplify a
  // 2-byte input into a multi-megabyte allocation.
  TCELLS_ASSIGN_OR_RETURN(uint16_t n, reader->GetCountU16(1));
  values_.clear();
  values_.reserve(n);
  for (uint16_t i = 0; i < n; ++i) {
    TCELLS_ASSIGN_OR_RETURN(Value v, Value::DecodeFrom(reader));
    values_.push_back(std::move(v));
  }
  return Status::OK();
}

Result<Tuple> Tuple::DecodeFrom(ByteReader* reader) {
  Tuple t;
  TCELLS_RETURN_IF_ERROR(t.ReadValues(reader));
  return t;
}

Status Tuple::Decode(std::span<const uint8_t> data, Tuple* out) {
  ByteReader reader(data);
  TCELLS_RETURN_IF_ERROR(out->ReadValues(&reader));
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes after tuple");
  }
  return Status::OK();
}

Result<Tuple> Tuple::Decode(std::span<const uint8_t> data) {
  Tuple t;
  TCELLS_RETURN_IF_ERROR(Decode(data, &t));
  return t;
}

bool Tuple::IsSameGroup(const Tuple& other) const {
  if (values_.size() != other.values_.size()) return false;
  for (size_t i = 0; i < values_.size(); ++i) {
    if (!values_[i].IsSameGroup(other.values_[i])) return false;
  }
  return true;
}

std::string Tuple::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < values_.size(); ++i) {
    if (i) out += ", ";
    out += values_[i].ToString();
  }
  out += ")";
  return out;
}

}  // namespace tcells::storage
