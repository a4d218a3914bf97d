#include "sql/aggregates.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "storage/tuple.h"

namespace tcells::sql {

using storage::Value;
using storage::ValueType;

AggState::AggState(const AggSpec& spec) : spec_(spec) {}

namespace {

bool NeedsValueSet(const AggSpec& spec) {
  // MEDIAN is holistic: it always needs the full multiset. DISTINCT needs the
  // value set for COUNT/SUM/AVG; for MIN/MAX it is a semantic no-op.
  if (spec.kind == AggKind::kMedian) return true;
  if (!spec.distinct) return false;
  return spec.kind == AggKind::kCount || spec.kind == AggKind::kSum ||
         spec.kind == AggKind::kAvg || spec.kind == AggKind::kVariance ||
         spec.kind == AggKind::kStdDev;
}

bool AddOverflows(int64_t a, int64_t b) {
  return (b > 0 && a > std::numeric_limits<int64_t>::max() - b) ||
         (b < 0 && a < std::numeric_limits<int64_t>::min() - b);
}

}  // namespace

Status AggState::Accumulate(const Value& v) {
  if (spec_.kind == AggKind::kCount && spec_.input_index < 0) {
    // COUNT(*): every row counts, even all-NULL ones.
    ++count_;
    return Status::OK();
  }
  if (v.is_null()) return Status::OK();

  if (NeedsValueSet(spec_)) {
    ++values_[v];
    if (spec_.kind == AggKind::kCount) return Status::OK();
    // DISTINCT SUM/AVG and MEDIAN finalize from the set; nothing else to do.
    if (spec_.distinct || spec_.kind == AggKind::kMedian) return Status::OK();
  }

  switch (spec_.kind) {
    case AggKind::kCount:
      ++count_;
      return Status::OK();
    case AggKind::kVariance:
    case AggKind::kStdDev: {
      TCELLS_ASSIGN_OR_RETURN(double d, v.ToDouble());
      sum_double_ += d;
      sum_squares_ += d * d;
      ++count_;
      return Status::OK();
    }
    case AggKind::kSum:
    case AggKind::kAvg: {
      TCELLS_ASSIGN_OR_RETURN(double d, v.ToDouble());
      sum_double_ += d;
      if (v.type() == ValueType::kDouble) {
        saw_double_ = true;
      } else if (!sum_int_overflow_) {
        if (AddOverflows(sum_int_, v.AsInt64())) {
          sum_int_overflow_ = true;
        } else {
          sum_int_ += v.AsInt64();
        }
      }
      ++count_;
      return Status::OK();
    }
    case AggKind::kMin:
    case AggKind::kMax: {
      if (extreme_.is_null()) {
        extreme_ = v;
        return Status::OK();
      }
      TCELLS_ASSIGN_OR_RETURN(int cmp, v.Compare(extreme_));
      if ((spec_.kind == AggKind::kMin && cmp < 0) ||
          (spec_.kind == AggKind::kMax && cmp > 0)) {
        extreme_ = v;
      }
      return Status::OK();
    }
    case AggKind::kMedian:
      return Status::OK();  // handled by the value set above
  }
  return Status::Internal("unreachable aggregate kind");
}

Status AggState::Merge(const AggState& other) {
  // Honest states count actual accumulated rows, so these sums fit; only
  // forged wire states (duplicate-key rows with huge counts/multiplicities)
  // can overflow, and signed overflow is UB.
  if (AddOverflows(count_, other.count_)) {
    return Status::Corruption("aggregate row count overflows");
  }
  count_ += other.count_;
  sum_double_ += other.sum_double_;
  sum_squares_ += other.sum_squares_;
  saw_double_ = saw_double_ || other.saw_double_;
  if (!sum_int_overflow_ && !other.sum_int_overflow_ &&
      !AddOverflows(sum_int_, other.sum_int_)) {
    sum_int_ += other.sum_int_;
  } else {
    sum_int_overflow_ = true;
  }
  if (!other.extreme_.is_null()) {
    TCELLS_RETURN_IF_ERROR(
        // Reuse the accumulate path to apply min/max logic.
        (spec_.kind == AggKind::kMin || spec_.kind == AggKind::kMax)
            ? Accumulate(other.extreme_)
            : Status::OK());
  }
  for (const auto& [v, mult] : other.values_) {
    int64_t& slot = values_[v];
    if (AddOverflows(slot, mult)) {
      return Status::Corruption("value multiplicity overflows");
    }
    slot += mult;
  }
  return Status::OK();
}

Result<Value> AggState::Finalize() const {
  switch (spec_.kind) {
    case AggKind::kCount:
      if (spec_.distinct) {
        return Value::Int64(static_cast<int64_t>(values_.size()));
      }
      return Value::Int64(count_);
    case AggKind::kSum: {
      if (spec_.distinct) {
        double sum = 0;
        bool any_double = false, any = false;
        int64_t isum = 0;
        bool ioverflow = false;
        for (const auto& [v, mult] : values_) {
          (void)mult;
          TCELLS_ASSIGN_OR_RETURN(double d, v.ToDouble());
          sum += d;
          any = true;
          if (v.type() == ValueType::kDouble) {
            any_double = true;
          } else if (!ioverflow) {
            if (AddOverflows(isum, v.AsInt64())) ioverflow = true;
            else isum += v.AsInt64();
          }
        }
        if (!any) return Value::Null();
        if (any_double || ioverflow) return Value::Double(sum);
        return Value::Int64(isum);
      }
      if (count_ == 0) return Value::Null();
      if (saw_double_ || sum_int_overflow_) return Value::Double(sum_double_);
      return Value::Int64(sum_int_);
    }
    case AggKind::kAvg: {
      if (spec_.distinct) {
        if (values_.empty()) return Value::Null();
        double sum = 0;
        for (const auto& [v, mult] : values_) {
          (void)mult;
          TCELLS_ASSIGN_OR_RETURN(double d, v.ToDouble());
          sum += d;
        }
        return Value::Double(sum / static_cast<double>(values_.size()));
      }
      if (count_ == 0) return Value::Null();
      return Value::Double(sum_double_ / static_cast<double>(count_));
    }
    case AggKind::kMin:
    case AggKind::kMax:
      return extreme_;
    case AggKind::kVariance:
    case AggKind::kStdDev: {
      double n;
      double sum = 0, sumsq = 0;
      if (spec_.distinct) {
        if (values_.empty()) return Value::Null();
        n = static_cast<double>(values_.size());
        for (const auto& [v, mult] : values_) {
          (void)mult;
          TCELLS_ASSIGN_OR_RETURN(double d, v.ToDouble());
          sum += d;
          sumsq += d * d;
        }
      } else {
        if (count_ == 0) return Value::Null();
        n = static_cast<double>(count_);
        sum = sum_double_;
        sumsq = sum_squares_;
      }
      double mean = sum / n;
      // Population variance; clamp tiny negative rounding residue.
      double variance = std::max(0.0, sumsq / n - mean * mean);
      return Value::Double(spec_.kind == AggKind::kVariance
                               ? variance
                               : std::sqrt(variance));
    }
    case AggKind::kMedian: {
      if (values_.empty()) return Value::Null();
      int64_t total = 0;
      for (const auto& [v, mult] : values_) {
        int64_t step = spec_.distinct ? 1 : mult;
        if (AddOverflows(total, step)) {
          // Honest states count actual accumulated rows, so the total fits;
          // only a forged wire state can overflow here (the prefix walk
          // below sums the same steps, so it is covered by this check too).
          return Status::Corruption("median multiplicity total overflows");
        }
        total += step;
      }
      // Lower median of the sorted multiset (exact, order via Value::operator<
      // on the numerically-keyed map).
      int64_t target = (total - 1) / 2;
      int64_t seen = 0;
      for (const auto& [v, mult] : values_) {
        seen += spec_.distinct ? 1 : mult;
        if (seen > target) return v;
      }
      return Status::Internal("median walk out of range");
    }
  }
  return Status::Internal("unreachable aggregate kind");
}

void AggState::EncodeTo(Bytes* out) const {
  ByteWriter w(out);
  w.PutI64(count_);
  w.PutDouble(sum_double_);
  w.PutDouble(sum_squares_);
  w.PutI64(sum_int_);
  w.PutU8(static_cast<uint8_t>((saw_double_ ? 1 : 0) |
                               (sum_int_overflow_ ? 2 : 0)));
  extreme_.EncodeTo(out);
  w.PutU32(static_cast<uint32_t>(values_.size()));
  for (const auto& [v, mult] : values_) {
    v.EncodeTo(out);
    w.PutI64(mult);
  }
}

Result<AggState> AggState::DecodeFrom(const AggSpec& spec,
                                      ByteReader* reader) {
  AggState s(spec);
  TCELLS_ASSIGN_OR_RETURN(s.count_, reader->GetI64());
  if (s.count_ < 0) {
    return Status::Corruption("negative aggregate row count");
  }
  TCELLS_ASSIGN_OR_RETURN(s.sum_double_, reader->GetDouble());
  TCELLS_ASSIGN_OR_RETURN(s.sum_squares_, reader->GetDouble());
  TCELLS_ASSIGN_OR_RETURN(s.sum_int_, reader->GetI64());
  TCELLS_ASSIGN_OR_RETURN(uint8_t flags, reader->GetU8());
  s.saw_double_ = flags & 1;
  s.sum_int_overflow_ = flags & 2;
  TCELLS_ASSIGN_OR_RETURN(s.extreme_, Value::DecodeFrom(reader));
  // Each value-set entry is at least 9 bytes (1-byte value tag + i64
  // multiplicity), so a larger declared count cannot fit in the buffer.
  TCELLS_ASSIGN_OR_RETURN(uint32_t n, reader->GetCountU32(9));
  for (uint32_t i = 0; i < n; ++i) {
    TCELLS_ASSIGN_OR_RETURN(Value v, Value::DecodeFrom(reader));
    TCELLS_ASSIGN_OR_RETURN(int64_t mult, reader->GetI64());
    if (mult <= 0) {
      // Honest encoders only serialize entries that were accumulated at
      // least once; non-positive multiplicities would corrupt COUNT(DISTINCT)
      // and make MEDIAN's rank walk run past the set.
      return Status::Corruption("non-positive value multiplicity");
    }
    s.values_[std::move(v)] = mult;
  }
  return s;
}

size_t AggState::MemoryFootprint() const {
  size_t bytes = sizeof(AggState);
  for (const auto& [v, mult] : values_) {
    (void)mult;
    bytes += 48;  // map node overhead estimate
    if (v.type() == ValueType::kString) bytes += v.AsString().size();
  }
  return bytes;
}

// ---------------------------------------------------------------------------
// GroupedAggregation

GroupedAggregation::GroupedAggregation(std::vector<AggSpec> specs)
    : specs_(std::move(specs)) {}

Status GroupedAggregation::AccumulateTuple(const storage::Tuple& tuple,
                                           size_t key_arity) {
  if (tuple.size() < key_arity) {
    return Status::InvalidArgument("collection tuple shorter than group key");
  }
  // Build the lookup key in the reusable scratch tuple; only a miss pays for
  // a real key (the scratch is moved into the map and re-grown next call).
  auto& scratch = key_scratch_.mutable_values();
  scratch.assign(tuple.values().begin(), tuple.values().begin() + key_arity);
  auto it = groups_.find(key_scratch_);
  if (it == groups_.end()) {
    std::vector<AggState> states;
    states.reserve(specs_.size());
    for (const auto& spec : specs_) states.emplace_back(spec);
    it = groups_.emplace(std::move(key_scratch_), std::move(states)).first;
    key_scratch_ = storage::Tuple();
  }
  for (size_t j = 0; j < specs_.size(); ++j) {
    const AggSpec& spec = specs_[j];
    Value input = Value::Null();
    if (spec.input_index >= 0) {
      if (static_cast<size_t>(spec.input_index) >= tuple.size()) {
        return Status::InvalidArgument("aggregate input index out of range");
      }
      input = tuple.at(static_cast<size_t>(spec.input_index));
    }
    TCELLS_RETURN_IF_ERROR(it->second[j].Accumulate(input));
  }
  return Status::OK();
}

Status GroupedAggregation::MergeRow(const storage::Tuple& key,
                                    const std::vector<AggState>& states) {
  if (states.size() != specs_.size()) {
    return Status::InvalidArgument("partial row has wrong slot count");
  }
  auto it = groups_.find(key);
  if (it == groups_.end()) {
    groups_.emplace(key, states);
    return Status::OK();
  }
  for (size_t j = 0; j < specs_.size(); ++j) {
    TCELLS_RETURN_IF_ERROR(it->second[j].Merge(states[j]));
  }
  return Status::OK();
}

Status GroupedAggregation::MergeAll(const GroupedAggregation& other) {
  for (const auto& [key, states] : other.groups_) {
    TCELLS_RETURN_IF_ERROR(MergeRow(key, states));
  }
  return Status::OK();
}

Status GroupedAggregation::MergeEncoded(std::span<const uint8_t> data) {
  ByteReader reader(data);
  // Same row-size floor as Decode: key arity (2 bytes) plus the 38 fixed
  // bytes of each AggState.
  const size_t min_row_bytes = 2 + 38 * specs_.size();
  TCELLS_ASSIGN_OR_RETURN(uint32_t n, reader.GetCountU32(min_row_bytes));
  std::vector<AggState> states;
  for (uint32_t i = 0; i < n; ++i) {
    TCELLS_ASSIGN_OR_RETURN(storage::Tuple key,
                            storage::Tuple::DecodeFrom(&reader));
    states.clear();
    states.reserve(specs_.size());
    for (const auto& spec : specs_) {
      TCELLS_ASSIGN_OR_RETURN(AggState s, AggState::DecodeFrom(spec, &reader));
      states.push_back(std::move(s));
    }
    auto it = groups_.find(key);
    if (it == groups_.end()) {
      groups_.emplace(std::move(key), std::move(states));
      states = std::vector<AggState>();
    } else {
      for (size_t j = 0; j < specs_.size(); ++j) {
        TCELLS_RETURN_IF_ERROR(it->second[j].Merge(states[j]));
      }
    }
  }
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes after grouped aggregation");
  }
  return Status::OK();
}

size_t GroupedAggregation::MemoryFootprint() const {
  size_t bytes = sizeof(GroupedAggregation);
  for (const auto& [key, states] : groups_) {
    bytes += 64;  // map node overhead estimate
    bytes += key.Encode().size();
    for (const auto& s : states) bytes += s.MemoryFootprint();
  }
  return bytes;
}

void GroupedAggregation::EncodeTo(Bytes* out) const {
  ByteWriter w(out);
  w.PutU32(static_cast<uint32_t>(groups_.size()));
  for (const auto& [key, states] : groups_) {
    key.EncodeTo(out);
    for (const auto& s : states) s.EncodeTo(out);
  }
}

Result<GroupedAggregation> GroupedAggregation::Decode(
    const std::vector<AggSpec>& specs, std::span<const uint8_t> data) {
  GroupedAggregation agg(specs);
  TCELLS_RETURN_IF_ERROR(agg.MergeEncoded(data));
  return agg;
}

void GroupedAggregation::EncodeSingleRowTo(const storage::Tuple& key,
                                           const std::vector<AggState>& states,
                                           Bytes* out) {
  ByteWriter w(out);
  w.PutU32(1);
  key.EncodeTo(out);
  for (const auto& s : states) s.EncodeTo(out);
}

}  // namespace tcells::sql
