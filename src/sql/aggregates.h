// Mergeable aggregate states. The distributed aggregation phase (§4) works
// because every supported aggregate can be computed as
//   init -> Accumulate(value)* -> Merge(other partial)* -> Finalize()
// Distributive (COUNT/SUM/MIN/MAX) and algebraic (AVG) aggregates carry O(1)
// state; holistic ones (COUNT DISTINCT, MEDIAN) carry their value multiset,
// which is exactly why they stress the TDS RAM bound the paper discusses.
#ifndef TCELLS_SQL_AGGREGATES_H_
#define TCELLS_SQL_AGGREGATES_H_

#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "sql/ast.h"
#include "storage/tuple.h"
#include "storage/value.h"

namespace tcells::sql {

/// Static description of one aggregate slot of a query: what to compute over
/// which input column of the collection tuple.
struct AggSpec {
  AggKind kind = AggKind::kCount;
  bool distinct = false;
  /// Index of the aggregate's input within the collection tuple; -1 for
  /// COUNT(*) (no input needed).
  int input_index = -1;
  /// Display name, e.g. "AVG(Cons)".
  std::string name;
};

/// Running state for one aggregate slot. Copyable; serializable so partial
/// aggregations can be re-encrypted and shipped between TDSs via the SSI.
class AggState {
 public:
  AggState() = default;
  explicit AggState(const AggSpec& spec);

  /// Folds one input value in. NULLs are ignored (SQL semantics); COUNT(*)
  /// accepts any value including NULL.
  Status Accumulate(const storage::Value& v);

  /// Merges another partial state for the same spec.
  Status Merge(const AggState& other);

  /// Produces the final value. COUNT of nothing is 0; other aggregates of
  /// nothing are NULL.
  Result<storage::Value> Finalize() const;

  /// Wire encoding (spec is NOT encoded; both sides know the query plan).
  void EncodeTo(Bytes* out) const;
  static Result<AggState> DecodeFrom(const AggSpec& spec,
                                     ::tcells::ByteReader* reader);

  /// Approximate in-memory footprint in bytes — used to model the TDS RAM
  /// bound on the partial aggregate structure (§4.2 Correctness).
  size_t MemoryFootprint() const;

  int64_t count_for_test() const { return count_; }

 private:
  AggSpec spec_;
  // COUNT / AVG denominator.
  int64_t count_ = 0;
  // SUM / AVG numerator. Kept as double plus an exact int64 track; the int64
  // track is authoritative while no double input has been seen.
  double sum_double_ = 0;
  // VARIANCE / STDDEV second moment.
  double sum_squares_ = 0;
  int64_t sum_int_ = 0;
  bool saw_double_ = false;
  bool sum_int_overflow_ = false;
  // MIN / MAX.
  storage::Value extreme_;
  // Holistic state: value -> multiplicity (multiset). DISTINCT uses the key
  // set; MEDIAN uses the full multiset.
  std::map<storage::Value, int64_t> values_;
};

/// A keyed partial aggregation: group key -> per-slot states. This is the
/// "partial aggregate" data structure a TDS materializes in RAM during the
/// aggregation phase.
class GroupedAggregation {
 public:
  explicit GroupedAggregation(std::vector<AggSpec> specs);

  /// Folds a collection tuple (group key prefix + aggregate inputs) in.
  /// `key_arity` values of `tuple` form the group key.
  Status AccumulateTuple(const storage::Tuple& tuple, size_t key_arity);

  /// Merges one (key, states) partial row from another TDS.
  Status MergeRow(const storage::Tuple& key, const std::vector<AggState>& states);

  /// Merges everything from another aggregation.
  Status MergeAll(const GroupedAggregation& other);

  /// Streaming decode-and-merge of an encoded aggregation (the wire format
  /// EncodeTo produces): each row is merged as it is decoded, moving states
  /// straight into the group map on first sight instead of materializing a
  /// second GroupedAggregation and deep-copying it. On error this aggregation
  /// may hold a prefix of the rows; callers treat any error as fatal for the
  /// partition, so the partial merge is never observed.
  Status MergeEncoded(std::span<const uint8_t> data);

  size_t num_groups() const { return groups_.size(); }
  const std::vector<AggSpec>& specs() const { return specs_; }
  const std::map<storage::Tuple, std::vector<AggState>>& groups() const {
    return groups_;
  }

  /// Approximate RAM footprint of the whole structure.
  size_t MemoryFootprint() const;

  /// Serializes to rows of (key, states...) for shipping.
  void EncodeTo(Bytes* out) const;
  /// Materializing decode: a fresh aggregation over MergeEncoded.
  static Result<GroupedAggregation> Decode(const std::vector<AggSpec>& specs,
                                           std::span<const uint8_t> data);

  /// Encodes a single (key, states) row in the same wire format as EncodeTo
  /// of a one-group aggregation. The ED_Hist per-group output path uses this
  /// to seal each group without constructing a throwaway GroupedAggregation.
  static void EncodeSingleRowTo(const storage::Tuple& key,
                                const std::vector<AggState>& states,
                                Bytes* out);

 private:
  std::vector<AggSpec> specs_;
  std::map<storage::Tuple, std::vector<AggState>> groups_;
  /// Scratch group key reused by AccumulateTuple so the per-tuple lookup
  /// stops allocating a fresh key vector (its capacity survives emplaces).
  storage::Tuple key_scratch_;
};

}  // namespace tcells::sql

#endif  // TCELLS_SQL_AGGREGATES_H_
